//! 6Scan (Hou et al., ToN 2023): region encoding in the probe packet.
//!
//! 6Scan "expands 6Tree to dynamically update which nodes to sample from by
//! encoding node information in the packet payload to quickly update scan
//! directions over time" (§2.1). The defining mechanism: each probe carries
//! its region id *in the packet*; replies echo it, so the scanner credits
//! regions from the response stream alone — no per-probe lookup state. Our
//! probes embed the id via [`sos_probe::packet::build_probe`]'s region tag
//! (ICMP payload / TCP sequence / DNS qname) and reward only what the
//! *echoed tag* says, exactly as 6Scan does.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::addr_set_with_capacity;

use crate::parallel::{commit_proposals, sample_regions_par, stream_seed, SampleUnit};
use crate::space_tree::{build_regions_par, SplitStrategy};
use crate::{clamp_round, fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// The 6Scan generator.
#[derive(Debug, Clone)]
pub struct SixScan {
    /// Leaf size for the space tree (6Tree-style leftmost splits).
    pub max_leaf: usize,
    /// Cap on regions; region ids must fit the 32-bit tag.
    pub max_regions: usize,
    /// Probes per selected region per round.
    pub batch: usize,
    /// Regions probed per round.
    pub regions_per_round: usize,
    /// ε-greedy exploration rate across regions.
    pub epsilon: f64,
    /// Sampling exploration probability within a region.
    pub explore: f64,
}

impl Default for SixScan {
    fn default() -> Self {
        SixScan {
            max_leaf: 16,
            max_regions: 1 << 16,
            batch: 32,
            regions_per_round: 64,
            epsilon: 0.10,
            explore: 0.06,
        }
    }
}

impl TargetGenerator for SixScan {
    fn id(&self) -> TgaId {
        TgaId::SixScan
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x65ca);
        let regions =
            build_regions_par(seeds, SplitStrategy::Leftmost, self.max_leaf, self.max_regions, cfg.workers);
        let n = regions.len();
        // Reward (echoed-tag credits) and probe counts per region id.
        let mut reward = vec![0.0f64; n];
        let mut probes = vec![1.0f64; n];
        let mut exhausted = vec![false; n];
        // Region member digests feed both the provenance tags and the
        // per-unit RNG stream derivation, so they are computed once,
        // unconditionally (region ids are stable for the whole scan —
        // they're what the packets carry).
        let digests: Vec<u32> =
            regions.iter().map(|r| seed_digest(r.members.iter().copied())).collect();
        let mut round = 0usize;

        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen = addr_set_with_capacity(cfg.budget * 2);

        // Seed-density prior for the first rounds.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            regions[b] // a, b < n == regions.len()
                .density()
                .total_cmp(&regions[a].density()) // a < n
        });

        while out.len() < cfg.budget && !order.is_empty() {
            round += 1;
            // Drop exhausted regions from rotation, then rank the live
            // ones by observed reward rate, ε-greedy.
            order.retain(|&i| !exhausted[i]);
            if order.is_empty() {
                break;
            }
            // Stable sort over precomputed rates: ties keep last round's
            // order (the ε picks below index the whole ranking).
            let mut ranked: Vec<(f64, usize)> =
                order.iter().map(|&i| (reward[i] / probes[i], i)).collect(); // i < n: reward/probes sized n
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            order = ranked.into_iter().map(|(_, i)| i).collect();
            // Slot selection runs up front on the round RNG, making each
            // region batch an independent unit of work; sampling itself
            // draws from per-(region, round, slot) streams, so the fan-out
            // below is worker-count-invariant.
            let slots = self.regions_per_round.min(order.len());
            let picks: Vec<usize> = (0..slots)
                .map(|slot| {
                    if rng.gen_bool(self.epsilon) {
                        order[rng.gen_range(0..order.len())]
                    } else {
                        order[slot.min(order.len() - 1)] // slot < slots <= order.len()
                    }
                })
                .collect();
            let units: Vec<SampleUnit<'_>> = picks
                .iter()
                .enumerate()
                .map(|(slot, &idx)| SampleUnit {
                    region: &regions[idx], // idx from order: < n
                    want: self.batch,
                    explore: self.explore,
                    stream: stream_seed(cfg.seed ^ 0x65ca, digests[idx], round, slot), // idx < n
                })
                .collect();
            // Phase 1: parallel proposals against the round-start `seen`.
            let proposals = sample_regions_par(&units, &seen, cfg.workers);
            // Phase 2: sequential commit in slot order.
            let mut progressed = false;
            for (slot, proposal) in proposals.iter().enumerate() {
                if out.len() >= cfg.budget {
                    break;
                }
                let idx = picks[slot]; // slot < picks.len() == proposals.len()
                if exhausted[idx] { // idx < n
                    continue; // an ε repeat of a region exhausted earlier this round
                }
                if proposal.is_empty() {
                    // Exhaustion keys off the *proposal* (worker-invariant),
                    // not the commit: an empty commit below is just a
                    // cross-slot collision, not a dead region.
                    exhausted[idx] = true; // idx < n
                    continue;
                }
                let committed = commit_proposals(proposal, &mut seen, cfg.budget - out.len());
                if committed.is_empty() {
                    continue;
                }
                let batch: Vec<(Ipv6Addr, u32)> =
                    committed.iter().map(|&a| (a, idx as u32)).collect();
                progressed = true;
                // Reward comes exclusively from tags echoed in responses.
                let results = oracle.probe_tagged(&batch, cfg.proto);
                debug_assert_eq!(
                    results.len(),
                    batch.len(),
                    "ScanOracle::probe_tagged length contract: {} results for {} targets",
                    results.len(),
                    batch.len()
                );
                // Release-build tolerance for a malformed oracle: missing
                // entries count as unanswered probes, extras are ignored.
                for &(hit, tag) in results.iter().take(batch.len()) {
                    if hit {
                        if let Some(region_id) = tag {
                            if (region_id as usize) < n {
                                reward[region_id as usize] += 1.0; // region_id < n checked above
                            }
                        }
                    }
                }
                probes[idx] += batch.len() as f64; // idx < n
                if prov.is_enabled() {
                    let d = digests.get(idx).copied().unwrap_or(0);
                    for _ in 0..batch.len() {
                        prov.push(idx as u32, d, clamp_round(round));
                    }
                }
                out.extend(committed);
            }
            if !progressed {
                break;
            }
        }

        fill_budget_by_mutation(&mut out, &mut seen, seeds, cfg.budget, &mut rng, prov);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::Protocol;
    use sos_probe::NullOracle;

    fn seeds() -> Vec<Ipv6Addr> {
        // hosts spread over three nybbles: 4096-address regions
        (1..=48u128)
            .map(|i| {
                Ipv6Addr::from(
                    0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (i % 3) << 64 | (i * 7 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixScan::default().generate(
            &seeds(),
            &GenConfig::new(900, 2, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 900);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 900);
    }

    #[test]
    fn rewards_flow_from_echoed_tags_only() {
        // Oracle answers hits but *drops the tag*: 6Scan must then treat
        // all regions identically (no reward ever credited), which we can
        // observe as determinism equal to a dead oracle ordering.
        struct TaglessHits;
        impl ScanOracle for TaglessHits {
            fn probe(&mut self, _a: Ipv6Addr, _p: Protocol) -> bool {
                true
            }
            fn probe_tagged(
                &mut self,
                t: &[(Ipv6Addr, u32)],
                _p: Protocol,
            ) -> Vec<(bool, Option<u32>)> {
                t.iter().map(|_| (true, None)).collect()
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        let cfg = GenConfig::new(400, 5, Protocol::Icmp);
        let with_tagless = SixScan::default().generate(&seeds(), &cfg, &mut TaglessHits);
        let with_dead = SixScan::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(
            with_tagless, with_dead,
            "hits without echoed tags must not steer the scan"
        );
    }

    #[test]
    fn concentrates_on_tagged_productive_regions() {
        struct OneSubnet;
        impl ScanOracle for OneSubnet {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 64 == 0x2600_0bad_0001_0001u128
            }
            fn probe_tagged(
                &mut self,
                t: &[(Ipv6Addr, u32)],
                p: Protocol,
            ) -> Vec<(bool, Option<u32>)> {
                t.iter().map(|&(a, r)| (self.probe(a, p), Some(r))).collect()
            }
            fn packets_sent(&self) -> u64 {
                0
            }
        }
        // one region per round so ε-greedy choice is observable with only
        // three tree leaves (study-scale trees have thousands)
        let out = SixScan {
            regions_per_round: 1,
            epsilon: 0.10,
            ..SixScan::default()
        }
        .generate(
            &seeds(),
            &GenConfig::new(1800, 2, Protocol::Icmp),
            &mut OneSubnet,
        );
        let in_live = out
            .iter()
            .filter(|&&a| u128::from(a) >> 64 == 0x2600_0bad_0001_0001u128)
            .count();
        assert!(
            in_live as f64 > out.len() as f64 / 3.0,
            "6Scan should overweight the productive region: {in_live}/{}",
            out.len()
        );
    }


    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(300, 9, Protocol::Icmp);
        let a = SixScan::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixScan::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
