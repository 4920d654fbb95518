//! 6Hit (Hou et al., INFOCOM 2021): reinforcement-learning budget division.
//!
//! 6Hit was "the first fully online model ... targeting active tree nodes
//! with reinforcement learning and periodically recreating the tree"
//! (§2.1). Each round divides the probe budget across regions
//! proportionally to a sharpened reward estimate (hit-rate^α) — pure
//! exploitation pressure, with a small uniform floor for exploration. The
//! sharp allocation is why 6Hit is notably alias-prone (Table 4): once an
//! aliased region starts "hitting", reinforcement pours budget into it.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::addr_set_with_capacity;

use crate::space_tree::{build_regions, SplitStrategy};
use crate::{fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// The 6Hit generator.
#[derive(Debug, Clone)]
pub struct SixHit {
    /// Leaf size for the space tree.
    pub max_leaf: usize,
    /// Cap on regions.
    pub max_regions: usize,
    /// Total probes per allocation round.
    pub round_budget: usize,
    /// Reward sharpening exponent α (higher = greedier).
    pub alpha: f64,
    /// Uniform exploration floor added to every region's weight.
    pub floor: f64,
    /// Recreate the tree (from seeds + hits) every this many rounds.
    pub recreate_every: usize,
    /// Sampling exploration probability within regions.
    pub explore: f64,
}

impl Default for SixHit {
    fn default() -> Self {
        SixHit {
            max_leaf: 16,
            max_regions: 1 << 16,
            round_budget: 2048,
            alpha: 2.0,
            floor: 0.002,
            recreate_every: 6,
            explore: 0.05,
        }
    }
}

impl TargetGenerator for SixHit {
    fn id(&self) -> TgaId {
        TgaId::SixHit
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6417);
        let mut regions = build_regions(seeds, SplitStrategy::Leftmost, self.max_leaf, self.max_regions);
        let mut q = vec![0.0f64; regions.len()]; // smoothed hit-rate
        // Provenance digests per region; recomputed on tree recreation
        // (indices reset then, the digest is the stable identity).
        let digest_all = |rs: &[crate::space_tree::Region], on: bool| -> Vec<u32> {
            if on {
                rs.iter().map(|r| seed_digest(r.members.iter().copied())).collect()
            } else {
                Vec::new()
            }
        };
        let mut digests = digest_all(&regions, prov.is_enabled());
        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen = addr_set_with_capacity(cfg.budget * 2);
        let mut all_hits: Vec<Ipv6Addr> = Vec::new();
        let mut round = 0usize;

        while out.len() < cfg.budget && !regions.is_empty() {
            round += 1;
            // Budget division: weight_i ∝ (q_i)^α + floor.
            let weights: Vec<f64> = q.iter().map(|&v| v.powf(self.alpha) + self.floor).collect();
            let wsum: f64 = weights.iter().sum();
            let round_budget = self.round_budget.min(cfg.budget - out.len());

            let mut progressed = false;
            for i in 0..regions.len() {
                if out.len() >= cfg.budget {
                    break;
                }
                let share = ((weights[i] / wsum) * round_budget as f64).round() as usize; // i < regions.len() == weights.len()
                if share == 0 {
                    continue;
                }
                let mut batch: Vec<Ipv6Addr> = Vec::with_capacity(share);
                let mut stale = 0;
                while batch.len() < share && stale < share * 8 + 16 {
                    let a = regions[i].sample(&mut rng, self.explore); // i < regions.len()
                    if seen.insert(u128::from(a)) {
                        batch.push(a);
                        stale = 0;
                    } else {
                        stale += 1;
                    }
                }
                if batch.is_empty() {
                    q[i] = 0.0; // exhausted: stop feeding it
                    continue;
                }
                progressed = true;
                let results = oracle.probe_batch(&batch, cfg.proto);
                let hits = results.iter().filter(|&&h| h).count();
                let rate = hits as f64 / batch.len() as f64;
                // exponential smoothing of the reward estimate
                q[i] = 0.5 * q[i] + 0.5 * rate;
                all_hits.extend(
                    batch
                        .iter()
                        .zip(&results)
                        .filter(|(_, &h)| h)
                        .map(|(&a, _)| a),
                );
                if prov.is_enabled() {
                    let d = digests.get(i).copied().unwrap_or(0);
                    for _ in 0..batch.len() {
                        prov.push(i as u32, d, round.min(u16::MAX as usize) as u16);
                    }
                }
                out.extend(batch);
            }

            // Periodic tree recreation from seeds + discovered actives.
            if round % self.recreate_every == 0 && all_hits.len() > self.max_leaf * 2 {
                let mut basis: Vec<Ipv6Addr> = seeds.to_vec();
                basis.extend(all_hits.iter().copied());
                regions = build_regions(&basis, SplitStrategy::Leftmost, self.max_leaf, self.max_regions);
                q = vec![0.0; regions.len()];
                digests = digest_all(&regions, prov.is_enabled());
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
                    0x2600_0bad_0002_0000_0000_0000_0000_0000u128 | (i % 4) << 64 | (i * 7 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixHit::default().generate(
            &seeds(),
            &GenConfig::new(1000, 4, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1000);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1000);
    }

    #[test]
    fn reinforcement_pours_budget_into_responsive_regions() {
        struct OneSubnet;
        impl ScanOracle for OneSubnet {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 64 == 0x2600_0bad_0002_0003u128
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
        // small rounds so reinforcement kicks in well before the budget
        // is spent (study-scale budgets dwarf the round size)
        let out = SixHit {
            round_budget: 512,
            recreate_every: usize::MAX,
            ..SixHit::default()
        }
        .generate(
            &seeds(),
            &GenConfig::new(3000, 4, Protocol::Icmp),
            &mut OneSubnet,
        );
        let in_live = out
            .iter()
            .filter(|&&a| u128::from(a) >> 64 == 0x2600_0bad_0002_0003u128)
            .count();
        assert!(
            in_live as f64 > 0.4 * out.len() as f64,
            "greedy allocation should dominate: {in_live}/{}",
            out.len()
        );
    }

    #[test]
    fn is_online() {
        let mut oracle = NullOracle::default();
        SixHit::default().generate(&seeds(), &GenConfig::new(300, 4, Protocol::Icmp), &mut oracle);
        assert!(ScanOracle::packets_sent(&oracle) > 0);
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(500, 6, Protocol::Icmp);
        let a = SixHit::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixHit::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
