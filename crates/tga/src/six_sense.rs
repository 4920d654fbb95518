//! 6Sense (Williams et al., USENIX Security 2024): bandit-driven
//! generation with integrated online dealiasing and an AS-diversity budget.
//!
//! 6Sense "used an online adaptive Reinforcement Learning approach to find
//! active regions. It hierarchically generated address sections separately
//! from each other ... and dedicated a variable part of its scan budget to
//! expanding AS coverage" (§2.1). It is also the only studied TGA with
//! online dealiasing built into generation (Table 1), which is why the
//! paper finds dealiased seed inputs barely change its output (Fig. 3).
//!
//! Structure here:
//! - *arms* are /48 prefixes observed in the seeds, each with a learned
//!   per-nybble model for subnet and IID sections;
//! - a UCB bandit schedules the productive arms;
//! - a fixed share of every round goes to the least-probed arms (the
//!   diversity budget that buys AS coverage);
//! - a built-in 6Gen-style dealiaser vets suspiciously hot /96es and
//!   blacklists aliased ones — candidates inside blacklisted prefixes are
//!   regenerated instead of emitted.

use std::iter::Take;
use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use dealias::{OnlineConfig, OnlineDealiaser};
use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{addr_set_with_capacity, Prefix, PrefixSet};

use crate::pattern::ValueHist;
use crate::space_tree::{Region, RegionCursor};
use crate::{fill_budget_by_mutation, top_k, GenConfig, TargetGenerator, TgaId};

/// Per-/48 bandit arm with hierarchical section models: 6Sense generates
/// the subnet section and the IID section separately — per-/64 sub-models
/// capture each subnet's IID style, and a subnet-section histogram lets
/// the arm synthesize *new* /64s in the same style.
struct Arm {
    /// Per-observed-/64 models, with seed-count weights.
    subregions: Vec<Region>,
    weights: Vec<u32>,
    /// Lazy systematic-enumeration state per sub-model: 6Sense exploits a
    /// productive /64 exhaustively (up to 4096 addresses) before falling
    /// back to sampling.
    enums: Vec<Option<Take<RegionCursor>>>,
    /// Value histograms of the subnet-id nybbles (positions 12..16).
    subnet_hists: [ValueHist; 4],
    /// Density of the densest sub-model (the arm's exploitability). The
    /// sub-models never change, so it is computed once.
    density: f64,
    probes: f64,
    q: f64,
}

impl Arm {
    fn from_members(members: &[Ipv6Addr]) -> Arm {
        let mut by64: std::collections::HashMap<u128, Vec<Ipv6Addr>> = Default::default();
        for &m in members {
            by64.entry(u128::from(m) >> 64).or_default().push(m);
        }
        let mut groups: Vec<(u128, Vec<Ipv6Addr>)> = by64.into_iter().collect();
        groups.sort_by_key(|(k, _)| *k);
        let mut subnet_hists = [ValueHist::default(); 4];
        for &m in members {
            for (i, h) in subnet_hists.iter_mut().enumerate() {
                h.add(v6addr::nybble_of(m, 12 + i));
            }
        }
        let subregions: Vec<Region> = groups.iter().map(|(_, g)| Region::from_seeds(g)).collect();
        Arm {
            weights: groups.iter().map(|(_, g)| g.len() as u32).collect(),
            enums: vec![None; groups.len()],
            density: subregions.iter().map(Region::density).fold(f64::NEG_INFINITY, f64::max),
            subregions,
            subnet_hists,
            probes: 0.0,
            q: 0.0,
        }
    }

    /// Generate one candidate: usually expand an observed /64 —
    /// systematically while its enumeration lasts, by IID-model sampling
    /// afterwards; sometimes synthesize a fresh subnet id in the arm's
    /// style and borrow a sub-model's IID pattern for it.
    fn sample(&mut self, rng: &mut SmallRng, explore: f64) -> Ipv6Addr {
        let total: u32 = self.weights.iter().sum::<u32>().max(1);
        let pick = {
            let mut x = rng.gen_range(0..total);
            let mut idx = 0;
            for (i, &w) in self.weights.iter().enumerate() {
                if x < w {
                    idx = i;
                    break;
                }
                x -= w;
            }
            idx
        };
        let addr = if rng.gen_bool(0.85) {
            // systematic sweep of the sub-model's most likely space
            let sweep = self.enums[pick].get_or_insert_with(|| {
                let cap = self.subregions[pick] // pick < weights.len() == subregions.len()
                    .space_size()
                    .unwrap_or(4096)
                    .min(4096) as usize;
                self.subregions[pick].cursor().take(cap) // pick < subregions.len()
            });
            match sweep.next() {
                Some(a) => a,
                None => self.subregions[pick].sample(rng, explore), // pick < subregions.len()
            }
        } else {
            self.subregions[pick].sample(rng, explore) // pick < subregions.len()
        };
        if rng.gen_bool(0.15) {
            // new subnet section in the arm's style, same IID style
            let mut a = addr;
            for (i, h) in self.subnet_hists.iter().enumerate() {
                a = v6addr::with_nybble(a, 12 + i, h.sample(rng, 0.35));
            }
            a
        } else {
            addr
        }
    }

    fn ucb(&self, total: f64, c: f64) -> f64 {
        // Unprobed arms carry a density estimate capped below live hit
        // rates; probed arms are ranked by observed rate (see DET).
        if self.probes < 1.0 {
            return 0.35 * (self.density / 4.0).exp().min(1.0);
        }
        // q is an exponentially decayed *recent* hit rate: saturated arms
        // fall off quickly instead of coasting on their lifetime average.
        self.q + c * ((total.max(2.0)).ln() / self.probes).sqrt()
    }
}

/// The 6Sense generator.
#[derive(Debug, Clone)]
pub struct SixSense {
    /// Arms scheduled per round.
    pub arms_per_round: usize,
    /// Candidates per arm per round.
    pub batch: usize,
    /// UCB exploration constant.
    pub ucb_c: f64,
    /// Share of each round's arms reserved for the least-probed arms
    /// (the AS-coverage budget; 6Sense scales this with the budget).
    pub diversity_share: f64,
    /// Batch hit-rate that triggers an alias check on the hot /96es.
    pub alias_trigger: f64,
    /// Sampling exploration probability.
    pub explore: f64,
}

impl Default for SixSense {
    fn default() -> Self {
        SixSense {
            arms_per_round: 24,
            batch: 48,
            ucb_c: 0.15,
            diversity_share: 0.18,
            alias_trigger: 0.75,
            explore: 0.10,
        }
    }
}

impl TargetGenerator for SixSense {
    fn id(&self) -> TgaId {
        TgaId::SixSense
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x65e5e);

        // Build /48 arms.
        let mut by48: std::collections::HashMap<u128, Vec<Ipv6Addr>> = Default::default();
        for &s in seeds {
            by48.entry(u128::from(s) >> 80).or_default().push(s);
        }
        let mut groups: Vec<(u128, Vec<Ipv6Addr>)> = by48.into_iter().collect();
        groups.sort_by_key(|(k, _)| *k); // HashMap order is unstable
        // Provenance: arms are /48 sites and never rebuilt, so the arm
        // index is stable; digest over the site's contributing seeds.
        let digests: Vec<u32> = if prov.is_enabled() {
            groups.iter().map(|(_, m)| seed_digest(m.iter().copied())).collect()
        } else {
            Vec::new()
        };
        let mut arms: Vec<Arm> = groups.iter().map(|(_, m)| Arm::from_members(m)).collect();

        let mut dealiaser = OnlineDealiaser::new(OnlineConfig {
            seed: cfg.seed ^ 0xa11a5,
            ..OnlineConfig::default()
        });
        let mut blacklist = PrefixSet::new();
        // Escalation: when several /96es under one /48 turn out aliased,
        // condemn the whole /48 — chasing an aliased block one /96 at a
        // time would never catch up with generation.
        let mut aliased_per_48: std::collections::HashMap<u128, u32> = Default::default();

        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen = addr_set_with_capacity(cfg.budget * 2);
        let mut total_probes = 1.0f64;

        let diversity_slots =
            ((self.arms_per_round as f64 * self.diversity_share).ceil() as usize).max(1);
        let ucb_slots = self.arms_per_round.saturating_sub(diversity_slots).max(1);

        let mut round = 0u16;
        while out.len() < cfg.budget && !arms.is_empty() {
            round = round.saturating_add(1);
            // Schedule: top-UCB arms + least-probed arms (diversity),
            // scored once per arm per round.
            let ucb: Vec<f64> = arms.iter().map(|a| a.ucb(total_probes, self.ucb_c)).collect();
            let probes: Vec<f64> = arms.iter().map(|a| a.probes).collect();
            let mut schedule = top_k(&ucb, ucb_slots, true);
            schedule.extend(top_k(&probes, diversity_slots, false));

            let mut progressed = false;
            for idx in schedule {
                if out.len() >= cfg.budget {
                    break;
                }
                // productive arms get super-sized batches (6Sense's RL
                // allocator pours budget where the hit rate is)
                let scale = 1.0 + 4.0 * arms[idx].q;
                let want = ((self.batch as f64 * scale) as usize).min(cfg.budget - out.len());
                let mut batch: Vec<Ipv6Addr> = Vec::with_capacity(want);
                let mut stale = 0;
                while batch.len() < want && stale < want * 10 + 32 {
                    let a = arms[idx].sample(&mut rng, self.explore); // idx from order: < arms.len()
                    // Integrated dealiasing: never emit into known aliases.
                    if blacklist.contains_addr(a) {
                        stale += 1;
                        continue;
                    }
                    if seen.insert(u128::from(a)) {
                        batch.push(a);
                        stale = 0;
                    } else {
                        stale += 1;
                    }
                }
                if batch.is_empty() {
                    arms[idx].probes += 1e6; // exhausted
                    continue;
                }
                progressed = true;
                let results = oracle.probe_batch(&batch, cfg.proto);
                let mut hits: Vec<Ipv6Addr> = batch
                    .iter()
                    .zip(&results)
                    .filter(|(_, &h)| h)
                    .map(|(&a, _)| a)
                    .collect();

                // Suspiciously hot? Vet the hottest /96es.
                let rate = hits.len() as f64 / batch.len() as f64;
                if rate >= self.alias_trigger && hits.len() >= 4 {
                    let mut prefixes: Vec<Prefix> =
                        hits.iter().map(|&h| Prefix::new(h, 96)).collect();
                    prefixes.sort();
                    prefixes.dedup();
                    for p in prefixes.into_iter().take(4) {
                        if dealiaser.check(oracle, p.network(), cfg.proto) {
                            blacklist.insert(p);
                            hits.retain(|&h| !p.contains(h));
                            let k48 = u128::from(p.network()) >> 80;
                            let n = aliased_per_48.entry(k48).or_insert(0);
                            *n += 1;
                            if *n >= 5 {
                                blacklist.insert(Prefix::new(p.network(), 48));
                            }
                        }
                    }
                }

                let rate = hits.len() as f64 / batch.len() as f64;
                arms[idx].q = 0.4 * arms[idx].q + 0.6 * rate; // idx from order: < arms.len()
                arms[idx].probes += batch.len() as f64;
                // sos-lint: allow(det-float-reduce) whole-number batch sizes; exact in f64 and sequential
                total_probes += batch.len() as f64;
                if prov.is_enabled() {
                    let d = digests.get(idx).copied().unwrap_or(0);
                    for _ in 0..batch.len() {
                        prov.push(idx as u32, d, round);
                    }
                }
                out.extend(batch);
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
        let mut v = Vec::new();
        // four /48s with varying richness
        for site in 1..=4u128 {
            for i in 1..=(site * 8) {
                v.push(Ipv6Addr::from(
                    0x2600_0bad_0000_0000_0000_0000_0000_0000u128 | site << 80 | i,
                ));
            }
        }
        v
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixSense::default().generate(
            &seeds(),
            &GenConfig::new(1500, 10, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1500);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1500);
    }

    #[test]
    fn diversity_share_reaches_cold_arms() {
        // One arm is hyper-responsive; cold arms must still receive probes.
        struct HotSite;
        impl ScanOracle for HotSite {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 80 == 0x2600_0bad_0001u128
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
        let out = SixSense::default().generate(
            &seeds(),
            &GenConfig::new(2000, 11, Protocol::Icmp),
            &mut HotSite,
        );
        for site in 2..=4u128 {
            let n = out
                .iter()
                .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0000u128 | site)
                .count();
            assert!(n > 0, "cold site {site} starved");
        }
    }

    #[test]
    fn integrated_dealiasing_blacklists_aliased_prefixes() {
        // An oracle where one entire /48 answers everything (an alias) —
        // including the dealiaser's random /96 probes. 6Sense must stop
        // emitting into it rather than pour the whole budget there.
        struct AliasWorld;
        impl ScanOracle for AliasWorld {
            fn probe(&mut self, addr: Ipv6Addr, _p: Protocol) -> bool {
                u128::from(addr) >> 80 == 0x2600_0bad_0002u128
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
        let out = SixSense::default().generate(
            &seeds(),
            &GenConfig::new(3000, 12, Protocol::Icmp),
            &mut AliasWorld,
        );
        let in_alias = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0002u128)
            .count();
        assert!(
            (in_alias as f64) < 0.25 * out.len() as f64,
            "aliased /48 absorbed {in_alias}/{} of the budget",
            out.len()
        );
    }

    #[test]
    fn deterministic() {
        let cfg = GenConfig::new(600, 13, Protocol::Icmp);
        let a = SixSense::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        let b = SixSense::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }
}
