//! 6Tree (Liu et al., 2019): divisive hierarchical space tree expansion.
//!
//! 6Tree "creates an address tree, splitting hierarchically on address
//! nybbles from the higher granularity prefixes down. It then generates
//! addresses by expanding variable nodes" (§2.1). It is an offline
//! generator: regions are ranked by seed density and their free dimensions
//! expanded — exhaustively for small regions, by pattern-weighted sampling
//! for large ones — with budget allocated proportionally to density.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{addr_set_with_capacity, AddrSet};

use crate::space_tree::{build_regions, Region, SplitStrategy};
use crate::{fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// The 6Tree generator.
#[derive(Debug, Clone)]
pub struct SixTree {
    /// Stop splitting below this many seeds per leaf.
    pub max_leaf: usize,
    /// Cap on tree leaves.
    pub max_regions: usize,
    /// Exploration probability when sampling large regions.
    pub explore: f64,
}

impl Default for SixTree {
    fn default() -> Self {
        SixTree {
            max_leaf: 16,
            max_regions: 1 << 16,
            explore: 0.06,
        }
    }
}

/// Shared expansion routine for the offline tree family: walk regions in
/// density order, exhaustively enumerating small ones and sampling large
/// ones, until `budget` unique candidates exist.
///
/// Provenance: each emitted candidate is tagged with its region's index
/// in density order, a digest of the region's member seeds, and the
/// expansion pass (0 = quota pass, 1.. = round-robin passes). The log is
/// write-only from the emit path, so tagging cannot perturb the stream.
pub(crate) fn expand_regions(
    regions: &mut [Region],
    seeds: &[Ipv6Addr],
    budget: usize,
    explore: f64,
    rng: &mut SmallRng,
    prov: &mut ProvenanceLog,
) -> Vec<Ipv6Addr> {
    regions.sort_by(|a, b| b.density().total_cmp(&a.density()));
    let total_seeds: usize = regions.iter().map(|r| r.seed_count).sum::<usize>().max(1);
    let digests: Vec<u32> = if prov.is_enabled() {
        regions.iter().map(|r| seed_digest(r.members.iter().copied())).collect()
    } else {
        Vec::new()
    };
    let digest_of = |i: usize| digests.get(i).copied().unwrap_or(0);

    let mut out: Vec<Ipv6Addr> = Vec::with_capacity(budget);
    let mut seen = addr_set_with_capacity(budget * 2);

    // Pass 1: density-proportional quotas.
    for (ri, r) in regions.iter().enumerate() {
        if out.len() >= budget {
            break;
        }
        let quota = ((budget * r.seed_count) / total_seeds).max(4);
        let quota = quota.min(budget - out.len());
        emit_from_region(r, quota, explore, rng, &mut out, &mut seen, prov, ri as u32, digest_of(ri), 0);
    }
    // Pass 2: round-robin over the densest regions for leftover budget.
    let mut pass = 0;
    while out.len() < budget && pass < 8 {
        pass += 1;
        for (ri, r) in regions.iter().take(512).enumerate() {
            if out.len() >= budget {
                break;
            }
            let quota = ((budget - out.len()) / 64).clamp(1, 256);
            emit_from_region(
                r, quota, (explore * 2.0).min(0.5), rng, &mut out, &mut seen,
                prov, ri as u32, digest_of(ri), pass as u16,
            );
        }
    }
    fill_budget_by_mutation(&mut out, &mut seen, seeds, budget, rng, prov);
    out
}

/// Emit up to `quota` fresh addresses from one region, tagging each with
/// `(region, digest, round)` provenance.
#[allow(clippy::too_many_arguments)]
fn emit_from_region(
    r: &Region,
    quota: usize,
    explore: f64,
    rng: &mut SmallRng,
    out: &mut Vec<Ipv6Addr>,
    seen: &mut AddrSet,
    prov: &mut ProvenanceLog,
    region: u32,
    digest: u32,
    round: u16,
) {
    if quota == 0 {
        return;
    }
    match r.space_size() {
        // Small space: systematic enumeration covers the whole region.
        Some(size) if size <= quota as u64 * 4 => {
            let mut emitted = 0;
            for a in r.enumerate(quota * 4) {
                if seen.insert(u128::from(a)) {
                    out.push(a);
                    prov.push(region, digest, round);
                    emitted += 1;
                    if emitted >= quota {
                        break;
                    }
                }
            }
        }
        _ => {
            let mut emitted = 0;
            let mut stale = 0;
            while emitted < quota && stale < quota * 8 + 32 {
                let a = r.sample(rng, explore);
                if seen.insert(u128::from(a)) {
                    out.push(a);
                    prov.push(region, digest, round);
                    emitted += 1;
                    stale = 0;
                } else {
                    stale += 1;
                }
            }
        }
    }
}

impl TargetGenerator for SixTree {
    fn id(&self) -> TgaId {
        TgaId::SixTree
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x67ee);
        let mut regions = build_regions(seeds, SplitStrategy::Leftmost, self.max_leaf, self.max_regions);
        expand_regions(&mut regions, seeds, cfg.budget, self.explore, &mut rng, prov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_probe::NullOracle;

    fn dense_seeds() -> Vec<Ipv6Addr> {
        // three /64 subnets with low-byte hosts 1..=12
        let mut v = Vec::new();
        for subnet in [0x10u128, 0x20, 0x30] {
            for host in 1..=12u128 {
                v.push(Ipv6Addr::from(
                    0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (subnet << 64) | host,
                ));
            }
        }
        v
    }

    #[test]
    fn fills_budget_with_unique_addresses() {
        let mut g = SixTree::default();
        let out = g.generate(
            &dense_seeds(),
            &GenConfig::new(2000, 7, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 2000);
        let mut uniq: Vec<u128> = out.iter().map(|&a| u128::from(a)).collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 2000);
    }

    #[test]
    fn expands_the_seed_subnets_first() {
        let seeds = dense_seeds();
        let mut g = SixTree::default();
        let out = g.generate(
            &seeds,
            &GenConfig::new(300, 7, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // most generated addresses stay inside the seeds' /48
        let in_site = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0001u128)
            .count();
        assert!(
            in_site as f64 > 0.7 * out.len() as f64,
            "{in_site}/{} inside the site",
            out.len()
        );
        // and it discovers low-byte siblings beyond the observed 12 hosts
        let sibling = Ipv6Addr::from(
            0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (0x10u128 << 64) | 0xd,
        );
        assert!(out.contains(&sibling), "sibling ::d should be generated");
    }

    #[test]
    fn deterministic_given_seed() {
        let seeds = dense_seeds();
        let mut g1 = SixTree::default();
        let mut g2 = SixTree::default();
        let cfg = GenConfig::new(500, 42, netmodel::Protocol::Icmp);
        let a = g1.generate(&seeds, &cfg, &mut NullOracle::default());
        let b = g2.generate(&seeds, &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn offline_generator_never_probes() {
        let mut g = SixTree::default();
        let mut oracle = NullOracle::default();
        g.generate(
            &dense_seeds(),
            &GenConfig::new(100, 1, netmodel::Protocol::Icmp),
            &mut oracle,
        );
        assert_eq!(sos_probe::ScanOracle::packets_sent(&oracle), 0);
    }

    #[test]
    fn empty_seeds_still_fill_budget() {
        let mut g = SixTree::default();
        let out = g.generate(
            &[],
            &GenConfig::new(64, 1, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 64);
    }
}
