//! 6Graph (Yang et al., 2022): pattern mining with outlier pruning.
//!
//! 6Graph "expanded 6Tree offline, deploying an approach with similar
//! splitting mechanisms to DET" (§2.1): entropy-guided splits build the
//! regions, then each region's seeds are treated as a similarity graph —
//! seeds far (in nybble Hamming distance) from the rest of their region
//! are pruned as outliers before the region's pattern is re-derived.
//! Tighter patterns mean less budget wasted on pattern-breaking noise.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::ProvenanceLog;
use sos_probe::ScanOracle;
use v6addr::Nybbles;

use crate::six_tree::expand_regions;
use crate::space_tree::{build_regions, Region, SplitStrategy};
use crate::{GenConfig, TargetGenerator, TgaId};

/// The 6Graph generator.
#[derive(Debug, Clone)]
pub struct SixGraph {
    /// Stop splitting below this many seeds per leaf.
    pub max_leaf: usize,
    /// Cap on tree leaves.
    pub max_regions: usize,
    /// Outliers are seeds whose mean Hamming distance to their region
    /// exceeds `mean + outlier_sigma · stddev`.
    pub outlier_sigma: f64,
    /// Exploration probability when sampling (lower than 6Tree: pruned
    /// patterns are trusted more).
    pub explore: f64,
}

impl Default for SixGraph {
    fn default() -> Self {
        SixGraph {
            max_leaf: 24,
            max_regions: 1 << 16,
            outlier_sigma: 1.5,
            explore: 0.03,
        }
    }
}

/// Remove seeds that break the region's pattern; returns the kept seeds,
/// or `None` when the region is too small to judge.
fn prune_outliers(seeds: &[Ipv6Addr], sigma: f64) -> Option<Vec<Ipv6Addr>> {
    if seeds.len() < 4 {
        return None;
    }
    let nybs: Vec<Nybbles> = seeds.iter().map(|&a| Nybbles::from_addr(a)).collect();
    // Mean pairwise distance per seed, against a bounded sample of peers
    // (the similarity graph's weighted degree).
    let sample = nybs.len().min(24);
    let dist: Vec<f64> = nybs
        .iter()
        .map(|n| {
            let total: usize = nybs.iter().take(sample).map(|m| n.hamming(m)).sum();
            total as f64 / sample as f64
        })
        .collect();
    // sos-lint: allow(det-float-reduce) dist is a Vec in seed order; reduction order is total
    let mean = dist.iter().sum::<f64>() / dist.len() as f64;
    // sos-lint: allow(det-float-reduce) same fixed Vec order as the mean above
    let var = dist.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / dist.len() as f64;
    let cut = mean + sigma * var.sqrt().max(0.25);
    let kept: Vec<Ipv6Addr> = seeds
        .iter()
        .zip(&dist)
        .filter(|(_, &d)| d <= cut)
        .map(|(&s, _)| s)
        .collect();
    if kept.len() >= 3 {
        Some(kept)
    } else {
        None
    }
}

impl TargetGenerator for SixGraph {
    fn id(&self) -> TgaId {
        TgaId::SixGraph
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x66ea9);
        let raw = build_regions(seeds, SplitStrategy::MinEntropy, self.max_leaf, self.max_regions);
        // Re-derive each region from its pruned seed set.
        let mut regions: Vec<Region> = raw
            .into_iter()
            .map(|r| match prune_outliers(&r.members, self.outlier_sigma) {
                Some(kept) => Region::from_seeds(&kept),
                None => r,
            })
            .filter(|r| r.seed_count > 0)
            .collect();
        expand_regions(&mut regions, seeds, cfg.budget, self.explore, &mut rng, prov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_probe::NullOracle;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn outlier_pruning_drops_the_stray() {
        let mut seeds: Vec<Ipv6Addr> = (1..=10u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        seeds.push(a("2600:bad:1:ffff:dead:beef:1234:5678")); // the stray
        let kept = prune_outliers(&seeds, 1.5).unwrap();
        assert_eq!(kept.len(), 10, "stray pruned");
        assert!(!kept.contains(&a("2600:bad:1:ffff:dead:beef:1234:5678")));
    }

    #[test]
    fn pruning_keeps_homogeneous_regions_whole() {
        let seeds: Vec<Ipv6Addr> = (1..=10u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        let kept = prune_outliers(&seeds, 1.5).unwrap();
        assert_eq!(kept.len(), 10);
    }

    #[test]
    fn tiny_regions_are_not_judged() {
        assert!(prune_outliers(&[a("::1"), a("::2")], 1.5).is_none());
    }

    #[test]
    fn fills_budget_uniquely() {
        let seeds: Vec<Ipv6Addr> = (1..=40u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | (i * 3)))
            .collect();
        let mut g = SixGraph::default();
        let out = g.generate(
            &seeds,
            &GenConfig::new(1500, 9, netmodel::Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 1500);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 1500);
    }

    #[test]
    fn budget_concentrates_in_the_pruned_pattern() {
        // seeds: a dense low-byte subnet plus scattered high-IID noise in
        // the same /64; after pruning, the bulk of the budget must land in
        // the dense low-IID space rather than the noise's huge free space.
        let mut seeds: Vec<Ipv6Addr> = (1..=30u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        for i in 1..=6u128 {
            seeds.push(Ipv6Addr::from(
                0x2600_0bad_0001_0000_0000_0000_0000_0000u128
                    | ((i * 0x1111_2222_3333) << 16)
                    | 0xffff,
            ));
        }
        // budget sized to the pruned pattern's capacity
        let cfg = GenConfig::new(40, 3, netmodel::Protocol::Icmp);
        let out = SixGraph::default().generate(&seeds, &cfg, &mut NullOracle::default());
        let in_dense = out
            .iter()
            .filter(|&&x| {
                u128::from(x) >> 64 == 0x2600_0bad_0001_0000u128
                    && (u128::from(x) as u64) < 0x1_0000_0000
            })
            .count();
        assert!(
            in_dense as f64 > 0.6 * out.len() as f64,
            "{in_dense}/{} in the dense low-IID space",
            out.len()
        );
    }

    #[test]
    fn deterministic() {
        let seeds: Vec<Ipv6Addr> = (1..=20u128)
            .map(|i| Ipv6Addr::from(0x2600_0bad_0001_0000_0000_0000_0000_0000u128 | i))
            .collect();
        let cfg = GenConfig::new(200, 11, netmodel::Protocol::Icmp);
        let a1 = SixGraph::default().generate(&seeds, &cfg, &mut NullOracle::default());
        let a2 = SixGraph::default().generate(&seeds, &cfg, &mut NullOracle::default());
        assert_eq!(a1, a2);
    }
}
