//! 6Gen (Murdock et al., IMC 2017): cluster seeds into tight ranges and
//! enumerate the densest ones.
//!
//! 6Gen "followed with a clustering approach for pattern discovery" (§2.1):
//! seeds that agree on most nybbles form clusters, each cluster defines a
//! nybble *range*, and generation exhaustively enumerates ranges in
//! density order (seeds per unit of range size). Unlike the tree family,
//! 6Gen does not sample — it sweeps ranges systematically, which is why it
//! contributes unique complete-subnet hits in the paper's RQ4 (Figure 6).
//!
//! Clustering here operates at two granularities: per-/64 clusters (the
//! IID ranges) and per-/48 clusters (subnet ranges), enumerated densest
//! first.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::addr_set_with_capacity;

use crate::space_tree::Region;
use crate::{fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// The 6Gen generator.
#[derive(Debug, Clone)]
pub struct SixGen {
    /// Minimum seeds for a /64 cluster to be enumerated on its own.
    pub min_cluster: usize,
    /// Cap on clusters considered.
    pub max_clusters: usize,
}

impl Default for SixGen {
    fn default() -> Self {
        SixGen {
            min_cluster: 2,
            max_clusters: 1 << 17,
        }
    }
}

/// Group addresses by a prefix-length-64 or -48 key.
fn group_by(seeds: &[Ipv6Addr], shift: u32) -> HashMap<u128, Vec<Ipv6Addr>> {
    let mut map: HashMap<u128, Vec<Ipv6Addr>> = HashMap::new();
    for &s in seeds {
        map.entry(u128::from(s) >> shift).or_default().push(s);
    }
    map
}

impl TargetGenerator for SixGen {
    fn id(&self) -> TgaId {
        TgaId::SixGen
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x69e4);

        // Tier 1: /64 clusters (IID ranges). Tier 2: /48 clusters (subnet
        // ranges) for seeds whose /64 cluster is a singleton.
        let mut clusters: Vec<Region> = Vec::new();
        // HashMap iteration order is unstable; sort by key so clustering
        // is deterministic across runs.
        let mut by64: Vec<(u128, Vec<Ipv6Addr>)> = group_by(seeds, 64).into_iter().collect();
        by64.sort_by_key(|(k, _)| *k);
        let mut singles: Vec<Ipv6Addr> = Vec::new();
        for (_, members) in by64 {
            if members.len() >= self.min_cluster {
                clusters.push(Region::from_seeds(&members));
            } else {
                singles.extend(members);
            }
        }
        let mut by48: Vec<(u128, Vec<Ipv6Addr>)> = group_by(&singles, 80).into_iter().collect();
        by48.sort_by_key(|(k, _)| *k);
        for (_, members) in by48 {
            clusters.push(Region::from_seeds(&members));
        }
        clusters.truncate(self.max_clusters);

        // Density order: tightest ranges first (range size = observed
        // value-set product, approximated by the region's free space
        // restricted to observed values).
        let range_size = |r: &Region| -> f64 {
            r.hists()
                .iter()
                .map(|(_, h)| (h.distinct().max(1) as f64).min(16.0))
                // sos-lint: allow(det-float-reduce) hists is a Vec; iteration order is total
                .product::<f64>()
        };
        clusters.sort_by(|a, b| {
            let da = a.seed_count as f64 / range_size(a);
            let db = b.seed_count as f64 / range_size(b);
            db.total_cmp(&da)
        });

        // Provenance: cluster index in density order, digest of the
        // cluster's member seeds, round = sweep pass.
        let digests: Vec<u32> = if prov.is_enabled() {
            clusters.iter().map(|c| seed_digest(c.members.iter().copied())).collect()
        } else {
            Vec::new()
        };

        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen = addr_set_with_capacity(cfg.budget * 2);

        // Exhaustive sweeps with a growing per-cluster horizon: the first
        // shallow pass touches every cluster the budget can reach in
        // density order; later passes push the enumeration deeper into
        // adjacent values of the densest ranges.
        let mut horizon = 16usize;
        // A cluster whose entire range has been swept yields nothing new
        // on later passes; track that, or large budgets re-enumerate every
        // exhausted cluster on every pass (quadratic in the budget).
        let mut swept = vec![false; clusters.len()];
        for pass in 0..8 {
            if out.len() >= cfg.budget {
                break;
            }
            for (ci, c) in clusters.iter().enumerate() {
                if out.len() >= cfg.budget {
                    break;
                }
                if swept[ci] { // ci < clusters.len() == swept.len()
                    continue;
                }
                // 6Gen is depth-first in density order: diffuse clusters
                // (stray singletons grouped at /48) only see budget after
                // the dense ranges are exhausted.
                let density = c.seed_count as f64 / range_size(c);
                if pass < 3 && density < 1e-3 {
                    continue;
                }
                let limit = horizon.min((cfg.budget - out.len()) * 2 + 16);
                let enumerated = c.enumerate(limit);
                if enumerated.len() < limit {
                    swept[ci] = true; // range smaller than the horizon
                }
                for a in enumerated {
                    if seen.insert(u128::from(a)) {
                        out.push(a);
                        prov.push(ci as u32, digests.get(ci).copied().unwrap_or(0), pass as u16);
                        if out.len() >= cfg.budget {
                            break;
                        }
                    }
                }
            }
            horizon *= 8;
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

    fn subnet_seeds() -> Vec<Ipv6Addr> {
        // a /64 with hosts ::1, ::2, ::3 observed (of a real ::1..::30)
        [1u128, 2, 3]
            .iter()
            .map(|&i| Ipv6Addr::from(0x2600_0bad_0003_0000_0000_0000_0000_0000u128 | i))
            .collect()
    }

    #[test]
    fn enumerates_the_complete_low_byte_range() {
        let out = SixGen::default().generate(
            &subnet_seeds(),
            &GenConfig::new(64, 1, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // The full ::0..::f sweep of the last nybble must be present — the
        // systematic completeness that gives 6Gen its unique hits.
        for host in 0..16u128 {
            let want = Ipv6Addr::from(0x2600_0bad_0003_0000_0000_0000_0000_0000u128 | host);
            assert!(out.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = SixGen::default().generate(
            &subnet_seeds(),
            &GenConfig::new(3000, 1, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 3000);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 3000);
    }

    #[test]
    fn densest_cluster_enumerated_first() {
        let mut seeds = subnet_seeds(); // dense cluster
        // sparse cluster: two far-apart IIDs in another /64
        seeds.push("2600:bad:4::1111:0:1".parse().unwrap());
        seeds.push("2600:bad:4::ffff:0:9".parse().unwrap());
        let out = SixGen::default().generate(
            &seeds,
            &GenConfig::new(20, 2, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let dense_hits = out
            .iter()
            .filter(|&&a| u128::from(a) >> 64 == 0x2600_0bad_0003_0000u128)
            .count();
        assert!(
            dense_hits > out.len() / 2,
            "dense cluster first: {dense_hits}/{}",
            out.len()
        );
    }

    #[test]
    fn offline_and_deterministic() {
        let mut oracle = NullOracle::default();
        let cfg = GenConfig::new(500, 3, Protocol::Icmp);
        let a = SixGen::default().generate(&subnet_seeds(), &cfg, &mut oracle);
        assert_eq!(ScanOracle::packets_sent(&oracle), 0);
        let b = SixGen::default().generate(&subnet_seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn singleton_seeds_cluster_at_subnet_level() {
        // single seeds in sibling /64s of one /48: the /48-level cluster
        // should generate into both observed and nearby subnets
        let seeds: Vec<Ipv6Addr> = (0..6u128)
            .map(|s| Ipv6Addr::from(0x2600_0bad_0005_0000_0000_0000_0000_0000u128 | s << 64 | 1))
            .collect();
        let out = SixGen::default().generate(
            &seeds,
            &GenConfig::new(200, 4, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let in_site = out
            .iter()
            .filter(|&&a| u128::from(a) >> 80 == 0x2600_0bad_0005u128)
            .count();
        assert!(in_site > 100, "{in_site} in the /48 site");
    }
}
