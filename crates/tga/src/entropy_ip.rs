//! Entropy/IP (Foremski et al., IMC 2016): entropy segmentation plus a
//! conditional segment model.
//!
//! EIP "efficiently generated addresses by extracting patterns in the
//! entropy of seed address nybbles" (§2.1): contiguous nybble positions
//! with similar entropy form *segments*; each segment's observed values
//! are mined, and a Bayesian-network-like chain captures how adjacent
//! segments co-occur. Generation walks the chain, sampling segment values
//! conditioned on the previous segment.
//!
//! EIP's characteristic weakness in the study — orders of magnitude fewer
//! hits than the tree family — emerges naturally: cross-segment sampling
//! recombines values from *different* networks, producing entropy-
//! plausible but mostly nonexistent addresses.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use sos_probe::provenance::{seed_digest, ProvenanceLog};
use sos_probe::ScanOracle;
use v6addr::{addr_set_with_capacity, nybble_of, AddrMap, AddrSet, EntropyProfile};

use crate::{fill_budget_by_mutation, GenConfig, TargetGenerator, TgaId};

/// The Entropy/IP generator.
#[derive(Debug, Clone)]
pub struct EntropyIp {
    /// Entropy-difference threshold for segment boundaries.
    pub segment_threshold: f64,
    /// Segments longer than this many nybbles are chopped (values must
    /// stay machine-word sized).
    pub max_segment_len: usize,
    /// Distinct values kept per segment (the mined "frequent values").
    pub max_values: usize,
    /// Probability of sampling a segment value from outside the chain.
    pub explore: f64,
}

impl Default for EntropyIp {
    fn default() -> Self {
        EntropyIp {
            segment_threshold: 0.40,
            max_segment_len: 8,
            max_values: 64,
            explore: 0.03,
        }
    }
}

/// Mined values (packed nybbles) with counts, most frequent first, and
/// the sum of the kept counts (so a weighted draw does not re-sum them).
struct Weighted {
    values: Vec<(u64, u32)>,
    total: u64,
}

impl Weighted {
    /// Rank `counts` by (count desc, value asc) and keep the top `max`.
    fn mined(counts: AddrMap<u64, u32>, max: usize) -> Weighted {
        let mut values: Vec<(u64, u32)> = counts.into_iter().collect();
        values.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        values.truncate(max);
        Weighted {
            total: values.iter().map(|&(_, c)| u64::from(c)).sum(),
            values,
        }
    }

    /// Count-weighted draw; `total` must be non-zero.
    fn draw(&self, rng: &mut SmallRng) -> u64 {
        let mut x = rng.gen_range(0..self.total);
        for &(v, c) in &self.values {
            if x < u64::from(c) {
                return v;
            }
            x -= u64::from(c);
        }
        self.values[0].0 // unreachable: x < total = Σ counts
    }
}

/// One segment of the model.
struct Segment {
    /// Nybble positions covered.
    range: std::ops::Range<usize>,
    /// Observed values, truncated to the most frequent `max_values`.
    mined: Weighted,
}

impl Segment {
    fn pack(addr: Ipv6Addr, range: &std::ops::Range<usize>) -> u64 {
        let mut v = 0u64;
        for i in range.clone() {
            v = (v << 4) | u64::from(nybble_of(addr, i));
        }
        v
    }

    fn sample_marginal(&self, rng: &mut SmallRng) -> u64 {
        if self.mined.total == 0 {
            return rng.gen::<u64>() & ((1u64 << (4 * self.range.len().min(15))) - 1);
        }
        self.mined.draw(rng)
    }
}

impl TargetGenerator for EntropyIp {
    fn id(&self) -> TgaId {
        TgaId::EntropyIp
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        _oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xe1b);
        if seeds.is_empty() {
            let mut out = Vec::new();
            let mut seen = AddrSet::default();
            fill_budget_by_mutation(&mut out, &mut seen, seeds, cfg.budget, &mut rng, prov);
            return out;
        }
        // Provenance: EIP has no spatial partition — every candidate comes
        // from the one global segment model, so region 0 with the whole
        // seed set's digest is the honest attribution.
        let model_digest = if prov.is_enabled() {
            seed_digest(seeds.iter().copied())
        } else {
            0
        };

        // 1. Entropy profile → segment boundaries (chopped to word size).
        let profile = EntropyProfile::compute(seeds);
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for seg in profile.segments(self.segment_threshold) {
            let mut start = seg.start;
            while seg.end - start > self.max_segment_len {
                ranges.push(start..start + self.max_segment_len);
                start += self.max_segment_len;
            }
            ranges.push(start..seg.end);
        }

        // 2. Mine per-segment frequent values.
        let segments: Vec<Segment> = ranges
            .iter()
            .map(|r| {
                let mut counts: AddrMap<u64, u32> = AddrMap::default();
                for &s in seeds {
                    *counts.entry(Segment::pack(s, r)).or_insert(0) += 1;
                }
                Segment {
                    range: r.clone(),
                    mined: Weighted::mined(counts, self.max_values),
                }
            })
            .collect();

        // 3. Conditional chain between consecutive *informative* segments
        //    (constant segments carry no information; EIP's Bayesian
        //    network links the variable ones). chain[k] holds transitions
        //    from informative segment k to informative segment k+1.
        let informative: Vec<usize> = (0..segments.len())
            .filter(|&i| segments[i].mined.values.len() > 1) // i < segments.len()
            .collect();
        let mut chain: Vec<AddrMap<u64, Weighted>> = Vec::new();
        for w in informative.windows(2) {
            let mut trans: AddrMap<u64, AddrMap<u64, u32>> = AddrMap::default();
            for &s in seeds {
                let a = Segment::pack(s, &segments[w[0]].range); // windows(2) over indices < segments.len()
                let b = Segment::pack(s, &segments[w[1]].range);
                *trans.entry(a).or_default().entry(b).or_insert(0) += 1;
            }
            // sos-lint: allow(det-unordered-iter) collected straight into another map; the order never escapes
            chain.push(trans.into_iter().map(|(k, m)| (k, Weighted::mined(m, self.max_values))).collect());
        }
        // Position of each segment in the informative ordering.
        let mut inf_rank: Vec<Option<usize>> = vec![None; segments.len()];
        for (k, &i) in informative.iter().enumerate() {
            inf_rank[i] = Some(k); // i < segments.len(): informative indexes segments
        }

        // 4. Walk the chain to synthesize addresses.
        let mut out: Vec<Ipv6Addr> = Vec::with_capacity(cfg.budget);
        let mut seen = addr_set_with_capacity(cfg.budget * 2);
        let mut stale = 0usize;
        while out.len() < cfg.budget && stale < cfg.budget * 4 + 4096 {
            let mut prev: Option<u64> = None;
            // Segments tile nybbles 0..32 in order and every value fits its
            // segment's width, so the address is the values shifted in.
            let mut bits = 0u128;
            for (seg, &rank) in segments.iter().zip(&inf_rank) {
                // chain[k-1] maps informative segment k-1's value to a
                // distribution over informative segment k's values.
                let conditional = match (rank, prev) {
                    (Some(k), Some(p)) if k > 0 && !rng.gen_bool(self.explore) => {
                        chain.get(k - 1).and_then(|t| t.get(&p))
                    }
                    _ => None,
                };
                let value = match conditional {
                    Some(dist) if dist.total > 0 => dist.draw(&mut rng),
                    _ => seg.sample_marginal(&mut rng),
                };
                bits = bits.checked_shl(4 * seg.range.len() as u32).unwrap_or(0) | u128::from(value);
                if seg.mined.values.len() > 1 {
                    prev = Some(value);
                }
            }
            if seen.insert(bits) {
                out.push(Ipv6Addr::from(bits));
                prov.push(0, model_digest, 0);
                stale = 0;
            } else {
                stale += 1;
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
        // two networks with distinct low-byte populations
        let mut v = Vec::new();
        for i in 1..=20u128 {
            v.push(Ipv6Addr::from(0x2600_0bad_0006_0000_0000_0000_0000_0000u128 | i));
            v.push(Ipv6Addr::from(0x2a00_0c0f_fee0_0000_0000_0000_0000_0000u128 | (i << 8)));
        }
        v
    }

    #[test]
    fn fills_budget_uniquely() {
        let out = EntropyIp::default().generate(
            &seeds(),
            &GenConfig::new(800, 5, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 800);
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 800);
    }

    #[test]
    fn output_respects_the_low_entropy_prefixes() {
        let out = EntropyIp::default().generate(
            &seeds(),
            &GenConfig::new(400, 5, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        // the model should mostly emit addresses inside the two observed
        // /48-ish prefixes (their nybbles are near-zero entropy)
        let plausible = out
            .iter()
            .filter(|&&a| {
                let hi = u128::from(a) >> 80;
                hi == 0x2600_0bad_0006u128 || hi == 0x2a00_0c0f_fee0u128
            })
            .count();
        assert!(
            plausible as f64 > 0.55 * out.len() as f64,
            "{plausible}/{} inside observed prefixes",
            out.len()
        );
    }

    #[test]
    fn recombination_can_cross_networks() {
        // EIP's weakness: with exploration, segment values recombine across
        // networks. Verify some outputs mix (prefix from one network, IID
        // style from the other) — those would be dead on the real Internet.
        let out = EntropyIp {
            explore: 0.35,
            ..EntropyIp::default()
        }
        .generate(
            &seeds(),
            &GenConfig::new(2000, 6, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        let crossed = out
            .iter()
            .filter(|&&a| {
                let bits = u128::from(a);
                let hi = bits >> 80;
                let low = bits & 0xffff;
                // network A prefix with network B's shifted-IID pattern
                hi == 0x2600_0bad_0006u128 && low & 0xff == 0 && low != 0
            })
            .count();
        assert!(crossed > 0, "expected cross-network recombinations");
    }

    #[test]
    fn deterministic_and_offline() {
        let cfg = GenConfig::new(300, 7, Protocol::Icmp);
        let mut oracle = NullOracle::default();
        let a = EntropyIp::default().generate(&seeds(), &cfg, &mut oracle);
        assert_eq!(ScanOracle::packets_sent(&oracle), 0);
        let b = EntropyIp::default().generate(&seeds(), &cfg, &mut NullOracle::default());
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_seeds() {
        let out = EntropyIp::default().generate(
            &[],
            &GenConfig::new(50, 8, Protocol::Icmp),
            &mut NullOracle::default(),
        );
        assert_eq!(out.len(), 50);
    }
}
