//! Patterns: partially fixed 32-nybble templates with per-position value
//! statistics — the lingua franca of every studied TGA.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;
use v6addr::{nybble_of, Nybbles, NYBBLES};

/// Histogram of nybble values observed at one position.
///
/// The total is maintained alongside the buckets, so a weighted draw
/// ([`ValueHist::sample`], once per free nybble per candidate on the
/// generation hot path) does not re-sum them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueHist {
    counts: [u32; 16],
    total: u32,
}

impl ValueHist {
    /// Record one observation.
    #[inline]
    pub fn add(&mut self, v: u8) {
        self.counts[(v & 0xf) as usize] += 1; // v & 0xf < 16 == counts.len()
        self.total += 1;
    }

    /// Observations of value `v` (low 4 bits used).
    #[inline]
    pub fn count(&self, v: u8) -> u32 {
        self.counts[(v & 0xf) as usize] // v & 0xf < 16 == counts.len()
    }

    /// Total observations.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of distinct observed values.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Observed values, ascending.
    pub fn values(&self) -> Vec<u8> {
        (0u8..16).filter(|&v| self.count(v) > 0).collect()
    }

    /// Weighted draw from the observed distribution; with probability
    /// `explore` draw uniformly from all 16 values instead. Falls back to
    /// uniform when nothing was observed.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng, explore: f64) -> u8 {
        if self.total == 0 || (explore > 0.0 && rng.gen_bool(explore)) {
            return rng.gen_range(0..16);
        }
        let mut x = rng.gen_range(0..self.total);
        for (v, &c) in self.counts.iter().enumerate() {
            if x < c {
                return v as u8;
            }
            x -= c;
        }
        15
    }

    /// Shannon entropy of the observed distribution (bits).
    pub fn entropy(&self) -> f64 {
        let total = self.total;
        if total == 0 {
            return 0.0;
        }
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = f64::from(c) / f64::from(total);
                // sos-lint: allow(det-float-reduce) entropy over a fixed-order histogram array
                h -= p * p.log2();
            }
        }
        h
    }
}

/// A template over the 32 nybbles: `Some(v)` pins a position, `None`
/// leaves it free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Per-position constraint.
    pub fixed: [Option<u8>; NYBBLES],
}

impl Pattern {
    /// The fully free pattern.
    pub fn free() -> Self {
        Pattern {
            fixed: [None; NYBBLES],
        }
    }

    /// The pattern agreeing with `seeds` wherever all of them agree.
    pub fn from_seeds(seeds: &[Ipv6Addr]) -> Self {
        let mut fixed = [None; NYBBLES];
        let Some(first) = seeds.first() else {
            return Pattern { fixed };
        };
        let base = Nybbles::from_addr(*first);
        for (i, slot) in fixed.iter_mut().enumerate() {
            let v = base.get(i);
            if seeds.iter().all(|&s| nybble_of(s, i) == v) {
                *slot = Some(v);
            }
        }
        Pattern { fixed }
    }

    /// Indices of free positions.
    pub fn free_positions(&self) -> Vec<usize> {
        (0..NYBBLES).filter(|&i| self.fixed[i].is_none()).collect() // fixed has NYBBLES slots
    }

    /// Number of free positions.
    pub fn free_count(&self) -> usize {
        self.fixed.iter().filter(|s| s.is_none()).count()
    }

    /// Does `addr` match every pinned position?
    pub fn matches(&self, addr: Ipv6Addr) -> bool {
        self.fixed
            .iter()
            .enumerate()
            .all(|(i, s)| s.map_or(true, |v| nybble_of(addr, i) == v))
    }

    /// The pinned nybbles packed at their address positions (free
    /// positions zero): the base every materialized address ORs its free
    /// values into.
    pub(crate) fn pinned_bits(&self) -> u128 {
        self.fixed
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|v| place(i, v)))
            .fold(0, |bits, n| bits | n)
    }

    /// Materialize an address: pinned positions from the pattern, free
    /// positions from `free_values` (in [`Pattern::free_positions`] order).
    ///
    /// # Panics
    /// Panics if `free_values` is shorter than the number of free positions.
    pub fn materialize(&self, free_values: &[u8]) -> Ipv6Addr {
        let free = (0..NYBBLES).filter(|&i| self.fixed[i].is_none()); // fixed has NYBBLES slots
        // fi < free_values.len(): documented panic contract
        pack_free(self.pinned_bits(), free.enumerate().map(|(fi, pos)| (pos, free_values[fi])))
    }

    /// log₁₆ of the pattern's address-space size (= number of free dims).
    pub fn log16_size(&self) -> usize {
        self.free_count()
    }
}

/// Nybble `v` (low 4 bits) placed at position `pos` of a 128-bit address.
#[inline]
pub(crate) fn place(pos: usize, v: u8) -> u128 {
    u128::from(v & 0xf) << ((NYBBLES - 1 - pos) * 4)
}

/// OR `(position, value)` pairs into `base` — the one bit-packing path
/// behind [`Pattern::materialize`], `Region::sample` and
/// `Region::enumerate`.
#[inline]
pub(crate) fn pack_free(base: u128, free: impl IntoIterator<Item = (usize, u8)>) -> Ipv6Addr {
    Ipv6Addr::from(free.into_iter().fold(base, |bits, (pos, v)| bits | place(pos, v)))
}

/// Per-free-position histograms for a set of addresses under a pattern.
pub fn free_histograms(pattern: &Pattern, addrs: &[Ipv6Addr]) -> Vec<(usize, ValueHist)> {
    pattern
        .free_positions()
        .into_iter()
        .map(|pos| {
            let mut h = ValueHist::default();
            for &a in addrs {
                h.add(nybble_of(a, pos));
            }
            (pos, h)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn pattern_from_agreeing_seeds() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::3")];
        let p = Pattern::from_seeds(&seeds);
        // only the last nybble differs
        assert_eq!(p.free_count(), 1);
        assert_eq!(p.free_positions(), vec![31]);
        assert!(p.matches(a("2001:db8::f")));
        assert!(!p.matches(a("2001:db9::1")));
    }

    #[test]
    fn pattern_from_single_seed_is_fully_fixed() {
        let p = Pattern::from_seeds(&[a("2001:db8::1")]);
        assert_eq!(p.free_count(), 0);
        assert_eq!(p.materialize(&[]), a("2001:db8::1"));
    }

    #[test]
    fn materialize_fills_free_positions_in_order() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::ff")];
        let p = Pattern::from_seeds(&seeds);
        assert_eq!(p.free_positions(), vec![30, 31]);
        assert_eq!(p.materialize(&[0xa, 0xb]), a("2001:db8::ab"));
    }

    #[test]
    fn empty_pattern_is_fully_free() {
        let p = Pattern::from_seeds(&[]);
        assert_eq!(p.free_count(), 32);
        assert!(p.matches(a("::")));
        assert!(p.matches(a("ffff::ffff")));
    }

    #[test]
    fn hist_sampling_respects_distribution() {
        let mut h = ValueHist::default();
        for _ in 0..99 {
            h.add(3);
        }
        h.add(7);
        let mut rng = SmallRng::seed_from_u64(1);
        let draws: Vec<u8> = (0..200).map(|_| h.sample(&mut rng, 0.0)).collect();
        let threes = draws.iter().filter(|&&v| v == 3).count();
        assert!(threes > 180, "{threes}");
        assert!(draws.iter().all(|&v| v == 3 || v == 7));
    }

    #[test]
    fn hist_exploration_leaves_support() {
        let mut h = ValueHist::default();
        h.add(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let draws: Vec<u8> = (0..400).map(|_| h.sample(&mut rng, 0.5)).collect();
        let outside = draws.iter().filter(|&&v| v != 3).count();
        assert!(outside > 50, "exploration must escape the observed set");
    }

    #[test]
    fn hist_empty_samples_uniformly() {
        let h = ValueHist::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(h.sample(&mut rng, 0.0));
        }
        assert!(seen.len() > 12, "uniform fallback covers most values");
    }

    #[test]
    fn hist_entropy_and_stats() {
        let mut h = ValueHist::default();
        assert_eq!(h.entropy(), 0.0);
        h.add(0);
        h.add(1);
        assert!((h.entropy() - 1.0).abs() < 1e-9);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.values(), vec![0, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn free_histograms_count_per_position() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2"), a("2001:db8::12")];
        let p = Pattern::from_seeds(&seeds);
        let hists = free_histograms(&p, &seeds);
        let pos31 = hists.iter().find(|(pos, _)| *pos == 31).unwrap();
        assert_eq!(pos31.1.count(1), 1);
        assert_eq!(pos31.1.count(2), 2);
    }
}
