//! Property tests for bit-packed region sampling: `Region::sample`,
//! `Region::enumerate` and `Region::cursor` OR free values straight into
//! a cached `u128` base, and must produce exactly the addresses that
//! `Pattern::materialize` (and an independent nybble-array reference)
//! builds from the same values. Driven by a seeded splitmix64 generator,
//! so every run explores the same random patterns.

use std::net::Ipv6Addr;

use tga::{Pattern, Region};
use v6addr::rng::SmallRng;
use v6addr::{Nybbles, SplitMix64, NYBBLES};

const CASES: usize = 200;

/// Random seed sets whose agreement pattern (hence the region's free
/// positions and histograms) varies from case to case.
struct Gen(SplitMix64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n.max(1)
    }

    /// 1–24 seeds sharing a random base; each position is free with
    /// probability 1/4 and then takes one of a few skewed values.
    fn seeds(&mut self) -> Vec<Ipv6Addr> {
        let base = Nybbles::from_addr(Ipv6Addr::from(
            (u128::from(self.u64()) << 64) | u128::from(self.u64()),
        ));
        let free: Vec<usize> = (0..NYBBLES).filter(|_| self.below(4) == 0).collect();
        let n = 1 + self.below(24) as usize;
        (0..n)
            .map(|_| {
                let mut a = base;
                for &pos in &free {
                    let v = if self.below(3) == 0 { self.below(16) } else { self.below(3) };
                    a.set(pos, v as u8);
                }
                a.to_addr()
            })
            .collect()
    }
}

/// Independent reference: pinned nybbles from the pattern, free ones from
/// `values` in ascending position order, through a nybble array.
fn materialize_ref(p: &Pattern, values: &[u8]) -> Ipv6Addr {
    let mut n = Nybbles::from_addr(Ipv6Addr::UNSPECIFIED);
    let mut free = values.iter();
    for (i, slot) in p.fixed.iter().enumerate() {
        n.set(i, slot.unwrap_or_else(|| *free.next().expect("one value per free position")));
    }
    n.to_addr()
}

/// The regions a case exercises: built from seeds, and widened twice.
fn regions(g: &mut Gen) -> Vec<Region> {
    let r = Region::from_seeds(&g.seeds());
    let w1 = r.widened();
    let w2 = w1.as_ref().and_then(Region::widened);
    std::iter::once(r).chain(w1).chain(w2).collect()
}

#[test]
fn sample_equals_materialize_of_the_same_draws() {
    let mut g = Gen(SplitMix64::new(0x5a3b));
    for case in 0..CASES {
        for r in regions(&mut g) {
            let explore = [0.0, 0.06, 0.5][case % 3];
            let mut packed = SmallRng::seed_from_u64(case as u64);
            let mut reference = SmallRng::seed_from_u64(case as u64);
            for _ in 0..16 {
                let got = r.sample(&mut packed, explore);
                let values: Vec<u8> =
                    r.hists().iter().map(|(_, h)| h.sample(&mut reference, explore)).collect();
                assert_eq!(got, r.pattern().materialize(&values), "case {case}");
                assert_eq!(got, materialize_ref(r.pattern(), &values), "case {case}");
            }
        }
    }
}

#[test]
fn enumerate_equals_materialize_over_ranked_values() {
    let mut g = Gen(SplitMix64::new(0xe0e));
    for case in 0..CASES {
        for r in regions(&mut g) {
            let limit = 1 + g.below(300) as usize;
            // Reference: mixed-radix counter over per-dim value ranks
            // (observed values by descending count, stable), low dims
            // fastest, materialized through the pattern.
            let orders: Vec<Vec<u8>> = r
                .hists()
                .iter()
                .map(|(_, h)| {
                    let mut vals: Vec<u8> = (0..16).collect();
                    vals.sort_by_key(|&v| std::cmp::Reverse(h.count(v)));
                    vals
                })
                .collect();
            let mut ranks = vec![0usize; orders.len()];
            let mut want = Vec::new();
            'outer: loop {
                let values: Vec<u8> = ranks.iter().zip(&orders).map(|(&k, o)| o[k]).collect();
                want.push(r.pattern().materialize(&values));
                assert_eq!(want.last(), Some(&materialize_ref(r.pattern(), &values)));
                if want.len() >= limit {
                    break;
                }
                for k in ranks.iter_mut().rev() {
                    *k += 1;
                    if *k < 16 {
                        continue 'outer;
                    }
                    *k = 0;
                }
                break; // space exhausted
            }
            assert_eq!(r.enumerate(limit), want, "case {case}");
            assert_eq!(r.cursor().take(limit).collect::<Vec<_>>(), want, "case {case}");
        }
    }
}

#[test]
fn cursor_exhausts_exactly_the_region_space() {
    let mut g = Gen(SplitMix64::new(0xc0));
    let mut checked = 0;
    while checked < 40 {
        let r = Region::from_seeds(&g.seeds());
        let Some(size) = r.space_size().filter(|&s| s <= 4096) else { continue };
        let all: Vec<Ipv6Addr> = r.cursor().collect();
        assert_eq!(all.len() as u64, size);
        let mut uniq = all.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), all.len(), "no address twice");
        assert!(all.iter().all(|&a| r.pattern().matches(a)));
        checked += 1;
    }
}
