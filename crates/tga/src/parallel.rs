//! Within-round worker fan-out for the online tree TGAs (6Scan, DET).
//!
//! Both papers' round structure — pick a slate of regions, sample a batch
//! from each, probe, update — makes every region batch an independent unit
//! of work *within* a round. This module parallelizes exactly that unit
//! while keeping the emitted candidate stream **bit-identical at any
//! worker count** (W-invariance), via a two-phase round:
//!
//! 1. **Propose (parallel).** Every selected region samples its batch
//!    against the *round-start snapshot* of the global `seen` set, into a
//!    thread-local buffer with a local duplicate prefilter. Each unit
//!    draws from its own RNG stream derived by [`stream_seed`] from the
//!    run seed, the region's member digest, the round number, and the
//!    slot index — never from a shared RNG — so a unit's output depends
//!    only on its inputs, not on scheduling.
//! 2. **Commit (sequential).** Proposals are merged in slot order through
//!    [`commit_proposals`], which performs the authoritative dedup against
//!    `seen` (dropping cross-slot collisions deterministically) and caps
//!    at the remaining budget.
//!
//! Phase 1 never observes phase-2 state, and phase 2 is a pure fold over
//! the slot-ordered proposals, so the worker count can only change *when*
//! a proposal is computed — never its contents or its place in the stream.
//! Exhaustion/widening decisions key off *empty phase-1 proposals* (also
//! worker-invariant) rather than empty commits.
//!
//! Every fan-out goes through [`sos_obs::par::map`], which records its
//! scheduling statistics under the `gen_parallel` label, inside a
//! `gen_parallel` span, so traces and flame profiles show the lanes
//! exactly like `scan_parallel` does for the probe path.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;
use v6addr::{addr_set_with_capacity, splitmix64, AddrSet};

use crate::space_tree::Region;

/// Span + stats label for all generation fan-outs.
pub const GEN_PARALLEL: &str = "gen_parallel";

/// Derive the RNG stream seed for one sampling unit.
///
/// The recipe is a splitmix64 chain (the same mixer as the worldgen
/// plans) over the generator's run seed, the region's order-invariant
/// member digest, the round number, and the slot index. Chaining (rather than a flat XOR) prevents field
/// cancellation; folding in the slot matters because ε-greedy selection
/// can legitimately pick the *same region twice in one round* — with one
/// stream per (region, round) both slots would propose identical batches
/// and the second would falsely look exhausted.
pub fn stream_seed(seed: u64, region_digest: u32, round: usize, slot: usize) -> u64 {
    let mut s = splitmix64(seed ^ 0x6e5c_a11e_0d5e_ed50);
    s = splitmix64(s ^ u64::from(region_digest));
    s = splitmix64(s ^ round as u64);
    splitmix64(s ^ slot as u64)
}

/// One region batch to sample — the unit of parallel work.
pub struct SampleUnit<'a> {
    /// The region to draw from.
    pub region: &'a Region,
    /// Batch size to aim for (the commit phase applies the budget cap).
    pub want: usize,
    /// Within-region exploration probability ([`Region::sample`]).
    pub explore: f64,
    /// Private RNG stream seed, from [`stream_seed`].
    pub stream: u64,
}

/// Phase 1: sample every unit against the round-start `seen` snapshot,
/// fanned out over `workers` threads, returning proposals in slot order.
///
/// Each proposal is internally duplicate-free and disjoint from `seen`,
/// but proposals may collide *with each other*; [`commit_proposals`]
/// resolves those collisions in slot order. Output is identical for any
/// `workers` value.
pub fn sample_regions_par(
    units: &[SampleUnit<'_>],
    seen: &AddrSet,
    workers: usize,
) -> Vec<Vec<Ipv6Addr>> {
    if units.is_empty() {
        return Vec::new();
    }
    let _span = sos_obs::span(GEN_PARALLEL);
    sos_obs::par::map(GEN_PARALLEL, units.iter().collect(), workers, |u| sample_unit(u, seen))
}

/// Sample one unit: the same draw-until-stale loop the sequential TGAs
/// ran, against an immutable `seen` snapshot plus a local prefilter.
fn sample_unit(u: &SampleUnit<'_>, seen: &AddrSet) -> Vec<Ipv6Addr> {
    let mut rng = SmallRng::seed_from_u64(u.stream);
    let mut local = addr_set_with_capacity(u.want * 2);
    let mut proposal: Vec<Ipv6Addr> = Vec::with_capacity(u.want);
    let mut stale = 0usize;
    while proposal.len() < u.want && stale < u.want * 8 + 16 {
        let a = u.region.sample(&mut rng, u.explore);
        let bits = u128::from(a);
        if !seen.contains(&bits) && local.insert(bits) {
            proposal.push(a);
            stale = 0;
        } else {
            stale += 1;
        }
    }
    proposal
}

/// Phase 2: commit one slot's proposal against the authoritative `seen`
/// set — the sequential half of the round. Drops addresses another slot
/// already committed this round and stops at `room` (remaining budget),
/// so `seen` never holds an address that was not emitted.
pub fn commit_proposals(
    proposal: &[Ipv6Addr],
    seen: &mut AddrSet,
    room: usize,
) -> Vec<Ipv6Addr> {
    let mut batch: Vec<Ipv6Addr> = Vec::with_capacity(proposal.len().min(room));
    for &a in proposal {
        if batch.len() >= room {
            break;
        }
        if seen.insert(u128::from(a)) {
            batch.push(a);
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space_tree::{build_regions, SplitStrategy};

    fn regions() -> Vec<Region> {
        let seeds: Vec<Ipv6Addr> = (1..=48u128)
            .map(|i| Ipv6Addr::from(0x2600_0abc_0001_0000_0000_0000_0000_0000u128 | (i % 3) << 64 | (i * 7 + 1)))
            .collect();
        build_regions(&seeds, SplitStrategy::Leftmost, 8, 1 << 10)
    }

    #[test]
    fn proposals_are_worker_invariant() {
        let regions = regions();
        let mut seen = AddrSet::default();
        // Pre-populate `seen` so the snapshot filter is exercised.
        let mut rng = SmallRng::seed_from_u64(7);
        for r in &regions {
            for _ in 0..8 {
                seen.insert(u128::from(r.sample(&mut rng, 0.1)));
            }
        }
        let units: Vec<SampleUnit<'_>> = regions
            .iter()
            .enumerate()
            .map(|(slot, region)| SampleUnit {
                region,
                want: 32,
                explore: 0.06,
                stream: stream_seed(0xBEEF, slot as u32 * 17, 3, slot),
            })
            .collect();
        let base = sample_regions_par(&units, &seen, 1);
        for workers in [2, 4, 8] {
            assert_eq!(sample_regions_par(&units, &seen, workers), base, "workers={workers}");
        }
        // proposals avoid the snapshot and are internally unique
        for p in &base {
            let mut uniq: Vec<u128> = p.iter().map(|&a| u128::from(a)).collect();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), p.len());
            assert!(p.iter().all(|a| !seen.contains(&u128::from(*a))));
        }
    }

    #[test]
    fn stream_seeds_differ_by_every_field() {
        let base = stream_seed(1, 2, 3, 4);
        assert_ne!(base, stream_seed(5, 2, 3, 4), "run seed");
        assert_ne!(base, stream_seed(1, 9, 3, 4), "region digest");
        assert_ne!(base, stream_seed(1, 2, 7, 4), "round");
        assert_ne!(base, stream_seed(1, 2, 3, 5), "slot: ε repeats need distinct streams");
        assert_eq!(base, stream_seed(1, 2, 3, 4), "pure function");
    }

    #[test]
    fn commit_drops_cross_slot_duplicates_and_caps_room() {
        let a = |i: u128| Ipv6Addr::from(0x2600u128 << 112 | i);
        let mut seen = AddrSet::default();
        let first = commit_proposals(&[a(1), a(2), a(3)], &mut seen, 10);
        assert_eq!(first, vec![a(1), a(2), a(3)]);
        // overlap with slot one resolves in slot order; room caps at 1
        let second = commit_proposals(&[a(2), a(4), a(5)], &mut seen, 1);
        assert_eq!(second, vec![a(4)]);
        // the capped-out address (5) was NOT inserted into `seen`
        assert!(!seen.contains(&u128::from(a(5))));
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn empty_units_short_circuit() {
        let seen = AddrSet::default();
        assert!(sample_regions_par(&[], &seen, 8).is_empty());
    }
}
