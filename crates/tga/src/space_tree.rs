//! The divisive hierarchical space tree shared by the tree-family TGAs.
//!
//! 6Tree introduced the construction (§2.1): recursively split the seed set
//! on a nybble position until leaves are small, producing *regions* —
//! patterns with pinned high nybbles and free low dimensions. 6Scan and
//! 6Hit inherit 6Tree's leftmost-variable split; DET replaced it with an
//! entropy-guided split ("updating 6Tree's splitting heuristic to an
//! entropy-based approach"); 6Graph uses the same entropy splits offline.

use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;
use v6addr::{nybble_of, NYBBLES};

use crate::pattern::{free_histograms, pack_free, Pattern, ValueHist};

/// How a node picks its split dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Leftmost (highest-order) position with more than one value —
    /// 6Tree / 6Scan / 6Hit.
    Leftmost,
    /// The variable position with *minimum* entropy — DET / 6Graph —
    /// which peels off near-constant structure first.
    MinEntropy,
}

/// A leaf region of the space tree.
///
/// The template and its histograms are fixed at construction
/// ([`Region::from_seeds`], [`Region::widened`]), which is also where the
/// pinned nybbles are packed into the `u128` base that every sampled or
/// enumerated address ORs its free values into.
#[derive(Debug, Clone)]
pub struct Region {
    /// The pinned/free template.
    pattern: Pattern,
    /// Value histograms at the free positions (ascending), from this
    /// region's seeds.
    hists: Vec<(usize, ValueHist)>,
    /// `pattern.pinned_bits()`, cached.
    base: u128,
    /// Number of seeds that landed in the region.
    pub seed_count: usize,
    /// The member seeds themselves (regions partition the input, so the
    /// total memory across regions is one copy of the seed list).
    pub members: Vec<Ipv6Addr>,
}

impl Region {
    /// Build a region directly from its member seeds.
    pub fn from_seeds(seeds: &[Ipv6Addr]) -> Region {
        let pattern = Pattern::from_seeds(seeds);
        Region {
            hists: free_histograms(&pattern, seeds),
            base: pattern.pinned_bits(),
            seed_count: seeds.len(),
            pattern,
            members: seeds.to_vec(),
        }
    }

    /// The pinned/free template.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// `(position, histogram)` for every free position, ascending.
    pub fn hists(&self) -> &[(usize, ValueHist)] {
        &self.hists
    }

    /// Seed density score: seeds per log-space. Larger = denser = more
    /// promising. (Equivalent to `ln(count) − free_dims·ln 16`.)
    pub fn density(&self) -> f64 {
        if self.seed_count == 0 {
            return f64::NEG_INFINITY;
        }
        (self.seed_count as f64).ln() - self.hists.len() as f64 * 16f64.ln()
    }

    /// Sample one candidate address: free positions drawn from the
    /// region's histograms with exploration probability `explore`, in
    /// ascending position order, each ORed straight into the cached base
    /// (this runs once per draw on the generation hot path).
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng, explore: f64) -> Ipv6Addr {
        pack_free(self.base, self.hists.iter().map(|(pos, h)| (*pos, h.sample(rng, explore))))
    }

    /// Widen the region by freeing its lowest-order fixed nybble — the
    /// "expand variable dimensions upward" step online tree TGAs use when
    /// a leaf's space is exhausted. The freed dimension gets an *empty*
    /// histogram (uniform sampling): the members carry no information
    /// about it beyond the single value they shared.
    ///
    /// Returns `None` once expansion would cross into the routing prefix
    /// (positions above nybble 12, the /48 boundary).
    pub fn widened(&self) -> Option<Region> {
        let pos = (12..NYBBLES).rev().find(|&i| self.pattern.fixed[i].is_some())?; // i < NYBBLES == fixed.len()
        let mut pattern = self.pattern;
        pattern.fixed[pos] = None; // pos < NYBBLES from find above
        let mut hists = free_histograms(&pattern, &self.members);
        if let Some(h) = hists.iter_mut().find(|(p, _)| *p == pos) {
            h.1 = ValueHist::default();
        }
        Some(Region {
            base: pattern.pinned_bits(),
            pattern,
            hists,
            seed_count: self.seed_count,
            members: self.members.clone(),
        })
    }

    /// Size of the region's free space, if it fits in a `u64`
    /// (16 free dims or fewer).
    pub fn space_size(&self) -> Option<u64> {
        let dims = self.hists.len() as u32;
        if dims <= 15 {
            Some(16u64.pow(dims))
        } else {
            None
        }
    }

    /// Systematically enumerate up to `limit` addresses in the region
    /// (at least one), visiting per-dimension values in observed-frequency
    /// order first (so the most pattern-consistent candidates come out
    /// first). The first `limit` items of [`Region::cursor`].
    pub fn enumerate(&self, limit: usize) -> Vec<Ipv6Addr> {
        self.cursor().take(limit.max(1)).collect()
    }

    /// The lazy form of [`Region::enumerate`]: the same sequence, one
    /// address at a time, ending once the region's space is exhausted.
    pub fn cursor(&self) -> RegionCursor {
        RegionCursor {
            base: self.base,
            // Per-dim value order: observed (by descending count), then the rest.
            dims: self
                .hists
                .iter()
                .map(|(pos, h)| {
                    let mut order: [u8; 16] = std::array::from_fn(|v| v as u8);
                    order.sort_by_key(|&v| std::cmp::Reverse(h.count(v)));
                    (*pos, order)
                })
                .collect(),
            ranks: vec![0; self.hists.len()],
            done: false,
        }
    }
}

/// Iterator behind [`Region::enumerate`]: a mixed-radix counter over
/// per-dimension value *ranks*, low dims advancing fastest so low-order
/// nybbles sweep first (the low-byte pattern). Owns its state, so callers
/// can park it next to the region and resume later.
#[derive(Debug, Clone)]
pub struct RegionCursor {
    base: u128,
    /// Free position and its value order, per dimension (ascending).
    dims: Vec<(usize, [u8; 16])>,
    /// Current rank per dimension; each stays below 16.
    ranks: Vec<u8>,
    done: bool,
}

impl Iterator for RegionCursor {
    type Item = Ipv6Addr;

    fn next(&mut self) -> Option<Ipv6Addr> {
        if self.done {
            return None;
        }
        let addr = pack_free(
            self.base,
            // r < 16 == order.len()
            self.dims.iter().zip(&self.ranks).map(|((pos, order), &r)| (*pos, order[usize::from(r)])),
        );
        // Increment, least-significant dimension first; carrying out of
        // the top dimension means the space is exhausted.
        self.done = true;
        for r in self.ranks.iter_mut().rev() {
            *r += 1;
            if *r < 16 {
                self.done = false;
                break;
            }
            *r = 0;
        }
        Some(addr)
    }
}

/// Recursively build the leaf regions of the space tree.
///
/// - `max_leaf`: stop splitting below this many seeds;
/// - `max_regions`: hard cap on produced regions (remaining subtrees
///   become leaves as-is).
pub fn build_regions(
    seeds: &[Ipv6Addr],
    strategy: SplitStrategy,
    max_leaf: usize,
    max_regions: usize,
) -> Vec<Region> {
    let mut out = Vec::new();
    if seeds.is_empty() {
        return out;
    }
    let mut work: Vec<Vec<Ipv6Addr>> = vec![seeds.to_vec()];
    while let Some(group) = work.pop() {
        // A split can add up to 16 pending groups; reserve headroom so the
        // final region count never exceeds the cap.
        if out.len() + work.len() + 16 >= max_regions || group.len() <= max_leaf {
            out.push(Region::from_seeds(&group));
            continue;
        }
        match pick_split(&group, strategy) {
            None => out.push(Region::from_seeds(&group)), // all identical
            Some(dim) => {
                let mut buckets: Vec<Vec<Ipv6Addr>> = vec![Vec::new(); 16];
                for &a in &group {
                    buckets[nybble_of(a, dim) as usize].push(a); // nybble_of < 16 == buckets.len()
                }
                for b in buckets.into_iter().filter(|b| !b.is_empty()) {
                    work.push(b);
                }
            }
        }
    }
    out
}

/// [`build_regions`] with per-subtree worker fan-out — the tree-build
/// half of the `gen_parallel` lanes (DET rebuilds its tree online, so
/// construction is on the generation hot path, not just startup).
///
/// The seed set is first expanded breadth-first into at most ~48
/// independent subtree groups (always splitting the largest splittable
/// group, so subtree sizes stay balanced); each subtree then runs the
/// sequential [`build_regions`] under a proportional share of
/// `max_regions` (floor apportionment plus one guaranteed region per
/// group keeps the total under the cap). Subtree outputs are concatenated
/// in frontier order, so the region list is **identical at any worker
/// count**.
///
/// The region *order* differs from [`build_regions`] (breadth-first
/// frontier vs depth-first stack), so this is a separate entry point:
/// callers pinned to historical candidate streams keep `build_regions`.
// sos-lint: deterministic-root region list must be identical at any worker count
pub fn build_regions_par(
    seeds: &[Ipv6Addr],
    strategy: SplitStrategy,
    max_leaf: usize,
    max_regions: usize,
    workers: usize,
) -> Vec<Region> {
    if seeds.is_empty() {
        return Vec::new();
    }
    let fan_target = 48usize.min(max_regions);
    let mut frontier: Vec<Vec<Ipv6Addr>> = vec![seeds.to_vec()];
    // A split can add up to 16 groups; stop expanding when that headroom
    // is gone (also covers tiny max_regions: the loop never runs).
    while frontier.len() + 16 <= fan_target {
        // Candidates in size order (largest first, index tiebreak): the
        // first one that actually splits becomes this step's subdivision.
        let mut cand: Vec<usize> = (0..frontier.len())
            .filter(|&i| frontier[i].len() > max_leaf) // i < frontier.len()
            .collect();
        cand.sort_by_key(|&i| (std::cmp::Reverse(frontier[i].len()), i)); // i < frontier.len()
        let mut found = None;
        for i in cand {
            if let Some(dim) = pick_split(&frontier[i], strategy) { // i < frontier.len()
                found = Some((i, dim));
                break;
            }
        }
        let Some((pos, dim)) = found else { break };
        let group = frontier.remove(pos); // pos < frontier.len() from the scan above
        let mut buckets: Vec<Vec<Ipv6Addr>> = vec![Vec::new(); 16];
        for &a in &group {
            buckets[nybble_of(a, dim) as usize].push(a); // nybble_of < 16 == buckets.len()
        }
        // Replace the group with its non-empty buckets in place, so the
        // frontier keeps a stable left-to-right address order.
        for (insert_at, b) in (pos..).zip(buckets.into_iter().filter(|b| !b.is_empty())) {
            frontier.insert(insert_at, b); // insert_at <= frontier.len() by construction
        }
    }
    let total: usize = frontier.iter().map(Vec::len).sum::<usize>().max(1);
    let pool = max_regions.saturating_sub(frontier.len());
    let groups: Vec<(Vec<Ipv6Addr>, usize)> = frontier
        .into_iter()
        .map(|g| {
            let cap = 1 + pool * g.len() / total;
            (g, cap)
        })
        .collect();
    let _span = sos_obs::span(crate::parallel::GEN_PARALLEL);
    let parts = sos_obs::par::map(crate::parallel::GEN_PARALLEL, groups, workers, |(g, cap)| {
        build_regions(&g, strategy, max_leaf, cap)
    });
    parts.into_iter().flatten().collect()
}

/// Choose the split dimension, or `None` when every position is constant.
fn pick_split(group: &[Ipv6Addr], strategy: SplitStrategy) -> Option<usize> {
    let mut hists = [ValueHist::default(); NYBBLES];
    for &a in group {
        for (i, h) in hists.iter_mut().enumerate() {
            h.add(nybble_of(a, i));
        }
    }
    match strategy {
        SplitStrategy::Leftmost => (0..NYBBLES).find(|&i| hists[i].distinct() > 1), // i < NYBBLES == hists.len()
        SplitStrategy::MinEntropy => (0..NYBBLES)
            .filter(|&i| hists[i].distinct() > 1) // i < NYBBLES == hists.len()
            .min_by(|&a, &b| {
                hists[a] // a, b < hists.len()
                    .entropy()
                    .total_cmp(&hists[b].entropy()) // b < hists.len()
                    .then(a.cmp(&b))
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// Seeds across two /48 sites with low-byte hosts.
    fn two_site_seeds() -> Vec<Ipv6Addr> {
        let mut v = Vec::new();
        for site in [0x1u128, 0x2] {
            for host in 1..=20u128 {
                v.push(Ipv6Addr::from(
                    0x2600_0100_0000_0000_0000_0000_0000_0000u128 | (site << 80) | host,
                ));
            }
        }
        v
    }

    #[test]
    fn regions_partition_the_seeds() {
        let seeds = two_site_seeds();
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024);
        let total: usize = regions.iter().map(|r| r.seed_count).sum();
        assert_eq!(total, seeds.len());
        // every seed matches exactly one region's pattern
        for &s in &seeds {
            let matching = regions.iter().filter(|r| r.pattern.matches(s)).count();
            assert!(matching >= 1, "{s} matched {matching} regions");
        }
    }

    #[test]
    fn small_groups_are_leaves() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::2")];
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].seed_count, 2);
    }

    #[test]
    fn identical_seeds_do_not_loop() {
        let seeds = vec![a("2001:db8::1"); 100];
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].pattern.free_count(), 0);
    }

    #[test]
    fn region_cap_is_respected() {
        let seeds: Vec<Ipv6Addr> = (0..4096u128)
            .map(|i| Ipv6Addr::from((0x2600u128 << 112) | (i * 0x10001)))
            .collect();
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 1, 64);
        assert!(regions.len() <= 64, "{}", regions.len());
    }

    /// Structural equality for region lists (Region has no PartialEq).
    fn same_regions(a: &[Region], b: &[Region]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.members == y.members
                    && x.seed_count == y.seed_count
                    && x.pattern.fixed == y.pattern.fixed
            })
    }

    #[test]
    fn build_regions_par_is_worker_invariant() {
        let seeds: Vec<Ipv6Addr> = (0..512u128)
            .map(|i| Ipv6Addr::from((0x2600u128 << 112) | (i * 0x30007)))
            .collect();
        for strategy in [SplitStrategy::Leftmost, SplitStrategy::MinEntropy] {
            let base = build_regions_par(&seeds, strategy, 8, 1 << 10, 1);
            for workers in [2, 4, 8] {
                let par = build_regions_par(&seeds, strategy, 8, 1 << 10, workers);
                assert!(same_regions(&base, &par), "workers={workers} {strategy:?}");
            }
            // ...and it still partitions every seed
            let total: usize = base.iter().map(|r| r.seed_count).sum();
            assert_eq!(total, seeds.len());
        }
    }

    #[test]
    fn build_regions_par_respects_the_region_cap() {
        let seeds: Vec<Ipv6Addr> = (0..4096u128)
            .map(|i| Ipv6Addr::from((0x2600u128 << 112) | (i * 0x10001)))
            .collect();
        for max_regions in [1, 8, 64, 256] {
            for workers in [1, 4] {
                let regions =
                    build_regions_par(&seeds, SplitStrategy::Leftmost, 1, max_regions, workers);
                assert!(
                    !regions.is_empty() && regions.len() <= max_regions,
                    "cap {max_regions} workers {workers}: got {}",
                    regions.len()
                );
                let total: usize = regions.iter().map(|r| r.seed_count).sum();
                assert_eq!(total, seeds.len(), "cap {max_regions} still partitions");
            }
        }
    }

    #[test]
    fn build_regions_par_degenerate_inputs() {
        assert!(build_regions_par(&[], SplitStrategy::Leftmost, 8, 64, 8).is_empty());
        // identical seeds: unsplittable, single region, no spin
        let same = vec![a("2001:db8::1"); 100];
        let regions = build_regions_par(&same, SplitStrategy::MinEntropy, 8, 1024, 8);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].pattern.free_count(), 0);
    }

    #[test]
    fn min_entropy_differs_from_leftmost() {
        // Construct seeds where the leftmost variable dim is high-entropy
        // (uniform) but a later dim is low-entropy (binary): MinEntropy
        // must split the later dim first.
        let mut seeds = Vec::new();
        for hi in 0..16u128 {
            for lo in [0u128, 1] {
                seeds.push(Ipv6Addr::from((0x2600u128 << 112) | (hi << 64) | lo));
            }
        }
        let left = pick_split(&seeds, SplitStrategy::Leftmost).unwrap();
        let ent = pick_split(&seeds, SplitStrategy::MinEntropy).unwrap();
        assert!(left < ent, "leftmost {left} vs min-entropy {ent}");
    }

    #[test]
    fn density_orders_tight_regions_first() {
        let dense = Region::from_seeds(&[a("2600::1"), a("2600::2"), a("2600::3")]);
        let sparse = Region::from_seeds(&[a("2600::1"), a("2603:dead:beef:1234::ffff")]);
        assert!(dense.density() > sparse.density());
    }

    #[test]
    fn samples_match_the_pattern() {
        let seeds = two_site_seeds();
        let regions = build_regions(&seeds, SplitStrategy::Leftmost, 8, 1024);
        let mut rng = SmallRng::seed_from_u64(5);
        for r in &regions {
            for _ in 0..20 {
                let s = r.sample(&mut rng, 0.1);
                assert!(r.pattern.matches(s));
            }
        }
    }

    #[test]
    fn empty_input_yields_no_regions() {
        assert!(build_regions(&[], SplitStrategy::Leftmost, 8, 64).is_empty());
    }

    #[test]
    fn enumerate_covers_small_spaces_completely() {
        let seeds = vec![a("2600::1"), a("2600::2")]; // one free dim
        let r = Region::from_seeds(&seeds);
        assert_eq!(r.space_size(), Some(16));
        let all = r.enumerate(100);
        assert_eq!(all.len(), 16);
        let mut uniq = all.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 16, "no duplicates in enumeration");
        // observed values come first
        assert!(all[0] == a("2600::1") || all[0] == a("2600::2"));
    }

    #[test]
    fn enumerate_respects_limit() {
        let seeds = vec![a("2600::1"), a("2600::ff2")]; // three free dims
        let r = Region::from_seeds(&seeds);
        assert_eq!(r.enumerate(10).len(), 10);
    }

    #[test]
    fn enumerate_fixed_region_returns_single_address() {
        let r = Region::from_seeds(&[a("2600::9")]);
        assert_eq!(r.enumerate(5), vec![a("2600::9")]);
    }

    #[test]
    fn space_size_overflows_to_none() {
        let r = Region::from_seeds(&[a("2600::1"), a("3fff:ffff:ffff:ffff:ffff:ffff:ffff:fff2")]);
        assert!(r.pattern.free_count() > 15);
        assert_eq!(r.space_size(), None);
    }
}
