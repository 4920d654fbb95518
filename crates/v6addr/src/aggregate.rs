//! Prefix aggregation: collapse a prefix list to its minimal covering set.
//!
//! Published alias lists and blocklists accumulate redundant entries —
//! prefixes covered by other entries, and complete sibling pairs that
//! could be one shorter prefix. Aggregation matters operationally: the
//! offline dealiaser and the scanner blocklist are consulted per address,
//! and the trie stays smaller and shallower after aggregation.

use crate::prefix::Prefix;

/// Collapse `prefixes` into the minimal equivalent set:
///
/// 1. remove any prefix covered by another entry;
/// 2. repeatedly merge sibling pairs (`x/len` and its bit-flipped
///    neighbor) into their parent `x/(len-1)`.
///
/// The result is sorted. The covered address set is exactly preserved.
///
/// ```
/// use v6addr::{aggregate, Prefix};
/// let p = |s: &str| s.parse::<Prefix>().unwrap();
/// let out = aggregate([p("2001:db8::/33"), p("2001:db8:8000::/33"), p("2001:db8::/64")]);
/// assert_eq!(out, vec![p("2001:db8::/32")]);
/// ```
pub fn aggregate(prefixes: impl IntoIterator<Item = Prefix>) -> Vec<Prefix> {
    let mut work: Vec<Prefix> = prefixes.into_iter().collect();
    work.sort();
    work.dedup();

    loop {
        // Pass 1: drop entries covered by a preceding shorter prefix.
        // After sorting, a covering prefix sorts before everything it
        // covers ... except when lengths interleave across different
        // networks, so check against a running stack of potential covers.
        let mut kept: Vec<Prefix> = Vec::with_capacity(work.len());
        'outer: for p in &work {
            for q in kept.iter().rev() {
                if q.covers(p) {
                    continue 'outer;
                }
                // once candidates can no longer contain p, stop scanning
                if !q.contains(p.network()) && q.network() < p.network() && q.len() <= p.len() {
                    break;
                }
            }
            // conservative full check (kept is small in practice)
            if kept.iter().any(|q| q.covers(p)) {
                continue;
            }
            kept.push(*p);
        }

        // Pass 2: merge complete sibling pairs.
        let mut merged: Vec<Prefix> = Vec::with_capacity(kept.len());
        let mut changed = false;
        let mut i = 0;
        while i < kept.len() {
            let cur = kept[i]; // i < kept.len(): loop condition
            if cur.len() > 0 && i + 1 < kept.len() {
                let next = kept[i + 1]; // i + 1 < kept.len() checked above
                if next.len() == cur.len() {
                    let parent = Prefix::new(cur.network(), cur.len() - 1);
                    if parent.covers(&cur) && parent.covers(&next) && parent.network() == cur.network() {
                        // siblings iff they differ exactly in the last bit
                        let step = 1u128 << (128 - cur.len() as u32);
                        if u128::from(next.network()) == u128::from(cur.network()) + step {
                            merged.push(parent);
                            changed = true;
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            merged.push(cur);
            i += 1;
        }

        if !changed && merged.len() == work.len() {
            return merged;
        }
        work = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn covered_entries_are_dropped() {
        let out = aggregate([p("2001:db8::/32"), p("2001:db8:1::/48"), p("2001:db8::/64")]);
        assert_eq!(out, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn sibling_pairs_merge_upward() {
        let out = aggregate([p("2001:db8::/33"), p("2001:db8:8000::/33")]);
        assert_eq!(out, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn cascading_merges() {
        // four /34 quarters collapse all the way to the /32
        let quarters: Vec<Prefix> = (0..4u128).map(|i| p("2001:db8::/32").subprefix(34, i)).collect();
        assert_eq!(aggregate(quarters), vec![p("2001:db8::/32")]);
    }

    #[test]
    fn non_siblings_do_not_merge() {
        // same length, adjacent networks, but different parents
        let a = p("2001:db8:0:1::/64"); // parent 2001:db8:0:0::/63? no: /64 #1
        let b = p("2001:db8:0:2::/64");
        let out = aggregate([a, b]);
        assert_eq!(out, vec![a, b]);
    }

    #[test]
    fn duplicates_collapse() {
        let out = aggregate([p("2600::/16"), p("2600::/16")]);
        assert_eq!(out, vec![p("2600::/16")]);
    }

    #[test]
    fn empty_input() {
        assert!(aggregate(std::iter::empty::<Prefix>()).is_empty());
    }

    #[test]
    fn aggregation_preserves_coverage() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(9);
        // random prefixes clustered so merges actually occur
        let prefixes: Vec<Prefix> = (0..60)
            .map(|_| {
                let bits: u128 = 0x2600 << 112 | u128::from(rng.gen::<u16>()) << 96;
                Prefix::new(Ipv6Addr::from(bits), 96 + (rng.gen::<u8>() % 8))
            })
            .collect();
        let before: crate::set::PrefixSet = prefixes.iter().copied().collect();
        let after: crate::set::PrefixSet = aggregate(prefixes.clone()).into_iter().collect();
        for _ in 0..2000 {
            let probe = Ipv6Addr::from(0x2600u128 << 112 | u128::from(rng.gen::<u16>()) << 96 | u128::from(rng.gen::<u32>()));
            assert_eq!(
                before.contains_addr(probe),
                after.contains_addr(probe),
                "{probe} coverage changed"
            );
        }
        assert!(after.len() <= before.len());
    }
}
