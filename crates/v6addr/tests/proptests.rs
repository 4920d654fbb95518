//! Property-based tests for the address substrate, driven by a seeded
//! deterministic generator (splitmix64): every run explores the same
//! randomized inputs, so failures reproduce exactly without any external
//! test-harness dependency.

use std::net::Ipv6Addr;

use v6addr::{nybble_of, rand_in_prefix, with_nybble, Nybbles, Prefix, PrefixSet, PrefixTrie, SplitMix64};

/// Deterministic case generator over the canonical splitmix64 stream.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SplitMix64::new(seed))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn u128(&mut self) -> u128 {
        (u128::from(self.u64()) << 64) | u128::from(self.u64())
    }

    fn addr(&mut self) -> Ipv6Addr {
        Ipv6Addr::from(self.u128())
    }

    fn range(&mut self, n: usize) -> usize {
        (self.u64() % n.max(1) as u64) as usize
    }

    fn prefix(&mut self) -> Prefix {
        let bits = self.u128();
        let len = (self.u64() % 129) as u8;
        Prefix::new(Ipv6Addr::from(bits), len)
    }
}

const CASES: usize = 256;

#[test]
fn nybbles_roundtrip() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let addr = g.addr();
        assert_eq!(Nybbles::from_addr(addr).to_addr(), addr);
    }
}

#[test]
fn nybble_of_agrees_with_array() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let addr = g.addr();
        let idx = g.range(32);
        assert_eq!(nybble_of(addr, idx), Nybbles::from_addr(addr).get(idx));
    }
}

#[test]
fn with_nybble_sets_only_that_position() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let addr = g.addr();
        let idx = g.range(32);
        let v = (g.u64() % 16) as u8;
        let out = with_nybble(addr, idx, v);
        assert_eq!(nybble_of(out, idx), v);
        for i in 0..32 {
            if i != idx {
                assert_eq!(nybble_of(out, i), nybble_of(addr, i));
            }
        }
    }
}

#[test]
fn hamming_is_symmetric_and_bounded() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let (a, b) = (g.addr(), g.addr());
        let (na, nb) = (Nybbles::from_addr(a), Nybbles::from_addr(b));
        assert_eq!(na.hamming(&nb), nb.hamming(&na));
        assert!(na.hamming(&nb) <= 32);
        assert_eq!(na.hamming(&na), 0);
    }
}

#[test]
fn prefix_contains_its_network() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let p = g.prefix();
        assert!(p.contains(p.network()));
    }
}

#[test]
fn prefix_canonical_form_is_idempotent() {
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let p = g.prefix();
        assert_eq!(Prefix::new(p.network(), p.len()), p);
    }
}

#[test]
fn truncation_still_covers() {
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let p = g.prefix();
        let cut = ((g.u64() % 129) as u8).min(p.len());
        let t = p.truncate(cut);
        assert!(t.covers(&p));
        assert!(t.contains(p.network()));
    }
}

#[test]
fn parse_display_roundtrip() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let p = g.prefix();
        let parsed: Prefix = p.to_string().parse().unwrap();
        assert_eq!(parsed, p);
    }
}

#[test]
fn rand_in_prefix_always_contained() {
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let p = g.prefix();
        let mut rng = v6addr::rng::SmallRng::seed_from_u64(g.u64());
        let addr = rand_in_prefix(&p, &mut rng);
        assert!(p.contains(addr));
    }
}

#[test]
fn trie_lpm_returns_a_covering_prefix() {
    let mut g = Gen::new(10);
    for _ in 0..CASES {
        let n = 1 + g.range(39);
        let entries: Vec<(Prefix, u32)> = (0..n).map(|_| (g.prefix(), g.u64() as u32)).collect();
        let probe = g.addr();
        let trie: PrefixTrie<u32> = entries.clone().into_iter().collect();
        if let Some((matched, _)) = trie.lookup(probe) {
            assert!(matched.contains(probe));
            // and it is the longest such entry
            let best =
                entries.iter().filter(|(p, _)| p.contains(probe)).map(|(p, _)| p.len()).max();
            assert_eq!(Some(matched.len()), best);
        } else {
            assert!(entries.iter().all(|(p, _)| !p.contains(probe)));
        }
    }
}

#[test]
fn prefix_set_agrees_with_linear_scan() {
    let mut g = Gen::new(11);
    for _ in 0..CASES {
        let n = g.range(30);
        let prefixes: Vec<Prefix> = (0..n).map(|_| g.prefix()).collect();
        let probe = g.addr();
        let set: PrefixSet = prefixes.clone().into_iter().collect();
        let linear = prefixes.iter().any(|p| p.contains(probe));
        assert_eq!(set.contains_addr(probe), linear);
    }
}

#[test]
fn subprefixes_partition_parent() {
    let mut g = Gen::new(12);
    for _ in 0..CASES {
        let p = Prefix::new(Ipv6Addr::from(g.u128()), (g.u64() % 125) as u8);
        let sub_len = p.len() + 4;
        // all 16 nybble-children cover disjoint space and sit inside parent
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u128 {
            let s = p.subprefix(sub_len, i);
            assert!(p.covers(&s));
            assert!(seen.insert(s.network()));
        }
    }
}
