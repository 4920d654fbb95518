//! Hitlist collectors: the IPv6 Hitlist and AddrMiner.
//!
//! Table 3's signature for these sources: the IPv6 Hitlist is the best
//! single source of responsive addresses (84% of it answers something) but
//! carries a stale tail; AddrMiner, being TGA-generated, is enormous and
//! drenched in aliases (74.3M collected, only 10.4M survive dealiasing in
//! the paper). The Hitlist is published *pre-dealiased against the public
//! alias list*, so it contains no published-alias addresses — but it can
//! and does contain addresses from aliases the list has never seen.

use std::collections::HashSet;
use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;

use netmodel::{AddressingScheme, World};
use v6addr::rand_in_prefix;

use crate::source::SourceId;

/// Raw collection outcome (insert attempts vs unique survivors).
#[derive(Debug, Clone)]
pub struct HitlistCollection {
    /// Unique addresses.
    pub addrs: Vec<Ipv6Addr>,
    /// Raw (pre-dedup) collected count, for Table 3's "Pop." column.
    pub raw_count: u64,
}

/// Collect the IPv6-Hitlist analog: a broad union of responsive addresses
/// across every family, a stale tail, a slice of the megapattern (the
/// documented AS12322 contamination), and addresses from *unpublished*
/// aliases only — the published ones were filtered by the publisher.
pub fn collect_hitlist(world: &World, seed: u64) -> HitlistCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::Hitlist.stream());
    let published = world.published_alias_list();
    let mut set: HashSet<Ipv6Addr> = HashSet::new();
    let mut raw = 0u64;

    for (addr, rec) in world.hosts().iter() {
        if published.contains_addr(addr) {
            continue; // publisher dealiased against the public list
        }
        let p = if rec.responds_any() {
            0.12
        } else if rec.churned {
            0.05 // the stale ~16% tail (§6.2)
        } else {
            0.0
        };
        if p > 0.0 && rng.gen_bool(p) {
            raw += 1 + u64::from(rng.gen::<u8>() % 3); // sources overlap → duplicates
            set.insert(addr);
        }
    }

    // Unpublished aliased regions leak in: nobody knows to filter them.
    for region in world.alias_regions().iter().filter(|r| !r.published) {
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(2..=8);
            for _ in 0..n {
                raw += 1;
                set.insert(rand_in_prefix(&region.prefix, &mut rng));
            }
        }
    }

    // The megapattern slice: trivially discoverable ::1 addresses that
    // earlier TGA runs fed back into the hitlist.
    if let Some(mega) = world.megapattern() {
        let want = (set.len() / 40).clamp(8, 2000);
        let mut tries = 0;
        let mut got = 0;
        while got < want && tries < want * 20 {
            tries += 1;
            let i = rng.gen_range(0..mega.population());
            let a = mega.address(i);
            if mega.responds(world.config().seed, a) {
                raw += 1;
                if set.insert(a) {
                    got += 1;
                }
            }
        }
    }

    let mut addrs: Vec<Ipv6Addr> = set.into_iter().collect();
    addrs.sort();
    HitlistCollection { addrs, raw_count: raw }
}

/// Collect the AddrMiner analog: TGA-derived, so it saturates the easily
/// generated regions — dense low-byte/structured hosting space — and pours
/// addresses into aliased regions (published and not; its generator has no
/// online dealiasing).
pub fn collect_addrminer(world: &World, seed: u64) -> HitlistCollection {
    let mut rng = SmallRng::seed_from_u64(seed ^ SourceId::AddrMiner.stream());
    let mut set: HashSet<Ipv6Addr> = HashSet::new();
    let mut raw = 0u64;

    for (addr, rec) in world.hosts().iter() {
        let p = if !rec.responds_any() {
            0.003 // generation occasionally lands on stale records
        } else {
            match rec.scheme {
                AddressingScheme::LowByte => 0.22,
                AddressingScheme::StructuredWords => 0.16,
                AddressingScheme::EmbeddedV4 => 0.06,
                AddressingScheme::Eui64 => 0.02,
                AddressingScheme::PrivacyRandom => 0.001,
            }
        };
        if p > 0.0 && rng.gen_bool(p) {
            raw += 1;
            set.insert(addr);
        }
    }

    // The alias flood: a generator without online dealiasing happily
    // enumerates aliased prefixes, and every probe "verifies". Crucially
    // the addresses are *generated*, not random — low-nybble structured
    // candidates — so the resulting seed clusters are dense and every
    // downstream TGA finds them attractive (the paper's RQ1.a mechanism:
    // "patterns generators exploit correlate strongly to where aliases
    // exist").
    for region in world.alias_regions() {
        let n = rng.gen_range(40..=240);
        let base = u128::from(region.prefix.network());
        for _ in 0..n {
            raw += 1;
            // structured low bits: a TGA-style low-byte/word candidate.
            // Dense enough that the aliased prefix forms a *tight* seed
            // cluster — denser than most genuine subnets, which is what
            // drags every generator into it.
            let low: u128 = if rng.gen_bool(0.7) {
                u128::from(rng.gen_range(0u32..256))
            } else {
                u128::from(rng.gen_range(0u32..8)) << 12 | u128::from(rng.gen_range(0u32..256))
            };
            set.insert(std::net::Ipv6Addr::from(base | low));
        }
    }

    let mut addrs: Vec<Ipv6Addr> = set.into_iter().collect();
    addrs.sort();
    HitlistCollection { addrs, raw_count: raw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{Protocol, WorldConfig};

    fn world() -> World {
        World::build(WorldConfig::tiny(81))
    }

    #[test]
    fn hitlist_is_mostly_responsive() {
        let w = world();
        let h = collect_hitlist(&w, 1);
        assert!(h.addrs.len() > 100);
        let live = h
            .addrs
            .iter()
            .filter(|&&a| netmodel::PROTOCOLS.iter().any(|&p| w.truth_responds(a, p)))
            .count();
        let frac = live as f64 / h.addrs.len() as f64;
        // the paper's figure is 84%; aliased leak-ins also "respond"
        assert!(frac > 0.7 && frac < 0.99, "responsive fraction {frac}");
    }

    #[test]
    fn hitlist_avoids_published_aliases() {
        let w = world();
        let h = collect_hitlist(&w, 1);
        let published = w.published_alias_list();
        assert!(h.addrs.iter().all(|&a| !published.contains_addr(a)));
    }

    #[test]
    fn hitlist_contains_some_unpublished_alias_addresses() {
        let w = world();
        let h = collect_hitlist(&w, 1);
        let leaked = h.addrs.iter().filter(|&&a| w.is_aliased(a)).count();
        assert!(leaked > 0, "unpublished aliases leak into the hitlist");
    }

    #[test]
    fn hitlist_contains_megapattern_slice() {
        let w = world();
        let h = collect_hitlist(&w, 1);
        let mega = w.megapattern().unwrap();
        let in_mega = h.addrs.iter().filter(|&&a| mega.matches(a)).count();
        assert!(in_mega > 0, "the AS12322-analog contaminates the hitlist");
    }

    #[test]
    fn addrminer_is_alias_heavy() {
        let w = world();
        let am = collect_addrminer(&w, 1);
        let h = collect_hitlist(&w, 1);
        let alias_frac = |addrs: &[Ipv6Addr]| {
            addrs.iter().filter(|&&a| w.is_aliased(a)).count() as f64 / addrs.len().max(1) as f64
        };
        assert!(
            alias_frac(&am.addrs) > 3.0 * alias_frac(&h.addrs),
            "addrminer {} vs hitlist {}",
            alias_frac(&am.addrs),
            alias_frac(&h.addrs)
        );
    }

    #[test]
    fn addrminer_prefers_discoverable_schemes() {
        let w = world();
        let am = collect_addrminer(&w, 1);
        let (mut lowbyte, mut privacy) = (0usize, 0usize);
        for &a in &am.addrs {
            if let Some(rec) = w.hosts().get(a) {
                match rec.scheme {
                    AddressingScheme::LowByte => lowbyte += 1,
                    AddressingScheme::PrivacyRandom => privacy += 1,
                    _ => {}
                }
            }
        }
        assert!(lowbyte > 10 * privacy.max(1), "lowbyte {lowbyte} privacy {privacy}");
    }

    #[test]
    fn raw_counts_exceed_unique() {
        let w = world();
        let am = collect_addrminer(&w, 1);
        assert!(am.raw_count >= am.addrs.len() as u64);
    }

    #[test]
    fn icmp_dominates_hitlist_activity() {
        let w = world();
        let h = collect_hitlist(&w, 1);
        let count = |p: Protocol| h.addrs.iter().filter(|&&a| w.truth_responds(a, p)).count();
        assert!(count(Protocol::Icmp) > count(Protocol::Tcp80));
        assert!(count(Protocol::Icmp) > count(Protocol::Udp53));
    }
}
