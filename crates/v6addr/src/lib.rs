//! IPv6 address substrate for the `seeds-of-scanning` workspace.
//!
//! Every component of the study — the simulated Internet, the scanner, the
//! dealiasers, and all eight Target Generation Algorithms (TGAs) —
//! manipulates IPv6 addresses at *nybble* (hexadecimal digit) granularity,
//! because that is the granularity at which operators assign structure and
//! at which TGAs mine patterns. This crate provides:
//!
//! - [`Nybbles`]: a 32-nybble view of an address with indexed get/set,
//! - [`Prefix`]: a CIDR prefix with containment, iteration, and parsing,
//! - [`PrefixTrie`]: a binary trie for longest-prefix-match lookups
//!   (used for address → AS resolution),
//! - [`PrefixSet`]: containment queries against a set of prefixes
//!   (used for alias lists and blocklists),
//! - [`pattern`]: per-nybble entropy/frequency analysis over address sets,
//! - [`rand_in_prefix`]: deterministic random address generation inside a
//!   prefix (used by the online dealiaser and the ground-truth builder).
//!
//! The canonical address type is [`std::net::Ipv6Addr`]; this crate adds
//! structure around it rather than wrapping it.

pub mod aggregate;
pub mod nybble;
pub mod pattern;
pub mod prefix;
pub mod rng;
pub mod set;
pub mod splitmix;
pub mod trie;

pub use aggregate::aggregate;
pub use nybble::{nybble_of, with_nybble, Nybbles, NYBBLES};
pub use pattern::{nybble_entropy, nybble_value_counts, EntropyProfile};
pub use prefix::{ParsePrefixError, Prefix};
pub use set::PrefixSet;
pub use splitmix::{addr_set_with_capacity, splitmix64, AddrMap, AddrSet, SplitMix64};
pub use trie::PrefixTrie;

use std::net::Ipv6Addr;

use rng::SmallRng;

/// Convert an address to its 128-bit integer form.
#[inline]
pub fn to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Convert a 128-bit integer to an address.
#[inline]
pub fn from_u128(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

/// Draw a uniformly random address inside `prefix` using `rng`.
///
/// The fixed (prefix) bits are preserved and the free low bits are drawn
/// uniformly. This is the primitive behind 6Gen-style online dealiasing
/// ("send randomized lower bits into the /96") and the ground-truth
/// population builder.
pub fn rand_in_prefix(prefix: &Prefix, rng: &mut SmallRng) -> Ipv6Addr {
    let free_bits = 128 - prefix.len() as u32;
    if free_bits == 0 {
        return prefix.network();
    }
    let mask: u128 = if free_bits == 128 {
        u128::MAX
    } else {
        (1u128 << free_bits) - 1
    };
    let low: u128 = rng.gen::<u128>() & mask;
    from_u128(to_u128(prefix.network()) | low)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_roundtrip() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(from_u128(to_u128(a)), a);
    }

    #[test]
    fn rand_in_prefix_stays_inside() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p: Prefix = "2001:db8:40::/96".parse().unwrap();
        for _ in 0..200 {
            let a = rand_in_prefix(&p, &mut rng);
            assert!(p.contains(a), "{a} outside {p}");
        }
    }

    #[test]
    fn rand_in_prefix_full_length_is_network() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p: Prefix = "2001:db8::5/128".parse().unwrap();
        assert_eq!(rand_in_prefix(&p, &mut rng), p.network());
    }

    #[test]
    fn rand_in_prefix_varies() {
        let mut rng = SmallRng::seed_from_u64(3);
        let p: Prefix = "2001:db8::/64".parse().unwrap();
        let a = rand_in_prefix(&p, &mut rng);
        let b = rand_in_prefix(&p, &mut rng);
        assert_ne!(a, b);
    }
}
