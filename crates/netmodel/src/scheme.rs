//! Interface-identifier (IID) addressing schemes.
//!
//! Operators assign the low 64 bits of IPv6 addresses in a handful of
//! well-known styles, and TGAs succeed precisely because those styles are
//! predictable. The ground-truth builder assigns each subnet a scheme; the
//! distribution of schemes is what makes some regions easy for generators
//! (low-byte servers) and others nearly impossible (privacy addresses).

use v6addr::rng::SmallRng;

/// How interface identifiers are assigned within a /64 subnet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressingScheme {
    /// `::1`, `::2`, ... — classic server numbering. The easiest pattern
    /// for every TGA.
    LowByte,
    /// `::a:b:c:d` with small hex words — structured service plans
    /// (e.g. `::10:1`, `::20:1`), common in hosting.
    StructuredWords,
    /// EUI-64 derived from a MAC address: `xxff:fexx` in the middle.
    /// Predictable vendor OUI bytes, random tail.
    Eui64,
    /// IPv4 address embedded in the low 32 bits (dual-stack routers).
    EmbeddedV4,
    /// RFC 4941 privacy extensions — uniformly random 64 bits.
    /// Effectively undiscoverable by generation.
    PrivacyRandom,
}

impl AddressingScheme {
    /// All schemes.
    pub const ALL: [AddressingScheme; 5] = [
        AddressingScheme::LowByte,
        AddressingScheme::StructuredWords,
        AddressingScheme::Eui64,
        AddressingScheme::EmbeddedV4,
        AddressingScheme::PrivacyRandom,
    ];

    /// Generate the IID (low 64 bits) for host number `idx` in a subnet.
    ///
    /// For structured schemes the IID is a deterministic function of `idx`
    /// (that is what makes them discoverable); for identifier-like schemes
    /// the RNG supplies the unpredictable bits.
    pub fn iid(self, idx: u64, rng: &mut SmallRng) -> u64 {
        match self {
            AddressingScheme::LowByte => idx + 1,
            AddressingScheme::StructuredWords => {
                // services at ::S:N where S steps by 0x10 per group of 8
                let group = idx / 8;
                let member = idx % 8;
                ((group + 1) * 0x10) << 16 | (member + 1)
            }
            AddressingScheme::Eui64 => {
                // OUI from a small vendor pool (predictable), tail from idx
                // plus randomness in the low bits.
                let vendor_pool = [0x00163eu64, 0x00155d, 0x001b21, 0x525400];
                let oui = vendor_pool[(rng.gen::<u64>() % 4) as usize];
                let tail = (idx << 8) | (rng.gen::<u64>() & 0xff);
                // EUI-64 layout: OUI(24) | fffe(16) | NIC(24), with the
                // universal/local bit flipped.
                let nic = tail & 0xff_ffff;
                let eui = (oui << 40) | (0xfffe << 24) | nic;
                eui ^ (1 << 57) // flip U/L bit (bit 6 of first byte)
            }
            AddressingScheme::EmbeddedV4 => {
                // ::a.b.c.d style where a.b.c is a stable site prefix and d
                // increments with the host index.
                let site = rng.gen::<u64>() & 0x00ff_ff00;
                0x0a00_0000u64 | site | (idx & 0xff)
            }
            AddressingScheme::PrivacyRandom => rng.gen::<u64>(),
        }
    }

    /// Is this scheme realistically discoverable by pattern-mining TGAs?
    ///
    /// Used by tests and documentation, not by the oracle: privacy
    /// addresses exist in the ground truth precisely so that generators
    /// *cannot* find them.
    pub fn discoverable(self) -> bool {
        !matches!(self, AddressingScheme::PrivacyRandom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_byte_is_sequential_from_one() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(AddressingScheme::LowByte.iid(0, &mut rng), 1);
        assert_eq!(AddressingScheme::LowByte.iid(9, &mut rng), 10);
    }

    #[test]
    fn structured_words_are_low_entropy() {
        let mut rng = SmallRng::seed_from_u64(0);
        let iids: Vec<u64> = (0..16).map(|i| AddressingScheme::StructuredWords.iid(i, &mut rng)).collect();
        // every IID fits comfortably in the low 32 bits (high 32 all zero)
        assert!(iids.iter().all(|&x| x >> 32 == 0));
        // distinct
        let mut uniq = iids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), iids.len());
    }

    #[test]
    fn eui64_has_fffe_marker() {
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..32 {
            let iid = AddressingScheme::Eui64.iid(i, &mut rng);
            assert_eq!((iid >> 24) & 0xffff, 0xfffe, "iid {iid:#x}");
        }
    }

    #[test]
    fn embedded_v4_looks_like_10_slash_8() {
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..32 {
            let iid = AddressingScheme::EmbeddedV4.iid(i, &mut rng);
            assert!(iid >> 32 == 0, "v4 embeds occupy low 32 bits");
            assert_eq!(iid >> 24, 0x0a, "site uses 10.x");
        }
    }

    #[test]
    fn privacy_random_is_high_entropy() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = AddressingScheme::PrivacyRandom.iid(0, &mut rng);
        let b = AddressingScheme::PrivacyRandom.iid(0, &mut rng);
        assert_ne!(a, b, "privacy IIDs ignore the index");
    }

    #[test]
    fn discoverability_classification() {
        assert!(AddressingScheme::LowByte.discoverable());
        assert!(!AddressingScheme::PrivacyRandom.discoverable());
    }
}
