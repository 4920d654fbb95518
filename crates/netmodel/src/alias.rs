//! Aliased regions: prefixes where (almost) every address answers.
//!
//! §2.2: "A prefix is aliased when the entire IPv6 prefix is responsive and
//! maps to a single device." Aliases inflate hit counts by orders of
//! magnitude, which is why both the paper's scanner and its seed
//! preprocessing must detect them. The ground truth places aliased regions
//! *inside dense hosting patterns* — the paper's RQ1.a finding is that "the
//! patterns generators exploit correlate strongly to where aliases exist."
//!
//! Some regions are marked *lossy* (ICMP rate limiting): probes into them
//! are deterministically dropped at a configured rate, which is the paper's
//! stated mechanism for online dealiasing occasionally missing an alias.

use v6addr::Prefix;

use crate::services::{PortSet, Protocol};

/// One aliased region of the simulated Internet.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasRegion {
    /// The fully responsive prefix (typically /80 – /112 in this model;
    /// the paper's canonical aliased unit is the /96).
    pub prefix: Prefix,
    /// Which scan targets the aliased device answers on.
    pub ports: PortSet,
    /// Whether the region appears on the "published" offline alias list.
    /// The paper's key RQ1.a observation is that the published list is
    /// incomplete; the world builder leaves a configurable fraction of
    /// regions off the list.
    pub published: bool,
    /// Probability that any single probe into the region is silently
    /// dropped (rate limiting). 0.0 = perfectly responsive.
    pub loss: f64,
}

impl AliasRegion {
    /// Does the aliased device answer `proto` (before loss is applied)?
    #[inline]
    pub fn responds(&self, proto: Protocol) -> bool {
        self.ports.contains(proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_responds_per_portset() {
        let r = AliasRegion {
            prefix: "2600:9000:2000::/96".parse().unwrap(),
            ports: PortSet::of([Protocol::Tcp443, Protocol::Tcp80]),
            published: false,
            loss: 0.0,
        };
        assert!(r.responds(Protocol::Tcp443));
        assert!(!r.responds(Protocol::Udp53));
    }
}
