//! The assembled world and its probe oracle.
//!
//! [`World`] is the single source of truth the scanner's simulated
//! transport consults. Its [`World::probe`] method answers exactly like the
//! Internet would: positive replies (Echo Reply / SYN-ACK / DNS answer),
//! negative-but-audible replies (Destination Unreachable, TCP RST — which
//! §4.1 explicitly does *not* count as hits), or silence. Loss is
//! deterministic per `(address, attempt)` so retries genuinely re-roll.

use std::net::Ipv6Addr;

use v6addr::{Prefix, PrefixSet, PrefixTrie};

use crate::alias::AliasRegion;
use crate::asreg::{AsRegistry, Asn};
use crate::config::WorldConfig;
use crate::dns::DnsUniverse;
use crate::faults::FaultPlan;
use crate::hosts::AddrMap;
use crate::mix::{chance, mix2};
use crate::services::Protocol;
use crate::topology::Topology;

/// What came back from a single probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeReply {
    /// ICMPv6 Echo Reply — a hit for ICMP scans.
    EchoReply,
    /// TCP SYN-ACK — a hit for TCP scans.
    SynAck,
    /// A DNS response — a hit for UDP53 scans.
    DnsAnswer,
    /// ICMPv6 Destination Unreachable — audible, but **never** a hit (§4.1).
    DstUnreachable,
    /// TCP RST — audible, but **never** a hit (§4.1).
    Rst,
    /// Silence.
    Timeout,
}

impl ProbeReply {
    /// Is this reply a hit under the paper's counting rules?
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, ProbeReply::EchoReply | ProbeReply::SynAck | ProbeReply::DnsAnswer)
    }

    /// The positive reply type for a protocol.
    #[inline]
    pub fn positive(proto: Protocol) -> ProbeReply {
        match proto {
            Protocol::Icmp => ProbeReply::EchoReply,
            Protocol::Tcp80 | Protocol::Tcp443 => ProbeReply::SynAck,
            Protocol::Udp53 => ProbeReply::DnsAnswer,
        }
    }
}

/// The AS12322-analog megapattern (§4.1): a single AS contains a huge,
/// trivially discoverable family of ICMP responders — `BASE:<free>::1` —
/// of which a fixed fraction answer. The paper filters this AS from ICMP
/// metrics; the evaluation pipeline does the same.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaPattern {
    /// Fixed upper bits (nybble-aligned, < 64 bits).
    pub base: Prefix,
    /// Number of free nybbles between the base and bit 64.
    pub free_nybbles: u8,
    /// Responsiveness rate inside the pattern.
    pub rate: f64,
    /// The AS hosting the pattern (filtered from ICMP metrics).
    pub asn: Asn,
}

impl MegaPattern {
    /// Does `addr` lie inside the pattern (regardless of responsiveness)?
    pub fn matches(&self, addr: Ipv6Addr) -> bool {
        let bits = u128::from(addr);
        self.base.contains(addr) && (bits as u64) == 1
    }

    /// Number of addresses in the pattern.
    pub fn population(&self) -> u64 {
        16u64.saturating_pow(u32::from(self.free_nybbles))
    }

    /// The `i`-th pattern address.
    pub fn address(&self, i: u64) -> Ipv6Addr {
        debug_assert!(i < self.population());
        let base = u128::from(self.base.network());
        Ipv6Addr::from(base | (u128::from(i) << 64) | 1)
    }

    /// Ground-truth responsiveness of a pattern address.
    pub fn responds(&self, world_seed: u64, addr: Ipv6Addr) -> bool {
        self.matches(addr) && chance(mix2(world_seed, 0x4d45_4741), u128::from(addr), self.rate)
    }
}

/// Summary statistics captured at build time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// All individually modeled addresses (responsive + churned).
    pub modeled_hosts: usize,
    /// Churned (formerly active) addresses.
    pub churned_hosts: usize,
    /// Responsive hosts per protocol (outside aliased regions).
    pub responsive: [usize; 4],
    /// Responsive on at least one protocol.
    pub responsive_any: usize,
    /// Number of distinct ASes containing at least one responsive host.
    pub responsive_ases: usize,
}

/// The simulated IPv6 Internet.
///
/// ```
/// use netmodel::{Protocol, World, WorldConfig};
/// let world = World::build(WorldConfig::tiny(7));
/// // find something alive and ask the oracle about it
/// let (addr, _) = world.hosts().iter()
///     .find(|(a, r)| r.responds(Protocol::Icmp) && !world.is_aliased(*a))
///     .unwrap();
/// assert!(world.truth_responds(addr, Protocol::Icmp));
/// assert!(world.asn_of(addr).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct World {
    pub(crate) cfg: WorldConfig,
    pub(crate) registry: AsRegistry,
    pub(crate) hosts: AddrMap,
    pub(crate) alias_regions: Vec<AliasRegion>,
    pub(crate) alias_lookup: PrefixTrie<u32>,
    pub(crate) topology: Topology,
    pub(crate) dns: DnsUniverse,
    pub(crate) mega: Option<MegaPattern>,
    pub(crate) stats: WorldStats,
    pub(crate) faults: FaultPlan,
}

impl World {
    /// Build a world from a configuration (see [`crate::build`]).
    pub fn build(cfg: WorldConfig) -> World {
        crate::build::build_world(cfg)
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// AS registry (address → AS resolution).
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// The host map (responsive and churned modeled addresses).
    pub fn hosts(&self) -> &AddrMap {
        &self.hosts
    }

    /// All true aliased regions (ground truth).
    pub fn alias_regions(&self) -> &[AliasRegion] {
        &self.alias_regions
    }

    /// Router topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Domain universe.
    pub fn dns(&self) -> &DnsUniverse {
        &self.dns
    }

    /// The megapattern, when configured.
    pub fn megapattern(&self) -> Option<&MegaPattern> {
        self.mega.as_ref()
    }

    /// Build-time statistics.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// The compiled hostile-network fault schedule. The oracle itself does
    /// not consult it — faults are *path* phenomena, applied by the
    /// scanner-side transport, which owns the per-prefix probe-density
    /// counters the plan's virtual clock runs on.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Resolve an address to its origin AS.
    #[inline]
    pub fn asn_of(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.registry.asn_of(addr)
    }

    /// Ground truth: is `addr` inside any true aliased region?
    pub fn is_aliased(&self, addr: Ipv6Addr) -> bool {
        self.alias_lookup.lookup(addr).is_some()
    }

    /// The aliased region containing `addr`, if any.
    pub fn alias_region_of(&self, addr: Ipv6Addr) -> Option<&AliasRegion> {
        self.alias_lookup
            .lookup_value(addr)
            .map(|&i| &self.alias_regions[i as usize]) // lookup stores indices into alias_regions
    }

    /// The "published" alias list — the subset of true aliased prefixes
    /// that the offline (IPv6-Hitlist-style) dealiaser knows about.
    pub fn published_alias_list(&self) -> PrefixSet {
        self.alias_regions
            .iter()
            .filter(|r| r.published)
            .map(|r| r.prefix)
            .collect()
    }

    /// Ground-truth responsiveness (no loss applied): would `addr` answer
    /// `proto` given unlimited retries? Used by tests and dataset
    /// statistics, *not* by the scanner, which sees loss.
    pub fn truth_responds(&self, addr: Ipv6Addr, proto: Protocol) -> bool {
        if let Some(region) = self.alias_region_of(addr) {
            return region.responds(proto);
        }
        if let Some(mega) = &self.mega {
            if proto == Protocol::Icmp && mega.matches(addr) {
                return mega.responds(self.cfg.seed, addr);
            }
        }
        self.hosts.get(addr).is_some_and(|r| r.responds(proto))
    }

    /// Answer one probe. `attempt` distinguishes retransmissions so loss is
    /// re-rolled per attempt (deterministically).
    pub fn probe(&self, addr: Ipv6Addr, proto: Protocol, attempt: u32) -> ProbeReply {
        let bits = u128::from(addr);
        let loss_key = mix2(self.cfg.seed ^ 0x10_55, u64::from(attempt));

        // 1. Aliased regions preempt everything inside them.
        if let Some(&idx) = self.alias_lookup.lookup_value(addr) {
            let region = &self.alias_regions[idx as usize]; // lookup stores indices into alias_regions
            if region.responds(proto) {
                let loss = region.loss.max(self.cfg.base_loss);
                return if chance(loss_key, bits, loss) {
                    ProbeReply::Timeout
                } else {
                    ProbeReply::positive(proto)
                };
            }
            // Aliased device, closed port: TCP gets an RST sometimes.
            return self.closed_port_reply(addr, proto);
        }

        // 2. The megapattern answers ICMP only.
        if let Some(mega) = &self.mega {
            if mega.matches(addr) {
                if proto == Protocol::Icmp && mega.responds(self.cfg.seed, addr) {
                    return if chance(loss_key, bits, self.cfg.base_loss) {
                        ProbeReply::Timeout
                    } else {
                        ProbeReply::EchoReply
                    };
                }
                return ProbeReply::Timeout;
            }
        }

        // 3. Individually modeled hosts.
        if let Some(rec) = self.hosts.get(addr) {
            if rec.responds(proto) {
                return if chance(loss_key, bits, self.cfg.base_loss) {
                    ProbeReply::Timeout
                } else {
                    ProbeReply::positive(proto)
                };
            }
            if !rec.churned {
                return self.closed_port_reply(addr, proto);
            }
            return ProbeReply::Timeout;
        }

        // 4. Unoccupied space: routed prefixes sometimes emit unreachables;
        //    everything else is silence. The reporting router quotes
        //    whatever packet invoked the error (RFC 4443 §3.1), so the
        //    decision is per address, independent of probe protocol.
        if self.registry.asn_of(addr).is_some()
            && chance(mix2(self.cfg.seed, 0xDE57), bits, self.cfg.unreachable_rate)
        {
            return ProbeReply::DstUnreachable;
        }
        ProbeReply::Timeout
    }

    /// Reply for a live device probed on a closed port.
    fn closed_port_reply(&self, addr: Ipv6Addr, proto: Protocol) -> ProbeReply {
        match proto {
            Protocol::Tcp80 | Protocol::Tcp443 => {
                if chance(mix2(self.cfg.seed, 0x0157), u128::from(addr), self.cfg.rst_rate) {
                    ProbeReply::Rst
                } else {
                    ProbeReply::Timeout
                }
            }
            // closed UDP / unresponsive ICMP: silence in this model
            _ => ProbeReply::Timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_hit_classification_follows_section_4_1() {
        assert!(ProbeReply::EchoReply.is_hit());
        assert!(ProbeReply::SynAck.is_hit());
        assert!(ProbeReply::DnsAnswer.is_hit());
        assert!(!ProbeReply::DstUnreachable.is_hit());
        assert!(!ProbeReply::Rst.is_hit());
        assert!(!ProbeReply::Timeout.is_hit());
    }

    #[test]
    fn positive_reply_matches_protocol() {
        assert_eq!(ProbeReply::positive(Protocol::Icmp), ProbeReply::EchoReply);
        assert_eq!(ProbeReply::positive(Protocol::Tcp80), ProbeReply::SynAck);
        assert_eq!(ProbeReply::positive(Protocol::Tcp443), ProbeReply::SynAck);
        assert_eq!(ProbeReply::positive(Protocol::Udp53), ProbeReply::DnsAnswer);
    }

    #[test]
    fn megapattern_membership_and_enumeration() {
        let mega = MegaPattern {
            base: "2600:aaaa:bb00::/40".parse().unwrap(),
            free_nybbles: 6,
            rate: 0.35,
            asn: Asn(12322),
        };
        assert_eq!(mega.population(), 16u64.pow(6));
        let a0 = mega.address(0);
        assert!(mega.matches(a0));
        let an = mega.address(123_456);
        assert!(mega.matches(an));
        assert_ne!(a0, an);
        // low-64 must be ::1
        assert!(!mega.matches("2600:aaaa:bb00::2".parse().unwrap()));
        // outside base
        assert!(!mega.matches("2600:aaaa:cc00::1".parse().unwrap()));
    }

    #[test]
    fn megapattern_rate_is_approximately_config() {
        let mega = MegaPattern {
            base: "2600:aaaa:bb00::/40".parse().unwrap(),
            free_nybbles: 4,
            rate: 0.35,
            asn: Asn(12322),
        };
        let n = mega.population();
        let live = (0..n).filter(|&i| mega.responds(7, mega.address(i))).count();
        let rate = live as f64 / n as f64;
        assert!((rate - 0.35).abs() < 0.01, "rate {rate}");
    }

    /// Regression (PR 4): unreachables were gated on `proto == Icmp`, so
    /// TCP/UDP scans could never observe them. The decision is per
    /// address; the router answers whatever probe invoked the error.
    #[test]
    fn unreachables_are_protocol_independent() {
        let w = World::build(WorldConfig::tiny(31));
        let (base, _) = w.hosts().iter().next().expect("hosts exist");
        let net = u128::from(base) & !0xffffu128;
        let hole = (0..200_000u128)
            .map(|i| Ipv6Addr::from(net | (0xa000 + i)))
            .find(|&a| {
                w.hosts().get(a).is_none()
                    && !w.is_aliased(a)
                    && matches!(w.probe(a, Protocol::Icmp, 0), ProbeReply::DstUnreachable)
            })
            .expect("some routed hole emits unreachables");
        for proto in crate::PROTOCOLS {
            assert!(
                matches!(w.probe(hole, proto, 0), ProbeReply::DstUnreachable),
                "{proto:?} probes elicit the same unreachable"
            );
        }
        // Unrouted space stays silent on every protocol.
        let dark: Ipv6Addr = "3fff:ffff::1".parse().unwrap();
        for proto in crate::PROTOCOLS {
            assert!(matches!(w.probe(dark, proto, 0), ProbeReply::Timeout));
        }
    }
}
