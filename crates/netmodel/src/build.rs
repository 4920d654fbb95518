//! Deterministic world generation.
//!
//! [`build_world`] synthesizes the entire ground truth from a
//! [`WorldConfig`]: the AS plan, every modeled host, aliased regions placed
//! inside the dense hosting patterns (per the paper's RQ1.a finding that
//! alias locations correlate with the very patterns generators exploit),
//! the megapattern AS, the router topology, and the domain universe.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use v6addr::rng::SmallRng;
use v6addr::{Prefix, PrefixTrie};

use crate::alias::AliasRegion;
use crate::asreg::{synth_name, AsInfo, AsKind, AsRegistry, Asn, Country};
use crate::config::WorldConfig;
use crate::dns::{DnsUniverse, DomainRecord};
use crate::hosts::{AddrMap, HostKind, HostRecord};
use crate::scheme::AddressingScheme;
use crate::services::{PortSet, Protocol, PROTOCOLS};
use crate::topology::Topology;
use crate::world::{MegaPattern, World, WorldStats};

/// AS-kind sampling weights (approximating the real AS-type mix).
const KIND_WEIGHTS: [(AsKind, u32); 8] = [
    (AsKind::AccessIsp, 40),
    (AsKind::CloudHosting, 18),
    (AsKind::Enterprise, 12),
    (AsKind::Mobile, 8),
    (AsKind::TransitIsp, 8),
    (AsKind::Education, 8),
    (AsKind::Government, 4),
    (AsKind::Cdn, 2),
];

fn draw_kind(rng: &mut SmallRng) -> AsKind {
    let total: u32 = KIND_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut x = rng.gen_range(0..total);
    for (k, w) in KIND_WEIGHTS {
        if x < w {
            return k;
        }
        x -= w;
    }
    AsKind::AccessIsp
}

fn draw_country(rng: &mut SmallRng) -> Country {
    Country::ALL[rng.gen_range(0..Country::ALL.len())]
}

/// Per-RIR-block allocation cursor handing out sparse /32 slots.
/// Keyed by block (not country) because several countries share a block.
#[derive(Default)]
struct AllocPlan {
    cursors: HashMap<Prefix, u32>,
}

impl AllocPlan {
    fn next_slot32(&mut self, country: Country, rng: &mut SmallRng) -> Prefix {
        let block = country.rir_block();
        let cursor = self.cursors.entry(block).or_insert(1);
        let slot = *cursor;
        *cursor += 1 + rng.gen_range(0..37);
        block.subprefix(32, u128::from(slot))
    }
}

/// Scale a count range by the config multiplier, keeping at least 1.
fn scaled(rng: &mut SmallRng, scale: f64, lo: usize, hi: usize) -> usize {
    let n = rng.gen_range(lo..=hi) as f64 * scale;
    (n.round() as usize).max(1)
}

/// Per-host port draw: independent Bernoulli per protocol; a host that
/// draws nothing gets ICMP (the near-universal IPv6 responder).
fn draw_ports(rng: &mut SmallRng, p: [f64; 4]) -> PortSet {
    let mut set = PortSet::EMPTY;
    for (proto, prob) in PROTOCOLS.into_iter().zip(p) {
        if rng.gen_bool(prob) {
            set.insert(proto);
        }
    }
    if set.is_empty() {
        set.insert(Protocol::Icmp);
    }
    set
}

/// Port-probability profiles per role.
fn port_profile(kind: HostKind, as_kind: AsKind) -> [f64; 4] {
    match kind {
        HostKind::Router => [0.96, 0.01, 0.005, 0.005],
        HostKind::DnsServer => [0.85, 0.08, 0.10, 0.95],
        HostKind::Cpe => [0.97, 0.01, 0.01, 0.004],
        HostKind::Infra => [0.90, 0.10, 0.10, 0.05],
        HostKind::WebServer => match as_kind {
            AsKind::Cdn => [0.95, 0.75, 0.80, 0.08],
            AsKind::CloudHosting => [0.92, 0.45, 0.50, 0.02],
            _ => [0.90, 0.20, 0.22, 0.04],
        },
    }
}

/// Churn (no-longer-responsive) probability per role.
fn churn_rate(kind: HostKind, as_kind: AsKind, base: f64) -> f64 {
    match kind {
        // Traceroute-observed routers largely ignore direct probes
        // (Table 3: Scamper ≈ 20% responsive).
        HostKind::Router => 0.72,
        HostKind::Cpe if as_kind == AsKind::Mobile => (base * 1.4).min(0.9),
        HostKind::WebServer | HostKind::DnsServer | HostKind::Infra => base * 0.75,
        _ => base,
    }
}

/// Everything accumulated while generating hosts.
struct GenState {
    entries: Vec<(u128, HostRecord)>,
    routers_by_as: HashMap<Asn, Vec<Ipv6Addr>>,
    /// (addr, as_kind, churned) for domain assignment.
    web_hosts: Vec<(Ipv6Addr, AsKind, bool)>,
    /// Dense hosting sites: (site /48, populated /64 subnet ids, AS kind).
    dense_sites: Vec<(Prefix, u32, AsKind)>,
}

impl GenState {
    #[allow(clippy::too_many_arguments)]
    fn push_host(
        &mut self,
        rng: &mut SmallRng,
        cfg: &WorldConfig,
        asn: Asn,
        as_kind: AsKind,
        subnet64: Prefix,
        idx: u64,
        scheme: AddressingScheme,
        kind: HostKind,
    ) -> Ipv6Addr {
        debug_assert_eq!(subnet64.len(), 64);
        let iid = scheme.iid(idx, rng);
        let addr = Ipv6Addr::from(u128::from(subnet64.network()) | u128::from(iid));
        let churned = rng.gen_bool(churn_rate(kind, as_kind, cfg.churn_rate));
        let ports = draw_ports(rng, port_profile(kind, as_kind));
        self.entries.push((
            u128::from(addr),
            HostRecord {
                ports,
                churned,
                kind,
                scheme,
            },
        ));
        if kind == HostKind::Router {
            self.routers_by_as.entry(asn).or_default().push(addr);
        }
        if matches!(kind, HostKind::WebServer | HostKind::DnsServer) {
            self.web_hosts.push((addr, as_kind, churned));
        }
        addr
    }
}

/// Generate the router interfaces of one AS inside its infrastructure /48.
fn gen_routers(
    st: &mut GenState,
    rng: &mut SmallRng,
    cfg: &WorldConfig,
    asn: Asn,
    kind: AsKind,
    alloc: Prefix,
    count: usize,
) {
    let infra = alloc.truncate(alloc.len()).subprefix(48, 0);
    let scheme = if rng.gen_bool(0.5) {
        AddressingScheme::LowByte
    } else {
        AddressingScheme::EmbeddedV4
    };
    for j in 0..count {
        // four interfaces per link /64
        let subnet = infra.subprefix(64, (j / 4) as u128);
        st.push_host(rng, cfg, asn, kind, subnet, (j % 4) as u64, scheme, HostKind::Router);
    }
}

/// Generate a hosting site: sequential /64 subnets dense with servers.
#[allow(clippy::too_many_arguments)]
fn gen_hosting_site(
    st: &mut GenState,
    rng: &mut SmallRng,
    cfg: &WorldConfig,
    asn: Asn,
    as_kind: AsKind,
    site48: Prefix,
    subnets: usize,
    hosts_per_subnet_hi: usize,
) {
    for j in 0..subnets {
        let subnet = site48.subprefix(64, j as u128);
        let scheme = {
            let x: f64 = rng.gen();
            if x < 0.55 {
                AddressingScheme::LowByte
            } else if x < 0.85 {
                AddressingScheme::StructuredWords
            } else if x < 0.95 {
                AddressingScheme::Eui64
            } else {
                AddressingScheme::PrivacyRandom
            }
        };
        // A few subnets are *mega-dense* — hundreds of responsive,
        // non-aliased, low-byte addresses (big CDN/hosting edges). These
        // are the "highly responsive but not aliased networks" §4.1 cites
        // as motivation for the AS-diversity metric, and they are what
        // keeps online TGAs productive on dealiased seeds.
        let mega_dense = rng.gen_bool(0.05) && scheme == AddressingScheme::LowByte;
        let hosts = if mega_dense {
            scaled(rng, cfg.scale, 150, 600)
        } else {
            rng.gen_range(2..=hosts_per_subnet_hi.max(3))
        };
        for h in 0..hosts {
            let role: f64 = rng.gen();
            let kind = if role < 0.82 {
                HostKind::WebServer
            } else if role < 0.90 {
                HostKind::DnsServer
            } else {
                HostKind::Infra
            };
            st.push_host(rng, cfg, asn, as_kind, subnet, h as u64, scheme, kind);
        }
    }
    st.dense_sites.push((site48, subnets as u32, as_kind));
}

/// Generate an access/mobile ISP's customer CPE population.
#[allow(clippy::too_many_arguments)]
fn gen_isp_customers(
    st: &mut GenState,
    rng: &mut SmallRng,
    cfg: &WorldConfig,
    asn: Asn,
    kind: AsKind,
    alloc: Prefix,
    customers: usize,
) {
    // ISP-wide CPE addressing policy: some ISPs put the gateway at ::1
    // (discoverable); others hand out EUI-64 or privacy IIDs.
    let policy: f64 = rng.gen();
    let scheme = if kind == AsKind::Mobile {
        if policy < 0.7 {
            AddressingScheme::PrivacyRandom
        } else {
            AddressingScheme::Eui64
        }
    } else if policy < 0.30 {
        AddressingScheme::LowByte
    } else if policy < 0.70 {
        AddressingScheme::Eui64
    } else {
        AddressingScheme::PrivacyRandom
    };
    // Customers get sequential /56s (with small gaps) under the /32;
    // the CPE lives in the first /64 of its delegation.
    let mut slot56: u128 = rng.gen_range(0..4096);
    let max_slot = 1u128 << 24; // /32 → /56 slots
    for _ in 0..customers {
        let cust = alloc.subprefix(56, slot56 % max_slot);
        slot56 += 1 + u128::from(rng.gen_range(0u32..3));
        let subnet = cust.subprefix(64, 0);
        st.push_host(rng, cfg, asn, kind, subnet, 0, scheme, HostKind::Cpe);
    }
}

/// Generate a modest campus/office network.
#[allow(clippy::too_many_arguments)]
fn gen_campus(
    st: &mut GenState,
    rng: &mut SmallRng,
    cfg: &WorldConfig,
    asn: Asn,
    kind: AsKind,
    alloc: Prefix,
    subnets: usize,
    hosts_hi: usize,
) {
    let site = if alloc.len() <= 48 {
        alloc.subprefix(48, 1)
    } else {
        alloc.truncate(alloc.len())
    };
    for j in 0..subnets {
        let subnet = Prefix::new(site.network(), 48).subprefix(64, j as u128);
        let scheme = {
            let x: f64 = rng.gen();
            if x < 0.40 {
                AddressingScheme::LowByte
            } else if x < 0.70 {
                AddressingScheme::Eui64
            } else if x < 0.85 {
                AddressingScheme::PrivacyRandom
            } else {
                AddressingScheme::EmbeddedV4
            }
        };
        let hosts = rng.gen_range(1..=hosts_hi.max(2));
        for h in 0..hosts {
            let kind_draw: f64 = rng.gen();
            let hk = if kind_draw < 0.6 {
                HostKind::WebServer
            } else if kind_draw < 0.7 {
                HostKind::DnsServer
            } else {
                HostKind::Infra
            };
            st.push_host(rng, cfg, asn, kind, subnet, h as u64, scheme, hk);
        }
    }
}

/// Place aliased regions, mostly over dense hosting patterns.
fn gen_alias_regions(
    rng: &mut SmallRng,
    cfg: &WorldConfig,
    dense_sites: &[(Prefix, u32, AsKind)],
) -> Vec<AliasRegion> {
    let mut out = Vec::with_capacity(cfg.alias_regions);
    if dense_sites.is_empty() {
        return out;
    }
    for i in 0..cfg.alias_regions {
        let (site, subnets, _kind) = dense_sites[rng.gen_range(0..dense_sites.len())];
        // 60%: cover a *populated* /64 (aliases sit where the patterns
        // are); 40%: an unpopulated subnet in the same site (the
        // never-before-seen aliases offline lists miss).
        let over_populated = rng.gen_bool(0.6);
        let subnet_id = if over_populated {
            u128::from(rng.gen_range(0..subnets))
        } else {
            u128::from(subnets + rng.gen_range(1..512))
        };
        let subnet = site.subprefix(64, subnet_id);
        let len_draw: f64 = rng.gen();
        let prefix = if len_draw < 0.15 {
            subnet // whole /64 aliased
        } else if len_draw < 0.50 {
            subnet.subprefix(80, u128::from(rng.gen_range(0u32..4)))
        } else {
            subnet.subprefix(96, u128::from(rng.gen_range(0u32..8)))
        };
        let ports_draw: f64 = rng.gen();
        let ports = if ports_draw < 0.60 {
            PortSet::ALL
        } else if ports_draw < 0.80 {
            PortSet::of([Protocol::Icmp, Protocol::Tcp80, Protocol::Tcp443])
        } else if ports_draw < 0.95 {
            PortSet::of([Protocol::Tcp80, Protocol::Tcp443])
        } else {
            PortSet::of([Protocol::Icmp])
        };
        let published = (i as f64 / cfg.alias_regions.max(1) as f64) < cfg.alias_published_fraction;
        let lossy = rng.gen_bool(cfg.alias_lossy_fraction);
        out.push(AliasRegion {
            prefix,
            ports,
            published,
            loss: if lossy { cfg.alias_loss } else { 0.0 },
        });
    }
    // Deduplicate identical prefixes (rare collisions of site+subnet draw).
    out.sort_by_key(|r| (r.prefix.network(), r.prefix.len()));
    out.dedup_by_key(|r| r.prefix);
    out
}

/// Build the domain universe over the generated web hosts.
fn gen_dns(rng: &mut SmallRng, web_hosts: &[(Ipv6Addr, AsKind, bool)]) -> DnsUniverse {
    let mut scored: Vec<(f64, DomainRecord)> = Vec::new();
    let mut id: u64 = 1;
    for &(addr, kind, churned) in web_hosts {
        let popularity = match kind {
            AsKind::Cdn => 30.0,
            AsKind::CloudHosting => 8.0,
            _ => 1.0,
        };
        let mut extra = 0;
        loop {
            let mut addrs = vec![addr];
            if rng.gen_bool(0.15) && web_hosts.len() > 1 {
                let (other, _, _) = web_hosts[rng.gen_range(0..web_hosts.len())];
                if other != addr {
                    addrs.push(other);
                }
            }
            let mut score = rng.gen::<f64>() / popularity;
            if churned {
                score *= 4.0; // dead sites rarely top the popularity charts
            }
            scored.push((score, DomainRecord { id, rank: 0, addrs }));
            id += 1;
            extra += 1;
            if extra >= 5 || !rng.gen_bool(0.30) {
                break;
            }
        }
    }
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let records = scored
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut r))| {
            r.rank = (i + 1) as u32;
            r
        })
        .collect();
    DnsUniverse::new(records)
}

/// Build a complete world from `cfg`. Deterministic in `cfg`.
pub fn build_world(cfg: WorldConfig) -> World {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut plan = AllocPlan::default();
    let mut registry = AsRegistry::new();
    let mut st = GenState {
        entries: Vec::new(),
        routers_by_as: HashMap::new(),
        web_hosts: Vec::new(),
        dense_sites: Vec::new(),
    };

    // ---- AS plan + host generation -------------------------------------
    let mut asn_counter: u32 = 1000;
    let mut all_asns: Vec<Asn> = Vec::with_capacity(cfg.num_ases);
    let mut transit_asns: Vec<Asn> = Vec::new();

    for _ in 0..cfg.num_ases {
        let kind = draw_kind(&mut rng);
        let country = draw_country(&mut rng);
        asn_counter += 1 + rng.gen_range(0..13);
        let asn = Asn(asn_counter);
        all_asns.push(asn);

        let slot = plan.next_slot32(country, &mut rng);
        let alloc = match kind {
            AsKind::Education | AsKind::Government | AsKind::Enterprise => {
                // small orgs announce a /40 carved from their slot
                Prefix::new(slot.network(), 40)
            }
            _ => slot,
        };
        registry.register(AsInfo {
            asn,
            name: synth_name(asn, kind),
            kind,
            country,
            allocations: vec![alloc],
        });

        let s = cfg.scale;
        match kind {
            AsKind::TransitIsp => {
                transit_asns.push(asn);
                let n = scaled(&mut rng, s, 40, 100);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, n);
            }
            AsKind::AccessIsp => {
                let r = scaled(&mut rng, s, 8, 24);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let c = scaled(&mut rng, s, 150, 600);
                gen_isp_customers(&mut st, &mut rng, &cfg, asn, kind, alloc, c);
            }
            AsKind::Mobile => {
                let r = scaled(&mut rng, s, 4, 12);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let c = scaled(&mut rng, s, 60, 200);
                gen_isp_customers(&mut st, &mut rng, &cfg, asn, kind, alloc, c);
            }
            AsKind::CloudHosting => {
                let r = scaled(&mut rng, s, 6, 16);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let sites = rng.gen_range(1..=3usize);
                for site_id in 0..sites {
                    let site = alloc.subprefix(48, (site_id + 1) as u128);
                    let subnets = scaled(&mut rng, s, 8, 40);
                    gen_hosting_site(&mut st, &mut rng, &cfg, asn, kind, site, subnets, 24);
                }
            }
            AsKind::Cdn => {
                let r = scaled(&mut rng, s, 8, 20);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let sites = rng.gen_range(2..=4usize);
                for site_id in 0..sites {
                    let site = alloc.subprefix(48, (site_id + 1) as u128);
                    let subnets = scaled(&mut rng, s, 30, 80);
                    gen_hosting_site(&mut st, &mut rng, &cfg, asn, kind, site, subnets, 40);
                }
            }
            AsKind::Education => {
                let r = scaled(&mut rng, s, 4, 10);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let subnets = scaled(&mut rng, s, 6, 20);
                gen_campus(&mut st, &mut rng, &cfg, asn, kind, alloc, subnets, 12);
            }
            AsKind::Government => {
                let r = scaled(&mut rng, s, 2, 6);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let subnets = scaled(&mut rng, s, 4, 12);
                gen_campus(&mut st, &mut rng, &cfg, asn, kind, alloc, subnets, 8);
            }
            AsKind::Enterprise => {
                let r = scaled(&mut rng, s, 2, 8);
                gen_routers(&mut st, &mut rng, &cfg, asn, kind, alloc, r);
                let subnets = scaled(&mut rng, s, 4, 14);
                gen_campus(&mut st, &mut rng, &cfg, asn, kind, alloc, subnets, 10);
            }
        }
    }

    // ---- Megapattern AS --------------------------------------------------
    let mega = if cfg.megapattern {
        asn_counter += 1;
        let asn = Asn(asn_counter);
        let slot = plan.next_slot32(Country::Us, &mut rng);
        registry.register(AsInfo {
            asn,
            name: "SatBroadband-12322-analog".to_string(),
            kind: AsKind::AccessIsp,
            country: Country::Us,
            allocations: vec![slot],
        });
        let base_len = 64 - 4 * u16::from(cfg.megapattern_free_nybbles);
        Some(MegaPattern {
            base: Prefix::new(slot.network(), base_len as u8),
            free_nybbles: cfg.megapattern_free_nybbles,
            rate: cfg.megapattern_rate,
            asn,
        })
    } else {
        None
    };

    // ---- Aliased regions -------------------------------------------------
    let alias_regions = gen_alias_regions(&mut rng, &cfg, &st.dense_sites);
    let mut alias_lookup: PrefixTrie<u32> = PrefixTrie::new();
    for (i, r) in alias_regions.iter().enumerate() {
        alias_lookup.insert(r.prefix, i as u32);
    }

    // ---- Assemble --------------------------------------------------------
    let hosts = AddrMap::build(std::mem::take(&mut st.entries));
    let dns = gen_dns(&mut rng, &st.web_hosts);

    let n_vantage = cfg.vantage_points.min(all_asns.len());
    let mut vantages = Vec::with_capacity(n_vantage);
    let mut pool = all_asns.clone();
    for _ in 0..n_vantage {
        if pool.is_empty() {
            break;
        }
        let i = rng.gen_range(0..pool.len());
        vantages.push(pool.swap_remove(i));
    }
    let topology = Topology::new(cfg.seed, st.routers_by_as.clone(), transit_asns, vantages);

    // ---- Stats -----------------------------------------------------------
    let mut stats = WorldStats {
        modeled_hosts: hosts.len(),
        ..WorldStats::default()
    };
    let mut live_asns = std::collections::HashSet::new();
    for (addr, rec) in hosts.iter() {
        if rec.churned {
            stats.churned_hosts += 1;
            continue;
        }
        if alias_lookup.lookup(addr).is_some() {
            continue; // covered by an aliased region; not an individual host
        }
        if rec.responds_any() {
            stats.responsive_any += 1;
            if let Some(asn) = registry.asn_of(addr) {
                live_asns.insert(asn);
            }
        }
        for p in PROTOCOLS {
            if rec.responds(p) {
                stats.responsive[p.index()] += 1;
            }
        }
    }
    stats.responsive_ases = live_asns.len();

    let faults = crate::faults::FaultPlan::new(cfg.faults.clone(), cfg.seed);
    World {
        cfg,
        registry,
        hosts,
        alias_regions,
        alias_lookup,
        topology,
        dns,
        mega,
        stats,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_builds_and_is_deterministic() {
        let w1 = build_world(WorldConfig::tiny(11));
        let w2 = build_world(WorldConfig::tiny(11));
        assert_eq!(w1.stats(), w2.stats());
        assert_eq!(w1.alias_regions().len(), w2.alias_regions().len());
        assert!(w1.stats().modeled_hosts > 1000, "hosts: {}", w1.stats().modeled_hosts);
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = build_world(WorldConfig::tiny(1));
        let w2 = build_world(WorldConfig::tiny(2));
        assert_ne!(w1.stats(), w2.stats());
    }

    #[test]
    fn icmp_dominates_responsiveness() {
        let w = build_world(WorldConfig::tiny(3));
        let s = w.stats();
        let icmp = s.responsive[Protocol::Icmp.index()];
        let t80 = s.responsive[Protocol::Tcp80.index()];
        let udp = s.responsive[Protocol::Udp53.index()];
        assert!(icmp > t80, "icmp {icmp} vs tcp80 {t80}");
        assert!(t80 > udp, "tcp80 {t80} vs udp53 {udp}");
        // ICMP covers the vast majority of active hosts (paper: ~98%)
        assert!(icmp as f64 > 0.85 * s.responsive_any as f64);
    }

    #[test]
    fn alias_list_is_incomplete() {
        let w = build_world(WorldConfig::tiny(5));
        let published = w.alias_regions().iter().filter(|r| r.published).count();
        let total = w.alias_regions().len();
        assert!(published > 0 && published < total, "{published}/{total}");
    }

    #[test]
    fn megapattern_lives_in_registered_as() {
        let w = build_world(WorldConfig::tiny(7));
        let mega = w.megapattern().expect("configured on");
        let a = mega.address(3);
        assert_eq!(w.asn_of(a), Some(mega.asn));
    }

    #[test]
    fn hosts_resolve_to_ases() {
        let w = build_world(WorldConfig::tiny(9));
        let mut misses = 0;
        for (addr, _) in w.hosts().iter().take(2000) {
            if w.asn_of(addr).is_none() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "every modeled host is inside announced space");
    }

    #[test]
    fn churn_exists_but_is_not_total() {
        let w = build_world(WorldConfig::tiny(13));
        let s = w.stats();
        assert!(s.churned_hosts > 0);
        assert!(s.churned_hosts < s.modeled_hosts);
        assert!(s.responsive_any > 0);
    }

    #[test]
    fn topology_has_routers_and_vantages() {
        let w = build_world(WorldConfig::tiny(15));
        assert!(w.topology().interface_count() > 50);
        assert!(!w.topology().vantages().is_empty());
        assert!(!w.topology().transit().is_empty());
    }

    #[test]
    fn dns_universe_is_populated_and_ranked() {
        let w = build_world(WorldConfig::tiny(17));
        let dns = w.dns();
        assert!(dns.len() > 100);
        assert_eq!(dns.all()[0].rank, 1);
        assert!(dns.all().windows(2).all(|w| w[0].rank < w[1].rank));
    }

    #[test]
    fn probing_an_alias_region_answers_everywhere() {
        let w = build_world(WorldConfig::tiny(19));
        let region = w
            .alias_regions()
            .iter()
            .find(|r| r.loss == 0.0 && r.ports.contains(Protocol::Icmp))
            .expect("some lossless ICMP alias region");
        use v6addr::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let addr = v6addr::rand_in_prefix(&region.prefix, &mut rng);
            // base_loss can drop an attempt, so allow retries
            let hit = (0..5).any(|att| w.probe(addr, Protocol::Icmp, att).is_hit());
            assert!(hit, "aliased {addr} should answer");
        }
    }
}
