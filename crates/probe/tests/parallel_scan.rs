//! Integration invariants for the sharded parallel scan pipeline: the
//! campaign's merged per-address view must equal the union of the
//! per-protocol reports, and the parallel path must be observationally
//! identical to a per-protocol loop of the sequential wire path for the
//! same world seed.

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{PortSet, World, WorldConfig, PROTOCOLS};
use sos_probe::{
    Campaign, CampaignResult, RetryPolicy, RunOptions, Scanner, ScannerConfig, SimTransport,
};

fn scanner(world: Arc<World>) -> Scanner<SimTransport> {
    Scanner::new(
        ScannerConfig {
            retry: RetryPolicy::fixed(2),
            rate_pps: None,
            ..ScannerConfig::default()
        },
        SimTransport::new(world),
    )
}

/// A target mix exercising every scan path: live hosts, routed holes
/// (unreachables), unrouted space (timeouts), and duplicates.
fn targets(world: &World) -> Vec<Ipv6Addr> {
    let mut out: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).step_by(5).take(220).collect();
    if let Some((live, _)) = world.hosts().iter().next() {
        let net = u128::from(live) & !0xffff_ffff_ffff_ffffu128;
        for i in 0..60u128 {
            let a = Ipv6Addr::from(net | (0xb000 + i));
            if world.hosts().get(a).is_none() {
                out.push(a);
            }
        }
    }
    for i in 0..40u128 {
        out.push(Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    let dups: Vec<Ipv6Addr> = out.iter().copied().step_by(9).collect();
    out.extend(dups);
    out
}

/// The sequential reference: one `Scanner::scan` per protocol, in order.
fn scan_each(s: &mut Scanner<SimTransport>, t: &[Ipv6Addr]) -> CampaignResult {
    CampaignResult::from_reports(PROTOCOLS.iter().map(|&p| (p, s.scan(t.iter().copied(), p))).collect())
}

/// The campaign entry point with no checkpointing: one round, sharded.
fn campaign(s: &mut Scanner<SimTransport>, t: &[Ipv6Addr], shards: usize) -> CampaignResult {
    let run = Campaign::standard(s)
        .run_with(t, &RunOptions { shards, ..RunOptions::default() }, None)
        .expect("campaign runs");
    assert!(run.completed);
    assert_eq!(run.rounds, 1, "checkpoint_every 0 scans everything in one round");
    run.result
}

/// The merged per-address `PortSet` view must be exactly the union of the
/// per-protocol `ScanReport.hits` — no address invented, none dropped,
/// no protocol bit set without a corresponding hit.
fn assert_portset_union(result: &CampaignResult) {
    let mut union: HashMap<u128, PortSet> = HashMap::new();
    for (proto, report) in &result.reports {
        for &hit in &report.hits {
            union.entry(u128::from(hit)).or_insert(PortSet::EMPTY).insert(*proto);
        }
    }
    let merged: Vec<(Ipv6Addr, PortSet)> = result.iter().collect();
    assert_eq!(merged.len(), union.len(), "merged view has exactly the union's addresses");
    for (addr, ports) in merged {
        assert_eq!(
            union.get(&u128::from(addr)).copied(),
            Some(ports),
            "per-address ports must equal the union of per-protocol hits at {addr}"
        );
    }
    // and per protocol, the responsive_on count agrees with the report
    for (proto, report) in &result.reports {
        assert_eq!(result.responsive_on(*proto), report.hits.len());
    }
}

#[test]
fn campaign_merge_is_the_union_of_per_protocol_hits() {
    let world = Arc::new(World::build(WorldConfig::tiny(0xF00D)));
    let t = targets(&world);

    let mut s = scanner(world);
    let par = campaign(&mut s, &t, 4);
    assert_portset_union(&par);
}

#[test]
fn parallel_campaign_is_identical_to_sequential_for_the_same_world() {
    let world = Arc::new(World::build(WorldConfig::tiny(0xF00D)));
    let t = targets(&world);

    let mut s = scanner(world.clone());
    let seq = scan_each(&mut s, &t);
    let seq_packets = s.packets_sent();

    for shards in [1, 3, 8] {
        let mut s = scanner(world.clone());
        let par = campaign(&mut s, &t, shards);

        // Same responsive map, address for address, port for port.
        assert_eq!(
            seq.iter().collect::<Vec<_>>(),
            par.iter().collect::<Vec<_>>(),
            "responsive map must match at {shards} shards"
        );
        // Same per-protocol reports, bit for bit (hits in input order,
        // identical packet/dedup/blocklist/outcome counters).
        assert_eq!(seq.reports.len(), par.reports.len());
        for ((p_seq, r_seq), (p_par, r_par)) in seq.reports.iter().zip(par.reports.iter()) {
            assert_eq!(p_seq, p_par);
            assert_eq!(r_seq, r_par, "report for {p_seq:?} must match at {shards} shards");
        }
        assert_eq!(seq_packets, s.packets_sent(), "same packet budget at {shards} shards");
    }
}

#[test]
fn every_hit_is_ground_truth_responsive() {
    let world = Arc::new(World::build(WorldConfig::tiny(0xF00D)));
    let t = targets(&world);
    let mut s = scanner(world.clone());
    let par = campaign(&mut s, &t, 4);
    for proto in PROTOCOLS {
        let (_, report) = &par.reports[proto.index()];
        for &hit in &report.hits {
            assert!(world.truth_responds(hit, proto), "{hit} on {proto:?}");
        }
    }
}
