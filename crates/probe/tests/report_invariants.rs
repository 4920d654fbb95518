//! Cross-checks between `ScanReport`, the per-scanner metrics registry,
//! and the rate limiter's own stall accounting. A report that doesn't
//! reconcile with the engine counters means one of them is lying — these
//! tests pin the invariants the manifest relies on.

use std::net::Ipv6Addr;
use std::sync::Arc;

use netmodel::{Protocol, World, WorldConfig};
use sos_probe::{
    AttributionTable, Provenance, RetryPolicy, ScanReport, Scanner, ScannerConfig, SimTransport,
};
use v6addr::{Prefix, PrefixSet};

fn world() -> Arc<World> {
    Arc::new(World::build(WorldConfig::tiny(0x0b5)))
}

fn mixed_targets(world: &World, n: usize) -> Vec<Ipv6Addr> {
    // Live, churned, and aliased hosts alike — plus guaranteed-dead
    // addresses — so every classification bucket can occur.
    let mut targets: Vec<Ipv6Addr> = world.hosts().iter().map(|(a, _)| a).take(n).collect();
    targets.push("3fff::dead".parse().unwrap());
    targets.push("3fff::beef".parse().unwrap());
    targets
}

fn assert_report_reconciles(report: &ScanReport, scanner: &Scanner<SimTransport>) {
    let m = scanner.metrics();
    assert_eq!(
        report.probed,
        report.hits.len() + report.rsts + report.unreachables + report.silent,
        "every probed target is classified exactly once"
    );
    assert!(
        report.packets_sent >= report.probed as u64,
        "at least one packet per probed target"
    );
    assert_eq!(m.counter("probe.packets_sent"), report.packets_sent);
    assert_eq!(m.counter("probe.hits"), report.hits.len() as u64);
    assert_eq!(m.counter("probe.rsts"), report.rsts as u64);
    assert_eq!(m.counter("probe.unreachables"), report.unreachables as u64);
    assert_eq!(m.counter("probe.silent"), report.silent as u64);
    assert_eq!(m.counter("probe.drop.duplicate"), report.duplicates as u64);
    assert_eq!(m.counter("probe.drop.blocklist"), report.blocked as u64);
}

#[test]
fn report_reconciles_with_engine_counters() {
    let w = world();
    let mut targets = mixed_targets(&w, 200);
    // Force duplicates and blocklist drops into the mix.
    targets.extend(targets.iter().take(10).copied().collect::<Vec<_>>());
    let mut blocklist = PrefixSet::new();
    blocklist.insert(Prefix::new(targets[0], 128));
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(1),
        rate_pps: None,
        blocklist,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    assert!(report.duplicates >= 10);
    assert_eq!(report.blocked, 1);
    assert!(!report.hits.is_empty());
    assert!(report.silent >= 2, "the dead addresses never answer");
    assert_report_reconciles(&report, &s);
    // Retries happen for every silent target (retries=1 → 2 attempts),
    // and the counter sees each extra attempt.
    assert_eq!(
        s.metrics().counter("probe.packets_sent"),
        report.probed as u64 + s.metrics().counter("probe.retries"),
        "packets = first attempts + retries"
    );
}

#[test]
fn retries_accumulate_across_scans() {
    let w = world();
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(3),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let dead: Vec<Ipv6Addr> = vec!["3fff::1".parse().unwrap(), "3fff::2".parse().unwrap()];
    s.scan(dead.clone(), Protocol::Icmp);
    s.scan(dead.iter().copied(), Protocol::Tcp80);
    // 2 targets × 2 scans × 3 retries each (silent targets exhaust
    // every attempt).
    assert_eq!(s.metrics().counter("probe.retries"), 12);
    assert_eq!(s.metrics().counter("probe.packets_sent"), 16);
}

#[test]
fn limiter_stalls_match_engine_counter_and_histogram() {
    let w = world();
    let targets = mixed_targets(&w, 50);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(0),
        rate_pps: Some(10.0), // tiny rate: almost every acquire stalls
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    let stalls = s.limiter().expect("limiter configured").total_stalls();
    assert!(stalls > 0, "a 10 pps limit must stall a 50-target scan");
    assert_eq!(s.metrics().counter("probe.ratelimit.stalls"), stalls);
    let h = s.metrics().wait_histogram();
    assert_eq!(h.count, stalls, "one histogram sample per stall");
    // Histogram is in µs; the report's virtual seconds must agree to
    // within quantization error (1 µs per sample).
    let hist_s = h.sum as f64 / 1e6;
    assert!(
        (hist_s - report.limited_seconds).abs() <= stalls as f64 * 1e-6,
        "histogram {hist_s}s vs report {}s",
        report.limited_seconds
    );
    assert_report_reconciles(&report, &s);
}

#[test]
fn unlimited_scanner_records_zero_stalls() {
    let w = world();
    let targets = mixed_targets(&w, 100);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(2),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut s = Scanner::new(cfg, SimTransport::new(w));
    let report = s.scan(targets, Protocol::Icmp);
    assert!(s.limiter().is_none());
    assert_eq!(report.limited_seconds, 0.0);
    assert_eq!(s.metrics().counter("probe.ratelimit.stalls"), 0);
    assert_eq!(s.metrics().wait_histogram().count, 0);
    assert_report_reconciles(&report, &s);
}

#[test]
fn retries_merge_equal_sequential_vs_sharded() {
    // `ScanReport.retries` must survive `absorb_shard` intact: the same
    // scan sharded 8 ways reports exactly the sequential retry count.
    let w = world();
    let targets = mixed_targets(&w, 150);
    let cfg = ScannerConfig {
        retry: RetryPolicy::fixed(2),
        rate_pps: None,
        ..ScannerConfig::default()
    };
    let mut seq = Scanner::new(cfg.clone(), SimTransport::new(w.clone()));
    let sequential = seq.scan(targets.iter().copied(), Protocol::Icmp);
    let mut par = Scanner::new(cfg, SimTransport::new(w));
    let sharded = par
        .scan_parallel(targets.iter().copied(), &[Protocol::Icmp], 8, None)
        .remove(0)
        .1;
    assert!(sequential.retries > 0, "silent targets must retry");
    assert_eq!(sequential.retries, sharded.retries);
    assert_eq!(sequential, sharded, "whole reports stay bit-identical");
    assert_eq!(
        par.metrics().counter("probe.retries"),
        sharded.retries,
        "the metrics registry agrees with the merged report"
    );
}

#[test]
fn every_scan_report_field_has_a_merge_rule() {
    // Every numeric field is either shard-summed, max-merged, or
    // parent-owned; `absorb_shard`'s exhaustive destructure makes a new
    // field a compile error, and this test pins the decided semantics.
    let mk = |scale: u64| ScanReport {
        hits: vec![Ipv6Addr::from(0x1000 + u128::from(scale))],
        probed: scale as usize,
        duplicates: 2 * scale as usize,
        blocked: 3 * scale as usize,
        rsts: 4 * scale as usize,
        unreachables: 5 * scale as usize,
        silent: 6 * scale as usize,
        skipped: 7 * scale as usize,
        retries: 8 * scale,
        packets_sent: 9 * scale,
        faults_injected: 10 * scale,
        breaker_opened: 11 * scale,
        backoff_waited_us: 12 * scale,
        throttled_us: 13 * scale,
        limited_seconds: 14.0 * scale as f64,
        attribution: {
            let mut t = AttributionTable::new();
            let p = Provenance { source: 1, region: 9, seed_digest: 0xf00, round: 0 };
            for _ in 0..scale {
                t.record_probe(p);
            }
            t.record_hit(p);
            t
        },
    };
    let mut merged = mk(1);
    merged.absorb_shard(mk(100));
    assert_eq!(merged.hits.len(), 2, "hits concatenate");
    assert_eq!(merged.probed, 101);
    assert_eq!(merged.duplicates, 202);
    assert_eq!(merged.blocked, 303);
    assert_eq!(merged.rsts, 404);
    assert_eq!(merged.unreachables, 505);
    assert_eq!(merged.silent, 606);
    assert_eq!(merged.skipped, 707);
    assert_eq!(merged.retries, 808);
    assert_eq!(merged.packets_sent, 909);
    assert_eq!(merged.faults_injected, 1010);
    assert_eq!(merged.breaker_opened, 1111);
    assert_eq!(merged.backoff_waited_us, 1212);
    assert_eq!(merged.throttled_us, 1313);
    // Shards rate-limit concurrently: wall-clock wait is the slowest
    // shard's, not the sum.
    assert_eq!(merged.limited_seconds, 1400.0, "max-merged, not summed");
    // Attribution tables merge key-wise: same (source, region) row sums.
    assert_eq!(merged.attribution.totals(), (101, 2, 0), "keyed sum");
    assert_eq!(merged.attribution.len(), 1);
}
