//! Kill + resume determinism: a campaign interrupted at ANY round
//! boundary and resumed from its checkpoint must finish with reports,
//! counters, and a final checkpoint bit-identical to the uninterrupted
//! run — under hostile faults, circuit breakers, sharding, and (in the
//! degenerate single-shard path) a live token-bucket rate limiter.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use netmodel::{FaultConfig, Protocol, World, WorldConfig};
use sos_probe::{
    BreakerConfig, Campaign, CampaignCheckpoint, RetryPolicy, RunOptions, Scanner,
    ScannerConfig, SimTransport,
};

fn hostile_world(seed: u64) -> Arc<World> {
    let mut wc = WorldConfig::tiny(seed);
    wc.faults = FaultConfig::hostile();
    Arc::new(World::build(wc))
}

fn scanner(world: Arc<World>, rate_pps: Option<f64>) -> Scanner<SimTransport> {
    Scanner::new(
        ScannerConfig {
            retry: RetryPolicy::exponential(3, 0.01),
            breaker: Some(BreakerConfig::default()),
            rate_pps,
            ..ScannerConfig::default()
        },
        SimTransport::new(world),
    )
}

fn targets(world: &World) -> Vec<std::net::Ipv6Addr> {
    let mut out: Vec<std::net::Ipv6Addr> =
        world.hosts().iter().map(|(a, _)| a).step_by(2).take(200).collect();
    for i in 0..30u128 {
        out.push(std::net::Ipv6Addr::from((0x3fff_u128 << 112) | i));
    }
    out
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sos-ckpt-{}-{tag}.json", std::process::id()))
}

/// Strip the one counter that legitimately distinguishes a resumed run
/// from an uninterrupted one: how many targets it skipped past on wakeup.
fn normalized(mut ckpt: CampaignCheckpoint) -> CampaignCheckpoint {
    ckpt.counters.remove("probe.resumed_targets");
    ckpt
}

#[test]
fn resume_is_bit_identical_at_every_round_boundary() {
    const EVERY: usize = 48;
    let w = hostile_world(0xCE5);
    let t = targets(&w);

    // Arm provenance so the report-equality assertions below also pin the
    // per-region attribution tables across every kill/resume boundary —
    // ScanReport's PartialEq covers the table field.
    let prov = Arc::new(sos_probe::ProvenanceLog::for_targets(&t));
    let full_path = tmp("full");
    let opts = RunOptions {
        shards: 4,
        checkpoint_every: EVERY,
        checkpoint_path: Some(full_path.clone()),
        provenance: Some(prov),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), None);
    let full = Campaign::standard(&mut s).run_with(&t, &opts, None).unwrap();
    assert!(full.completed);
    assert_eq!(full.resumed_targets, 0);
    let full_attr = sos_probe::merged_attribution(&full.result.reports);
    assert!(!full_attr.is_empty(), "tagged campaign must attribute");
    for (proto, r) in &full.result.reports {
        let (probes, hits, _) = r.attribution.totals();
        assert_eq!(probes, r.probed as u64, "{proto:?} attribution probe sum");
        assert_eq!(hits, r.hits.len() as u64, "{proto:?} attribution hit sum");
    }
    let mut full_counters = s.metrics().counters();
    full_counters.remove("probe.resumed_targets");
    let full_ckpt = CampaignCheckpoint::load(&full_path).unwrap();

    for k in 1..full.rounds {
        let path = tmp(&format!("kill-{k}"));
        let kill_opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            stop_after_rounds: Some(k),
            ..opts.clone()
        };
        let mut s = scanner(w.clone(), None);
        let partial = Campaign::standard(&mut s).run_with(&t, &kill_opts, None).unwrap();
        assert!(!partial.completed, "stop_after_rounds={k} must interrupt");
        assert_eq!(partial.rounds, k);
        // The scanner "dies" here; a fresh one picks the checkpoint up.
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.done, (k * EVERY).min(t.len()));

        let resume_opts = RunOptions { checkpoint_path: Some(path.clone()), ..opts.clone() };
        let mut s2 = scanner(w.clone(), None);
        let resumed = Campaign::standard(&mut s2)
            .run_with(&t, &resume_opts, Some(&ckpt))
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.rounds, full.rounds, "killed at round {k}");
        assert_eq!(resumed.resumed_targets, ckpt.done);
        assert_eq!(
            resumed.result.reports, full.result.reports,
            "reports diverged after kill at round {k}"
        );
        assert_eq!(
            sos_probe::merged_attribution(&resumed.result.reports),
            full_attr,
            "attribution diverged after kill at round {k}"
        );
        let mut counters = s2.metrics().counters();
        assert_eq!(
            counters.remove("probe.resumed_targets"),
            Some(ckpt.done as u64)
        );
        assert_eq!(counters, full_counters, "counters diverged after kill at round {k}");
        assert_eq!(
            normalized(CampaignCheckpoint::load(&path).unwrap()),
            normalized(full_ckpt.clone()),
            "final checkpoint diverged after kill at round {k}"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&full_path);
}

/// The single-shard, single-protocol path runs through the scanner's own
/// token bucket — resuming must restore the bucket mid-stream so even the
/// virtual rate-limit waits come out bit-identical.
#[test]
fn resume_restores_the_rate_limiter_mid_stream() {
    let w = hostile_world(0x11A7E);
    let t = targets(&w);
    let opts = RunOptions { shards: 1, checkpoint_every: 30, ..RunOptions::default() };

    let mut s = scanner(w.clone(), Some(25.0));
    let full = Campaign::new(&mut s, vec![Protocol::Icmp])
        .run_with(&t, &opts, None)
        .unwrap();
    assert!(full.completed);
    let full_report = &full.result.reports[0].1;
    assert!(full_report.limited_seconds > 0.0, "limiter must actually bite");

    for k in [1, 3] {
        let path = tmp(&format!("limit-{k}"));
        let kill_opts = RunOptions {
            checkpoint_path: Some(path.clone()),
            stop_after_rounds: Some(k),
            ..opts.clone()
        };
        let mut s = scanner(w.clone(), Some(25.0));
        Campaign::new(&mut s, vec![Protocol::Icmp])
            .run_with(&t, &kill_opts, None)
            .unwrap();
        let ckpt = CampaignCheckpoint::load(&path).unwrap();
        assert!(ckpt.limiter.is_some(), "rate-limited campaign must snapshot its bucket");

        let mut s2 = scanner(w.clone(), Some(25.0));
        let resumed = Campaign::new(&mut s2, vec![Protocol::Icmp])
            .run_with(&t, &opts, Some(&ckpt))
            .unwrap();
        assert_eq!(
            resumed.result.reports, full.result.reports,
            "rate-limited resume diverged after kill at round {k}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Cancelling before the first round still writes a resumable checkpoint
/// recording zero progress; resuming it reproduces the whole campaign.
#[test]
fn cancelled_before_first_round_resumes_from_zero() {
    let w = hostile_world(0xCA9C);
    let t = targets(&w);
    let path = tmp("cancelled");
    let cancel = Arc::new(AtomicBool::new(true));
    let opts = RunOptions {
        shards: 2,
        checkpoint_every: 64,
        checkpoint_path: Some(path.clone()),
        cancel: Some(cancel),
        ..RunOptions::default()
    };
    let mut s = scanner(w.clone(), None);
    let stopped = Campaign::standard(&mut s).run_with(&t, &opts, None).unwrap();
    assert!(!stopped.completed);
    assert_eq!(stopped.rounds, 0);

    let ckpt = CampaignCheckpoint::load(&path).unwrap();
    assert_eq!(ckpt.done, 0);
    let resume_opts = RunOptions { cancel: None, checkpoint_path: None, ..opts.clone() };
    let mut s2 = scanner(w.clone(), None);
    let resumed = Campaign::standard(&mut s2)
        .run_with(&t, &resume_opts, Some(&ckpt))
        .unwrap();
    assert!(resumed.completed);

    let mut s3 = scanner(w, None);
    let uninterrupted = Campaign::standard(&mut s3)
        .run_with(&t, &RunOptions { shards: 2, checkpoint_every: 64, ..RunOptions::default() }, None)
        .unwrap();
    assert_eq!(resumed.result.reports, uninterrupted.result.reports);
    let _ = std::fs::remove_file(&path);
}
