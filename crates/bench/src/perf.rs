//! The `sos-perf` wall-clock benchmark suite and regression harness.
//!
//! The suite answers a diagnostic question — *did this tree get slower
//! than the last one*, per hot path, in seconds, with a machine-readable
//! artifact per run. (End-to-end performance claims are `perfbench`'s
//! job; see its README.) The suite is a fixed, named set of hot-path
//! benchmarks (each TGA's generation, the region sampling and
//! enumeration kernels, probe-engine throughput, online/offline
//! dealiasing, `v6addr` trie operations); each runs `warmup` discarded iterations
//! followed by `reps` timed ones, and reports the **median** and **MAD**
//! (median absolute deviation) — both robust to the stray slow iteration
//! a shared CI runner produces.
//!
//! [`compare`] implements the noise-aware gate: a benchmark regresses
//! only when its median slows by more than `max(10%, 3×MAD)`, so a noisy
//! benchmark earns itself a proportionally wider band instead of flaking.
//! Results serialize to the `BENCH_PR<N>.json` schema (see
//! EXPERIMENTS.md), and the checked-in `BENCH_PR*.json` files at the repo
//! root form the performance trajectory of the codebase, one point per
//! PR.

use std::net::Ipv6Addr;
// sos-lint: allow(det-wallclock) the perf harness measures wall-clock by design; timings never feed scan results
use std::time::{Duration, Instant};

use netmodel::Protocol;
use v6addr::rng::SmallRng;
use sos_obs::json::Json;
use tga::{GenConfig, TgaId};
use v6addr::{Prefix, PrefixTrie};

use crate::bench_study;

/// Bumped when the JSON layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite execution parameters.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Timed iterations per benchmark.
    pub reps: usize,
    /// Discarded leading iterations (cache/branch warmup).
    pub warmup: usize,
    /// Reduced workload sizes (CI smoke runs).
    pub quick: bool,
    /// Only run benchmarks whose name contains this substring.
    pub filter: Option<String>,
    /// Test hook: add this many milliseconds of sleep to every timed
    /// iteration of the named benchmark, to prove the regression gate
    /// trips. Set from the `SOS_PERF_SLOW=name:ms` environment variable
    /// by the binary; never used in real runs.
    pub slow: Option<(String, u64)>,
}

impl PerfConfig {
    /// Full-fidelity settings (the trajectory points committed per PR).
    pub fn full() -> Self {
        PerfConfig { reps: 7, warmup: 2, quick: false, filter: None, slow: None }
    }

    /// Reduced settings for CI smoke runs (`--quick`).
    pub fn quick() -> Self {
        PerfConfig { reps: 3, warmup: 1, quick: true, filter: None, slow: None }
    }
}

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark name (`group/case`).
    pub name: String,
    /// Per-iteration wall-clock samples, in execution order.
    pub samples_s: Vec<f64>,
    /// Median of the samples.
    pub median_s: f64,
    /// Median absolute deviation of the samples.
    pub mad_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Slowest sample.
    pub max_s: f64,
}

/// Median of a sample set (mean of the middle pair for even sizes).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Median absolute deviation: `median(|x − median(xs)|)`.
pub fn mad(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let m = median(samples);
    let devs: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

/// The named benchmark closures, in suite order. Workload sizes shrink
/// under `quick`; every closure is deterministic (fixed seeds) so two
/// runs on the same tree measure the same work.
pub fn suite(cfg: &PerfConfig) -> Vec<(String, Box<dyn FnMut() + '_>)> {
    let study = bench_study();
    let mut benches: Vec<(String, Box<dyn FnMut() + '_>)> = Vec::new();

    // Each TGA's generation over the bench study's active seeds. Quick
    // mode halves the seed set as well as the budget: several generators
    // (6Graph's seed graph, `build_regions`) are dominated by per-seed
    // setup, and the CI quick-vs-full tripwire needs quick medians to sit
    // clearly below the committed full-mode baselines.
    let budget = if cfg.quick { 400 } else { 1500 };
    let seeds: Vec<Ipv6Addr> = if cfg.quick {
        study.pipeline().all_active.iter().copied().step_by(2).collect()
    } else {
        study.pipeline().all_active.clone()
    };
    for id in TgaId::ALL {
        let seeds = seeds.clone();
        benches.push((
            format!("gen/{}", id.label().to_lowercase()),
            Box::new(move || {
                let mut oracle = bench_study().scanner(0x9e0f ^ id as u64);
                let gen_cfg = GenConfig::new(budget, 0xBE7C ^ id as u64, Protocol::Icmp);
                let out = tga::build(id).generate(&seeds, &gen_cfg, &mut oracle);
                assert!(!out.is_empty() && out.len() <= budget);
            }),
        ));
    }

    // Provenance-tagging overhead: the same 6Tree generation workload as
    // `gen/6tree`, but with a recording log attached. The pair's delta is
    // the full cost of carrying per-candidate provenance through
    // generation (acceptance: ≤3% of the untagged median).
    {
        let seeds = seeds.clone();
        benches.push((
            "gen/provenance_overhead".to_string(),
            Box::new(move || {
                let id = TgaId::SixTree;
                let mut oracle = bench_study().scanner(0x9e0f ^ id as u64);
                let gen_cfg = GenConfig::new(budget, 0xBE7C ^ id as u64, Protocol::Icmp);
                let mut prov = sos_probe::provenance::ProvenanceLog::recording(id.code());
                let out = tga::build(id).generate_tagged(&seeds, &gen_cfg, &mut oracle, &mut prov);
                assert_eq!(prov.len(), out.len());
            }),
        ));
    }

    // Multi-worker generation fan-out (`tga::parallel`): the same
    // 6Scan/DET workload at 1, 4, and 8 workers over a larger budget (so
    // the per-round fan-out has enough units to fill the lanes). The
    // candidate streams are bit-identical across the trio (W-invariance),
    // so the medians read directly as parallel speedup.
    let par_budget = if cfg.quick { 600 } else { 4000 };
    for id in [TgaId::SixScan, TgaId::Det] {
        for workers in [1usize, 4, 8] {
            let seeds = seeds.clone();
            benches.push((
                format!("gen/{}_par_{}", id.label().to_lowercase(), workers),
                Box::new(move || {
                    let mut oracle = bench_study().scanner(0x9e0f ^ id as u64);
                    let gen_cfg = GenConfig::new(par_budget, 0xBE7C ^ id as u64, Protocol::Icmp)
                        .with_workers(workers);
                    let out = tga::build(id).generate(&seeds, &gen_cfg, &mut oracle);
                    assert!(!out.is_empty() && out.len() <= par_budget);
                }),
            ));
        }
    }

    // Parallel space-tree construction over the active seed set — the
    // second generation cost center (DET rebuilds its tree online). The
    // frontier-expansion prefix costs roughly the same at any seed count,
    // so quick mode quarters the seeds (on top of the halving above) to
    // keep its median clearly under the full-mode baseline.
    {
        let seeds: Vec<Ipv6Addr> = if cfg.quick {
            seeds.iter().copied().step_by(2).collect()
        } else {
            seeds.clone()
        };
        benches.push((
            "gen/build_regions".to_string(),
            Box::new(move || {
                let regions =
                    tga::build_regions_par(&seeds, tga::SplitStrategy::MinEntropy, 16, 1 << 16, 4);
                assert!(!regions.is_empty());
            }),
        ));
    }

    // The region kernels in isolation: bit-packed sampling (one draw per
    // free nybble, ORed into the cached base) and systematic enumeration,
    // over a 256-seed region with five free nybbles.
    {
        let seeds: Vec<Ipv6Addr> = (0..256u128)
            .map(|i| Ipv6Addr::from((0x2600u128 << 112) | ((i % 64) << 64) | (i * 7)))
            .collect();
        let region = tga::Region::from_seeds(&seeds);
        let sampled = region.clone();
        let draws = if cfg.quick { 20_000 } else { 200_000 };
        benches.push((
            "gen/region_sample".to_string(),
            Box::new(move || {
                let mut rng = SmallRng::seed_from_u64(2);
                let mut acc = 0u128;
                for _ in 0..draws {
                    acc ^= u128::from(sampled.sample(&mut rng, 0.05));
                }
                std::hint::black_box(acc);
            }),
        ));
        let limit = if cfg.quick { 4_096 } else { 65_536 };
        benches.push((
            "gen/region_enumerate".to_string(),
            Box::new(move || {
                let out = region.enumerate(limit);
                assert_eq!(out.len(), limit);
            }),
        ));
    }

    // Probe-engine throughput over a live/dead/aliased target mix. One
    // shared workload for the sequential wire path and the sharded
    // pipeline, so the `scan_parallel_*` medians read directly as speedup
    // over `probe/scan_icmp` (grown to 8192 targets in PR 4 so each of 8
    // shards still carries a meaningful slice).
    let scan_n = if cfg.quick { 512 } else { 8192 };
    let mut targets: Vec<Ipv6Addr> =
        study.world().hosts().iter().map(|(a, _)| a).step_by(3).take(scan_n / 2).collect();
    targets.extend((0..(scan_n - targets.len()) as u128).map(|i| {
        Ipv6Addr::from((0x3fff_u128 << 112) | i) // dead space
    }));
    {
        let targets = targets.clone();
        benches.push((
            "probe/scan_icmp".to_string(),
            Box::new(move || {
                let mut scanner = bench_study().scanner(0x5ca9);
                let report = scanner.scan(targets.iter().copied(), Protocol::Icmp);
                assert!(report.probed > 0);
            }),
        ));
    }
    for shards in [1usize, 4, 8] {
        let targets = targets.clone();
        benches.push((
            format!("probe/scan_parallel_{shards}"),
            Box::new(move || {
                let mut scanner = bench_study().scanner(0x5ca9);
                let reports =
                    scanner.scan_parallel(targets.iter().copied(), &[Protocol::Icmp], shards, None);
                assert!(reports[0].1.probed > 0);
            }),
        ));
    }

    // Journal-emission overhead: the same 8-shard workload driven through
    // the checkpointable campaign path, with and without the JSONL event
    // journal + Prometheus snapshot writers armed. The pair's delta is
    // the full cost of live telemetry (events are emitted at round
    // boundaries only, so it should stay well inside the noise band).
    for journal in [false, true] {
        let targets = targets.clone();
        let round = if cfg.quick { 128 } else { 1024 };
        let name = if journal { "probe/campaign_journal_8" } else { "probe/campaign_8" };
        benches.push((
            name.to_string(),
            Box::new(move || {
                let base = std::env::temp_dir()
                    .join(format!("sos_perf_journal_{}", std::process::id()));
                let mut scanner = bench_study().scanner(0x5ca9);
                let mut campaign =
                    sos_probe::Campaign::new(&mut scanner, vec![Protocol::Icmp]);
                let opts = sos_probe::RunOptions {
                    shards: 8,
                    checkpoint_every: round,
                    checkpoint_path: None,
                    cancel: None,
                    stop_after_rounds: None,
                    journal_path: journal.then(|| base.with_extension("jsonl")),
                    snapshot_path: journal.then(|| base.with_extension("prom")),
                    snapshot_every: 1,
                    provenance: None,
                };
                let run = campaign.run_with(&targets, &opts, None).expect("campaign runs");
                assert!(run.completed);
            }),
        ));
    }

    // Attribution overhead: the `probe/campaign_8` workload with every
    // target provenance-tagged, so the per-shard attribution tables and
    // their order-invariant merge are on the clock (acceptance: ≤3% over
    // the untagged campaign median).
    {
        let targets = targets.clone();
        let round = if cfg.quick { 128 } else { 1024 };
        benches.push((
            "probe/campaign_attributed_8".to_string(),
            Box::new(move || {
                let mut scanner = bench_study().scanner(0x5ca9);
                let mut campaign = sos_probe::Campaign::new(&mut scanner, vec![Protocol::Icmp]);
                let prov = sos_probe::provenance::ProvenanceLog::for_targets(&targets);
                let opts = sos_probe::RunOptions {
                    shards: 8,
                    checkpoint_every: round,
                    checkpoint_path: None,
                    cancel: None,
                    stop_after_rounds: None,
                    journal_path: None,
                    snapshot_path: None,
                    snapshot_every: 1,
                    provenance: Some(std::sync::Arc::new(prov)),
                };
                let run = campaign.run_with(&targets, &opts, None).expect("campaign runs");
                assert!(run.completed);
                let table = sos_probe::merged_attribution(&run.result.reports);
                assert!(!table.is_empty());
            }),
        ));
    }

    // Offline dealiasing: longest-prefix partition of the full seed set.
    let full: Vec<Ipv6Addr> = study.pipeline().full.clone();
    benches.push((
        "dealias/offline_partition".to_string(),
        Box::new(move || {
            let d = dealias::OfflineDealiaser::new(bench_study().world().published_alias_list());
            let (clean, aliased) = d.partition(full.iter().copied());
            assert_eq!(clean.len() + aliased.len(), full.len());
        }),
    ));

    // Online dealiasing: probe-based filter over an alias-rich list.
    let online_n = if cfg.quick { 64 } else { 256 };
    let alias_prefix = study
        .world()
        .alias_regions()
        .iter()
        .find(|r| r.ports.contains(Protocol::Icmp))
        .expect("bench world has alias regions")
        .prefix;
    let mut online_targets: Vec<Ipv6Addr> = (0..online_n as u128)
        .map(|i| Ipv6Addr::from(u128::from(alias_prefix.network()) | (i * 0x92e1)))
        .collect();
    online_targets.extend(study.world().hosts().iter().map(|(a, _)| a).take(online_n));
    benches.push((
        "dealias/online_filter".to_string(),
        Box::new(move || {
            let mut d = dealias::OnlineDealiaser::new(dealias::OnlineConfig {
                seed: 0xa11a,
                ..dealias::OnlineConfig::default()
            });
            let mut scanner = bench_study().scanner(0xa11b);
            let out = d.filter(&mut scanner, &online_targets, Protocol::Icmp);
            assert_eq!(out.clean.len() + out.aliased.len(), online_targets.len());
        }),
    ));

    // v6addr trie: insert N prefixes, then longest-prefix-match lookups.
    let trie_n = if cfg.quick { 1_000 } else { 4_000 };
    let prefixes: Vec<Prefix> = (0..trie_n as u128)
        .map(|i| {
            let base = (0x2600_u128 << 112) | ((i * 0x9e37_79b9) << 56);
            Prefix::new(Ipv6Addr::from(base), 48 + (i % 4) as u8 * 8)
        })
        .collect();
    {
        let prefixes = prefixes.clone();
        benches.push((
            "v6addr/trie_insert".to_string(),
            Box::new(move || {
                let mut t = PrefixTrie::new();
                for (i, &p) in prefixes.iter().enumerate() {
                    t.insert(p, i);
                }
                assert!(!t.is_empty());
            }),
        ));
    }
    let mut trie = PrefixTrie::new();
    for (i, &p) in prefixes.iter().enumerate() {
        trie.insert(p, i);
    }
    let lookups: Vec<Ipv6Addr> = (0..8192u128)
        .map(|i| Ipv6Addr::from((0x2600_u128 << 112) | (i * 0x5851_f42d) << 40))
        .collect();
    benches.push((
        "v6addr/trie_lookup".to_string(),
        Box::new(move || {
            let mut found = 0usize;
            for &a in &lookups {
                found += trie.lookup_value(a).is_some() as usize;
            }
            std::hint::black_box(found);
        }),
    ));

    benches
}

/// Names of every benchmark in the suite (before filtering).
pub fn bench_names(cfg: &PerfConfig) -> Vec<String> {
    suite(cfg).into_iter().map(|(name, _)| name).collect()
}

/// Run the (filtered) suite: `warmup` discarded + `reps` timed iterations
/// per benchmark, median/MAD summaries in suite order.
pub fn run_suite(cfg: &PerfConfig) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for (name, mut f) in suite(cfg) {
        if let Some(filter) = &cfg.filter {
            if !name.contains(filter.as_str()) {
                continue;
            }
        }
        let slow_ms = match &cfg.slow {
            Some((n, ms)) if *n == name => Some(*ms),
            _ => None,
        };
        for _ in 0..cfg.warmup {
            f();
        }
        let mut samples_s = Vec::with_capacity(cfg.reps);
        for _ in 0..cfg.reps {
            // sos-lint: allow(det-wallclock) the measurement loop itself; samples feed BENCH_PR*.json, not reports
            let t0 = Instant::now();
            f();
            if let Some(ms) = slow_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            samples_s.push(t0.elapsed().as_secs_f64());
        }
        out.push(summarize(name, samples_s));
    }
    out
}

/// Fold raw samples into a [`BenchResult`].
pub fn summarize(name: String, samples_s: Vec<f64>) -> BenchResult {
    let median_s = median(&samples_s);
    let mad_s = mad(&samples_s);
    let min_s = samples_s.iter().copied().fold(f64::INFINITY, f64::min);
    let max_s = samples_s.iter().copied().fold(0.0f64, f64::max);
    BenchResult { name, samples_s, median_s, mad_s, min_s, max_s }
}

/// Serialize results to the `BENCH_PR<N>.json` document (schema v1; see
/// EXPERIMENTS.md for the field-by-field description).
pub fn to_json(results: &[BenchResult], cfg: &PerfConfig) -> Json {
    let mut doc = Json::obj();
    doc.set("tool", "sos-perf");
    doc.set("schema_version", SCHEMA_VERSION);
    doc.set("quick", cfg.quick);
    doc.set("reps", cfg.reps);
    doc.set("warmup", cfg.warmup);
    let mut benches = Json::obj();
    for r in results {
        let mut b = Json::obj();
        b.set("median_s", r.median_s);
        b.set("mad_s", r.mad_s);
        b.set("min_s", r.min_s);
        b.set("max_s", r.max_s);
        b.set("samples_s", Json::Arr(r.samples_s.iter().map(|&s| Json::F64(s)).collect()));
        benches.set(&r.name, b);
    }
    doc.set("benchmarks", benches);
    doc
}

/// One benchmark's baseline-vs-current verdict.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline median seconds.
    pub base_median_s: f64,
    /// Current median seconds.
    pub cur_median_s: f64,
    /// Allowed slowdown before flagging: `max(10% of baseline median,
    /// 3×MAD of whichever run is noisier)`.
    pub threshold_s: f64,
    /// `cur − base` median seconds (negative = faster).
    pub delta_s: f64,
    /// True when the slowdown exceeds the threshold.
    pub regressed: bool,
}

/// Result of comparing a run against a baseline document.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Per-benchmark verdicts, in current-run order.
    pub comparisons: Vec<Comparison>,
    /// Baseline benchmarks missing from the current run (a removed or
    /// renamed benchmark is surfaced, not silently dropped).
    pub missing: Vec<String>,
    /// Current benchmarks with no baseline entry (new coverage).
    pub added: Vec<String>,
}

impl CompareReport {
    /// True when any benchmark regressed.
    pub fn has_regressions(&self) -> bool {
        self.comparisons.iter().any(|c| c.regressed)
    }
}

/// Compare current results against a parsed baseline document, applying
/// the `max(10%, 3×MAD)` noise-aware threshold per benchmark.
pub fn compare(baseline: &Json, current: &[BenchResult]) -> Result<CompareReport, String> {
    let benches = baseline
        .get("benchmarks")
        .ok_or("baseline has no 'benchmarks' section")?;
    let entries = benches.entries().ok_or("'benchmarks' is not an object")?;
    let mut report = CompareReport::default();
    for r in current {
        let Some(base) = benches.get(&r.name) else {
            report.added.push(r.name.clone());
            continue;
        };
        let base_median_s = base
            .get("median_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline {}: no median_s", r.name))?;
        let base_mad_s = base.get("mad_s").and_then(Json::as_f64).unwrap_or(0.0);
        let threshold_s = (0.10 * base_median_s).max(3.0 * base_mad_s.max(r.mad_s));
        let delta_s = r.median_s - base_median_s;
        report.comparisons.push(Comparison {
            name: r.name.clone(),
            base_median_s,
            cur_median_s: r.median_s,
            threshold_s,
            delta_s,
            regressed: delta_s > threshold_s,
        });
    }
    for (name, _) in entries {
        if !current.iter().any(|r| &r.name == name) {
            report.missing.push(name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // one wild outlier moves the mean, not the median/MAD
        let xs = [1.0, 1.1, 0.9, 1.0, 50.0];
        assert!((median(&xs) - 1.0).abs() < 1e-9);
        assert!((mad(&xs) - 0.1).abs() < 1e-9);
    }

    fn fake(name: &str, median_s: f64, mad_s: f64) -> BenchResult {
        BenchResult {
            name: name.into(),
            samples_s: vec![median_s],
            median_s,
            mad_s,
            min_s: median_s,
            max_s: median_s,
        }
    }

    fn baseline_doc(entries: &[(&str, f64, f64)]) -> Json {
        let results: Vec<BenchResult> =
            entries.iter().map(|&(n, m, d)| fake(n, m, d)).collect();
        to_json(&results, &PerfConfig::quick())
    }

    #[test]
    fn compare_passes_within_ten_percent() {
        let base = baseline_doc(&[("a", 1.0, 0.0)]);
        let report = compare(&base, &[fake("a", 1.09, 0.0)]).unwrap();
        assert!(!report.has_regressions(), "9% slower is inside the band");
        let report = compare(&base, &[fake("a", 1.11, 0.0)]).unwrap();
        assert!(report.has_regressions(), "11% slower trips the gate");
    }

    #[test]
    fn compare_widens_threshold_for_noisy_benchmarks() {
        // 50% MAD: a 40% slowdown is within 3×MAD noise
        let base = baseline_doc(&[("noisy", 1.0, 0.5)]);
        let report = compare(&base, &[fake("noisy", 1.4, 0.0)]).unwrap();
        assert!(!report.has_regressions(), "3×MAD = 1.5s band absorbs it");
        // current-run noise widens the band too
        let base = baseline_doc(&[("b", 1.0, 0.0)]);
        let report = compare(&base, &[fake("b", 1.4, 0.2)]).unwrap();
        assert!(!report.has_regressions());
    }

    #[test]
    fn compare_reports_added_and_missing() {
        let base = baseline_doc(&[("kept", 1.0, 0.0), ("removed", 1.0, 0.0)]);
        let report = compare(&base, &[fake("kept", 1.0, 0.0), fake("new", 1.0, 0.0)]).unwrap();
        assert_eq!(report.missing, vec!["removed".to_string()]);
        assert_eq!(report.added, vec!["new".to_string()]);
        assert_eq!(report.comparisons.len(), 1);
    }

    #[test]
    fn improvements_never_regress() {
        let base = baseline_doc(&[("a", 1.0, 0.0)]);
        let report = compare(&base, &[fake("a", 0.5, 0.0)]).unwrap();
        assert!(!report.has_regressions());
        assert!(report.comparisons[0].delta_s < 0.0);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let cfg = PerfConfig::quick();
        let results = vec![summarize("x/y".into(), vec![0.25, 0.5, 0.75])];
        let doc = to_json(&results, &cfg);
        let back = Json::parse(&doc.to_string_pretty()).expect("parses");
        assert_eq!(back.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
        let b = back.get("benchmarks").and_then(|bs| bs.get("x/y")).expect("bench");
        assert_eq!(b.get("median_s").and_then(Json::as_f64), Some(0.5));
        assert_eq!(b.get("samples_s").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn suite_names_are_stable_and_prefixed() {
        let names = bench_names(&PerfConfig::quick());
        assert!(names.len() >= 26, "16 gen + 7 probe + 2 dealias + 2 trie");
        for shards in [1, 4, 8] {
            assert!(names.contains(&format!("probe/scan_parallel_{shards}")));
        }
        // The generation fan-out trios (W-invariant streams, so medians
        // read as parallel speedup) plus the tree-build benchmark.
        for workers in [1, 4, 8] {
            assert!(names.contains(&format!("gen/6scan_par_{workers}")));
            assert!(names.contains(&format!("gen/det_par_{workers}")));
        }
        assert!(names.contains(&"gen/build_regions".to_string()));
        assert!(names.contains(&"gen/region_sample".to_string()));
        assert!(names.contains(&"gen/region_enumerate".to_string()));
        // The telemetry-overhead pair: identical campaign workloads, the
        // second with the journal + snapshot writers armed.
        assert!(names.contains(&"probe/campaign_8".to_string()));
        assert!(names.contains(&"probe/campaign_journal_8".to_string()));
        // The provenance-overhead pairs: tagged vs. untagged generation,
        // attributed vs. plain campaign.
        assert!(names.contains(&"gen/provenance_overhead".to_string()));
        assert!(names.contains(&"probe/campaign_attributed_8".to_string()));
        for n in &names {
            assert!(
                n.starts_with("gen/")
                    || n.starts_with("probe/")
                    || n.starts_with("dealias/")
                    || n.starts_with("v6addr/"),
                "unexpected group in {n}"
            );
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are unique");
    }
}
