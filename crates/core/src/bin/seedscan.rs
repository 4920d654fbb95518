//! `seedscan` — run any experiment of the study from the command line.
//!
//! ```text
//! seedscan <experiment> [--scale tiny|small|study] [--seed N] [--budget N]
//!          [--threads N] [--scan-shards N] [--gen-workers N]
//!          [--faults PRESET] [--breaker]
//!          [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//!          [--stop-after N] [--journal FILE] [--snapshot-every N]
//!          [--manifest FILE] [--trace FILE] [--flame FILE]
//! seedscan watch <journal> [--replay] [--interval-ms N] [--max-idle-polls N]
//! seedscan explain <manifest|journal> [--json] [--top N]
//!
//! experiments:
//!   summary      Table 3 + Table 8 (dataset composition)
//!   overlap      Figures 1–2 (source overlap matrices)
//!   rq1          Figure 3, Table 4, Figure 4
//!   rq2          Figure 5
//!   rq3          Tables 5, 6, 13 (ICMP)
//!   rq4          Figure 6
//!   appendix-d   Figure 7
//!   raw          Tables 9–12
//!   recommend    RQ5 recommendation list
//!   as-kind      extension: Steger-style AS-category seed slices
//!   budget-sweep extension: hits/ASes saturation vs generation budget
//!   export       write grid + figure CSVs to ./export/
//!   campaign     checkpointable multi-protocol scan of the full dataset
//!                (hostile-network demo: --faults/--breaker/--checkpoint)
//!   all          everything above except campaign
//! ```
//!
//! `--scan-shards` must be ≥ 1: an explicit `0` is rejected here rather
//! than silently normalized (the scan pipeline clamps internal shard
//! counts with `.max(1)`, but a user
//! asking for zero shards is a configuration mistake, not a request for
//! the sequential path). `--gen-workers` follows the same rule and fans
//! out 6Scan/DET generation rounds across worker threads; candidate
//! streams are bit-identical at any worker count (W-invariance, see the
//! README's "Parallel generation"), so like `--scan-shards` it only buys
//! wall clock. Both default to `--threads` when given, else 1.
//! `--faults` selects a deterministic hostile-world
//! preset (off, bursty, ratelimited, blackholes, throttled, hostile) baked
//! into the world model; `--breaker` arms per-/48 circuit breakers;
//! `--checkpoint FILE` + `--checkpoint-every N` write a resumable JSON
//! checkpoint every N targets, and `--resume FILE` continues a killed
//! campaign bit-identically (`--stop-after N` stops after N rounds to
//! simulate the kill).
//!
//! Live telemetry: `--journal FILE` makes the campaign append one JSON
//! line per event (round boundaries, checkpoints, breaker and fault-epoch
//! transitions, exact counter snapshots) and renders a Prometheus-style
//! text snapshot next to it (`FILE` with a `.prom` extension) every
//! `--snapshot-every N` round boundaries (default every round).
//! `seedscan watch <journal>` tails that file from another terminal and
//! renders a live status table; `--replay` folds a finished (or torn)
//! journal once and prints the final state plus the exact reconstructed
//! counter totals, which match the live run's manifest bit-for-bit. A
//! torn journal (no `campaign_end` record — the writer was killed)
//! replays as `[truncated]`, never as "running".
//!
//! Discovery attribution: a campaign tags every target with its /32
//! region, so the manifest records which parts of the address space the
//! probes, hits, and aliases landed in (`campaign.attribution`), hits
//! resolved against the world's ground truth by addressing scheme and
//! origin AS, and a per-/32 coverage map against the modeled host
//! density. `seedscan explain <manifest|journal>` renders all of it as
//! ranked tables plus a text address-space heatmap (`--json` for the
//! machine-readable form), and cross-checks the attribution sums against
//! the campaign's own scan counters.
//!
//! Observability: progress and milestones go to stderr at the level
//! selected by `SOS_LOG` (default `info` here; `debug` adds span-level
//! phase timing). `--manifest FILE` writes a JSON run manifest with the
//! full configuration, per-phase timings, engine counters, parallelism
//! stats, and FNV-1a digests of every rendered result — two runs of the
//! same configuration produce identical digests. `--trace FILE` writes a
//! Chrome trace-event timeline (load in Perfetto or `chrome://tracing`)
//! with one lane per thread; `--flame FILE` writes self-time attribution
//! in collapsed-stack format for flamegraph tooling.

use std::cell::RefCell;
use std::process::ExitCode;

use sos_core::experiments::{self, master_grid};
use sos_core::{Study, StudyConfig};
use sos_obs::manifest::Manifest;

struct Args {
    experiment: String,
    scale: String,
    seed: u64,
    budget: Option<usize>,
    threads: Option<usize>,
    scan_shards: Option<usize>,
    gen_workers: Option<usize>,
    faults: Option<String>,
    breaker: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: Option<String>,
    stop_after: Option<usize>,
    journal: Option<String>,
    snapshot_every: Option<usize>,
    manifest: Option<String>,
    trace: Option<String>,
    flame: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        experiment: String::new(),
        scale: "small".to_string(),
        seed: 0xC0FFEE,
        budget: None,
        threads: None,
        scan_shards: None,
        gen_workers: None,
        faults: None,
        breaker: false,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        stop_after: None,
        journal: None,
        snapshot_every: None,
        manifest: None,
        trace: None,
        flame: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => args.scale = it.next().ok_or("--scale needs a value")?,
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--budget" => {
                args.budget = Some(
                    it.next()
                        .ok_or("--budget needs a value")?
                        .parse()
                        .map_err(|e| format!("bad budget: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                )
            }
            "--scan-shards" => {
                let n: usize = it
                    .next()
                    .ok_or("--scan-shards needs a value")?
                    .parse()
                    .map_err(|e| format!("bad shard count: {e}"))?;
                if n == 0 {
                    return Err(
                        "--scan-shards must be >= 1 (use 1 for the sequential scan path)"
                            .to_string(),
                    );
                }
                args.scan_shards = Some(n)
            }
            "--gen-workers" => {
                let n: usize = it
                    .next()
                    .ok_or("--gen-workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if n == 0 {
                    return Err(
                        "--gen-workers must be >= 1 (use 1 for sequential generation)"
                            .to_string(),
                    );
                }
                args.gen_workers = Some(n)
            }
            "--faults" => args.faults = Some(it.next().ok_or("--faults needs a value")?),
            "--breaker" => args.breaker = true,
            "--checkpoint" => args.checkpoint = Some(it.next().ok_or("--checkpoint needs a value")?),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    it.next()
                        .ok_or("--checkpoint-every needs a value")?
                        .parse()
                        .map_err(|e| format!("bad checkpoint interval: {e}"))?,
                )
            }
            "--resume" => args.resume = Some(it.next().ok_or("--resume needs a value")?),
            "--stop-after" => {
                args.stop_after = Some(
                    it.next()
                        .ok_or("--stop-after needs a value")?
                        .parse()
                        .map_err(|e| format!("bad round count: {e}"))?,
                )
            }
            "--journal" => args.journal = Some(it.next().ok_or("--journal needs a value")?),
            "--snapshot-every" => {
                args.snapshot_every = Some(
                    it.next()
                        .ok_or("--snapshot-every needs a value")?
                        .parse()
                        .map_err(|e| format!("bad snapshot interval: {e}"))?,
                )
            }
            "--manifest" => args.manifest = Some(it.next().ok_or("--manifest needs a value")?),
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a value")?),
            "--flame" => args.flame = Some(it.next().ok_or("--flame needs a value")?),
            "--help" | "-h" => return Err(String::new()),
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if args.experiment.is_empty() {
        return Err(String::new());
    }
    // Reject a typo before the (possibly minutes-long) study build.
    if !EXPERIMENTS.contains(&args.experiment.as_str()) {
        return Err(format!("unknown experiment: {}", args.experiment));
    }
    Ok(args)
}

/// Every experiment name `seedscan` runs, in usage order.
const EXPERIMENTS: &[&str] = &[
    "summary", "overlap", "rq1", "rq2", "rq3", "rq4", "appendix-d", "raw", "recommend", "as-kind",
    "budget-sweep", "export", "campaign", "all",
];

fn usage() {
    eprintln!(
        "usage: seedscan <experiment> [--scale tiny|small|study] [--seed N] [--budget N]\n\
         \u{20}                [--threads N] [--scan-shards N] [--gen-workers N] [--faults PRESET] [--breaker]\n\
         \u{20}                [--checkpoint FILE] [--checkpoint-every N] [--resume FILE] [--stop-after N]\n\
         \u{20}                [--journal FILE] [--snapshot-every N]\n\
         \u{20}                [--manifest FILE] [--trace FILE] [--flame FILE]\n\
         \u{20}      seedscan watch <journal> [--replay] [--interval-ms N] [--max-idle-polls N]\n\
         \u{20}      seedscan explain <manifest|journal> [--json] [--top N]\n\
         experiments: {}\n\
         fault presets: off bursty ratelimited blackholes throttled hostile\n\
         env: SOS_LOG=off|error|warn|info|debug|trace (stderr verbosity, default info)",
        EXPERIMENTS.join(" ")
    );
}

/// `seedscan watch <journal> [--replay] [--interval-ms N] [--max-idle-polls N]`
///
/// `--replay` folds the journal once and prints the final status plus the
/// exact reconstructed counter totals. Without it, the journal is tailed
/// live until a `campaign_end` record arrives; `--max-idle-polls N`
/// detaches after N consecutive empty polls (for scripted use against a
/// killed campaign's journal).
fn run_watch(rest: Vec<String>) -> ExitCode {
    let mut journal: Option<String> = None;
    let mut replay = false;
    let mut interval_ms: u64 = 500;
    let mut max_idle_polls: Option<u64> = None;
    let mut it = rest.into_iter();
    let parse_err = loop {
        let Some(a) = it.next() else { break None };
        match a.as_str() {
            "--replay" => replay = true,
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval_ms = v,
                None => break Some("--interval-ms needs an integer value".to_string()),
            },
            "--max-idle-polls" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_idle_polls = Some(v),
                None => break Some("--max-idle-polls needs an integer value".to_string()),
            },
            other if journal.is_none() && !other.starts_with('-') => {
                journal = Some(other.to_string())
            }
            other => break Some(format!("unexpected watch argument: {other}")),
        }
    };
    let journal = match (parse_err, journal) {
        (Some(e), _) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
        (None, None) => {
            eprintln!("error: watch needs a journal path");
            usage();
            return ExitCode::FAILURE;
        }
        (None, Some(j)) => j,
    };
    let path = std::path::Path::new(&journal);
    if replay {
        match sos_core::watch::replay(path) {
            Ok(state) => {
                print!("{}", state.render());
                println!("final counters (reconstructed from last snapshot):");
                print!("{}", state.render_counters());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: replaying {journal}: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut out = std::io::stdout();
        match sos_core::watch::watch_live(
            path,
            std::time::Duration::from_millis(interval_ms),
            max_idle_polls,
            &mut out,
        ) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: watching {journal}: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// `seedscan explain <manifest|journal> [--json] [--top N]`
///
/// Auto-detects the artifact kind: a run manifest (one JSON document)
/// yields the full attribution view — ranked regions, per-scheme and
/// per-AS hit tables, waste histograms, coverage heatmap; a telemetry
/// journal yields the folded per-source discovery totals plus the exact
/// counter snapshot. `--json` emits the same content machine-readably.
fn run_explain(rest: Vec<String>) -> ExitCode {
    let mut artifact: Option<String> = None;
    let mut json = false;
    let mut top: usize = 15;
    let mut it = rest.into_iter();
    let parse_err = loop {
        let Some(a) = it.next() else { break None };
        match a.as_str() {
            "--json" => json = true,
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => top = v,
                None => break Some("--top needs an integer value".to_string()),
            },
            other if artifact.is_none() && !other.starts_with('-') => {
                artifact = Some(other.to_string())
            }
            other => break Some(format!("unexpected explain argument: {other}")),
        }
    };
    let artifact = match (parse_err, artifact) {
        (Some(e), _) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
        (None, None) => {
            eprintln!("error: explain needs a manifest or journal path");
            usage();
            return ExitCode::FAILURE;
        }
        (None, Some(p)) => p,
    };
    match sos_core::explain::explain(std::path::Path::new(&artifact), json, top.max(1)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    sos_obs::log::init_from_env_or(sos_obs::Level::Info);
    {
        let mut raw = std::env::args().skip(1);
        match raw.next().as_deref() {
            Some("watch") => return run_watch(raw.collect()),
            Some("explain") => return run_explain(raw.collect()),
            _ => {}
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = match args.scale.as_str() {
        "tiny" => StudyConfig::tiny(args.seed),
        "small" => StudyConfig::small(args.seed),
        "study" => StudyConfig::study(args.seed),
        other => {
            eprintln!("unknown scale: {other}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(b) = args.budget {
        cfg.budget = b;
    }
    cfg.threads = args.threads;
    // Scan sharding follows `--threads` unless `--scan-shards` says
    // otherwise; either way results are bit-identical to shards = 1.
    cfg.scan_shards = args.scan_shards.or(args.threads).unwrap_or(cfg.scan_shards).max(1);
    // Generation fan-out likewise follows `--threads` unless
    // `--gen-workers` overrides; candidate streams are W-invariant.
    cfg.gen_workers = args.gen_workers.or(args.threads).unwrap_or(cfg.gen_workers).max(1);
    let fault_preset = args.faults.clone().unwrap_or_else(|| "off".to_string());
    match netmodel::FaultConfig::preset(&fault_preset) {
        Some(f) => cfg.world.faults = f,
        None => {
            eprintln!(
                "unknown fault preset: {fault_preset} \
                 (expected off|bursty|ratelimited|blackholes|throttled|hostile)"
            );
            return ExitCode::FAILURE;
        }
    }

    let manifest = RefCell::new(Manifest::new("seedscan"));
    {
        let mut m = manifest.borrow_mut();
        m.set("experiment", args.experiment.as_str());
        m.config("scale", args.scale.as_str());
        m.config("seed", args.seed);
        m.config("budget", cfg.budget);
        m.config("threads", cfg.effective_threads());
        m.config("scan_shards", cfg.scan_shards);
        m.config("gen_workers", cfg.gen_workers);
        m.config("scan_retries", cfg.scan_retries);
        m.config("gen_seed", cfg.gen_seed);
        m.config("faults", fault_preset.as_str());
        m.config("breaker", if args.breaker { "on" } else { "off" });
        m.config("checkpoint_every", args.checkpoint_every.unwrap_or(0) as u64);
    }
    // Print a rendered result and record its digest for the manifest.
    let emit = |name: &str, text: String| {
        manifest.borrow_mut().record_digest(name, &text);
        println!("{text}");
    };

    sos_obs::info!(
        "seedscan: building study, scale={} seed={:#x} budget={} threads={}",
        args.scale,
        args.seed,
        cfg.budget,
        cfg.effective_threads(),
    );
    let t0 = sos_obs::now_s();
    let study = Study::new(cfg);
    sos_obs::info!(
        "study ready in {:.1}s: {} modeled hosts, {} responsive, {} seeds collected",
        sos_obs::now_s() - t0,
        study.world().stats().modeled_hosts,
        study.world().stats().responsive_any,
        study.pipeline().full.len()
    );
    {
        let mut m = manifest.borrow_mut();
        m.config("modeled_hosts", study.world().stats().modeled_hosts);
        m.config("responsive_any", study.world().stats().responsive_any);
        m.config("seeds_collected", study.pipeline().full.len());
    }

    let needs_grid = matches!(
        args.experiment.as_str(),
        "rq1" | "rq2" | "rq4" | "appendix-d" | "raw" | "recommend" | "export" | "all"
    );
    let grid = if needs_grid {
        let t = sos_obs::now_s();
        let g = master_grid(&study);
        sos_obs::info!("master grid ({} cells) in {:.1}s", g.len(), sos_obs::now_s() - t);
        Some(g)
    } else {
        None
    };

    let run = |name: &str| -> bool {
        args.experiment == name || args.experiment == "all"
    };

    if run("summary") {
        emit("summary.datasets", experiments::summary::dataset_summary(&study).render());
        emit("summary.domains", experiments::summary::domain_volume(&study).render());
    }
    if run("overlap") {
        let full = experiments::summary::overlap_full(&study);
        emit(
            "overlap.full",
            experiments::summary::render_overlap(&full, "Figure 1 — seed overlap (IP %)"),
        );
        let active = experiments::summary::overlap_active(&study);
        emit(
            "overlap.active",
            experiments::summary::render_overlap(&active, "Figure 2 — responsive seed overlap (IP %)"),
        );
    }
    if let Some(grid) = grid.as_ref() {
        if run("rq1") {
            emit("rq1.fig3", experiments::rq1::fig3_dealias_ratio(grid).render());
            emit("rq1.table4", experiments::rq1::table4_alias_regimes(grid).render());
            emit("rq1.fig4", experiments::rq1::fig4_active_ratio(grid).render());
        }
        if run("rq2") {
            emit("rq2.fig5", experiments::rq2::port_specific_ratios(grid).render());
        }
        if run("rq4") {
            for proto in netmodel::PROTOCOLS {
                let hits = experiments::rq4::combination_hits(grid, proto);
                emit(
                    &format!("rq4.hits.{}", proto.label()),
                    experiments::rq4::render_contribution(&hits, "hit"),
                );
                let ases = experiments::rq4::combination_ases(grid, proto);
                emit(
                    &format!("rq4.ases.{}", proto.label()),
                    experiments::rq4::render_contribution(&ases, "AS"),
                );
            }
        }
        if run("appendix-d") {
            let m = experiments::appendix_d::cross_port_matrix(grid);
            for proto in netmodel::PROTOCOLS {
                emit(&format!("appendix_d.{}", proto.label()), m.render_panel(proto));
            }
        }
        if run("raw") {
            for proto in netmodel::PROTOCOLS {
                emit(
                    &format!("raw.{}", proto.label()),
                    experiments::rq1::raw_numbers_table(grid, proto),
                );
            }
        }
        if run("recommend") {
            let recs = experiments::recommend::recommendations(grid);
            emit("recommend", experiments::recommend::render(&recs));
        }
        if run("export") {
            std::fs::create_dir_all("export").expect("create export dir");
            let write = |name: &str, f: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
                let mut buf = Vec::new();
                f(&mut buf).expect("serialize");
                manifest
                    .borrow_mut()
                    .record_digest(&format!("export.{name}"), &String::from_utf8_lossy(&buf));
                std::fs::write(format!("export/{name}"), buf).expect("write csv");
                sos_obs::info!("wrote export/{name}");
            };
            write("grid.csv", &|w| sos_core::export::write_grid_csv(w, grid));
            let fig3 = experiments::rq1::fig3_dealias_ratio(grid);
            write("fig3_dealias_ratio.csv", &|w| sos_core::export::write_ratio_csv(w, &fig3));
            let fig4 = experiments::rq1::fig4_active_ratio(grid);
            write("fig4_active_ratio.csv", &|w| sos_core::export::write_ratio_csv(w, &fig4));
            let fig5 = experiments::rq2::port_specific_ratios(grid);
            write("fig5_port_specific.csv", &|w| sos_core::export::write_ratio_csv(w, &fig5));
            for proto in netmodel::PROTOCOLS {
                let c = experiments::rq4::combination_hits(grid, proto);
                write(&format!("fig6_hits_{}.csv", proto.label().to_lowercase()), &|w| {
                    sos_core::export::write_contribution_csv(w, &c)
                });
            }
        }
    }
    if run("budget-sweep") {
        let t = sos_obs::now_s();
        let ladder = experiments::budget::default_ladder(&study);
        let curves =
            experiments::budget::budget_sweep(&study, &tga::TgaId::ALL, &ladder, netmodel::Protocol::Icmp);
        sos_obs::info!("budget sweep in {:.1}s", sos_obs::now_s() - t);
        emit("budget_sweep", experiments::budget::render(&curves, netmodel::Protocol::Icmp));
        let rows: Vec<(String, f64)> = curves
            .iter()
            .map(|c| (c.tga.label().to_string(), c.tail_efficiency()))
            .collect();
        emit(
            "budget_sweep.tail",
            sos_core::chart::bar_chart("Tail efficiency (marginal hits per candidate)", &rows, 50),
        );
    }
    if run("as-kind") {
        let t = sos_obs::now_s();
        let r = experiments::as_kind::run_by_kind(&study, &tga::TgaId::ALL);
        sos_obs::info!("as-kind in {:.1}s", sos_obs::now_s() - t);
        emit("as_kind", r.render(&study));
    }
    // Explicit-only (not part of `all`): the hostile-network campaign
    // demo — fault injection, circuit breakers, checkpoint/resume.
    if args.experiment == "campaign" {
        use sos_probe::{
            BreakerConfig, Campaign, CampaignCheckpoint, RetryPolicy, RunOptions, Scanner,
            ScannerConfig, SimTransport,
        };
        let resume = match args.resume.as_deref() {
            None => None,
            Some(path) => match CampaignCheckpoint::load(std::path::Path::new(path)) {
                Ok(c) => {
                    sos_obs::info!("resuming from {path}: {} targets done, {} rounds", c.done, c.rounds);
                    Some(c)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let scan_cfg = ScannerConfig {
            salt: args.seed ^ 0x5ca9,
            retry: RetryPolicy::exponential(study.config().scan_retries + 1, 0.05),
            breaker: args.breaker.then(BreakerConfig::default),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut scanner = Scanner::new(scan_cfg, SimTransport::new(study.world().clone()));
        let mut campaign = Campaign::standard(&mut scanner);
        let targets = study.pipeline().full.clone();
        // Tag every target with its /32 region so the run carries full
        // discovery attribution (pure observer: results stay bit-identical
        // to an untagged run).
        let provenance = std::sync::Arc::new(sos_probe::provenance::ProvenanceLog::for_targets(&targets));
        let opts = RunOptions {
            shards: study.config().scan_shards,
            checkpoint_every: args.checkpoint_every.unwrap_or(0),
            checkpoint_path: args.checkpoint.as_ref().map(std::path::PathBuf::from),
            cancel: None,
            stop_after_rounds: args.stop_after,
            journal_path: args.journal.as_ref().map(std::path::PathBuf::from),
            // The Prometheus-style text snapshot rides next to the journal.
            snapshot_path: args
                .journal
                .as_ref()
                .map(|p| std::path::PathBuf::from(p).with_extension("prom")),
            snapshot_every: args.snapshot_every.unwrap_or(1),
            provenance: Some(provenance),
        };
        let outcome = match campaign.run_with(&targets, &opts, resume.as_ref()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut text = format!(
            "Campaign over {} targets (faults={fault_preset}, breaker={}, shards={})\n\
             completed={} rounds={} resumed_targets={}\n\
             {:<7} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
            targets.len(),
            if args.breaker { "on" } else { "off" },
            opts.shards.max(1),
            outcome.completed,
            outcome.rounds,
            outcome.resumed_targets,
            "proto", "probed", "hits", "skipped", "retries", "packets", "faults", "opened",
        );
        for (proto, r) in &outcome.result.reports {
            text.push_str(&format!(
                "{:<7} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
                proto.label(),
                r.probed,
                r.hits.len(),
                r.skipped,
                r.retries,
                r.packets_sent,
                r.faults_injected,
                r.breaker_opened,
            ));
        }
        text.push_str(&format!(
            "responsive on >=1 protocol: {}",
            outcome.result.responsive_count()
        ));

        // Discovery attribution: the campaign-wide table, ground-truth hit
        // resolution, and per-/32 coverage — recorded in the manifest for
        // `seedscan explain` and summarized inline.
        let attribution = sos_probe::merged_attribution(&outcome.result.reports);
        let (probed, hits, packets) = outcome.result.reports.iter().fold(
            (0u64, 0u64, 0u64),
            |(p, h, k), (_, r)| (p + r.probed as u64, h + r.hits.len() as u64, k + r.packets_sent),
        );
        let all_hits: Vec<std::net::Ipv6Addr> = {
            let mut v: Vec<std::net::Ipv6Addr> = outcome
                .result
                .reports
                .iter()
                .flat_map(|(_, r)| r.hits.iter().copied())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let hit_attr = sos_probe::provenance::attribute_hits(study.world(), &all_hits);
        let coverage = sos_core::coverage::CoverageMap::build(study.world(), &targets, &all_hits);
        let (a_probes, a_hits, _) = attribution.totals();
        text.push_str(&format!(
            "\nattribution: {} region(s), {a_hits} hits / {a_probes} probes ({} wasted), \
             {} scheme(s), {} AS(es); coverage {} /32 cell(s), {} missed, {} blind",
            attribution.len(),
            attribution.wasted(),
            hit_attr.by_scheme.len(),
            hit_attr.by_as.len(),
            coverage.len(),
            coverage.missed_cells(),
            coverage.blind_cells(),
        ));
        emit("campaign", text);
        {
            use sos_obs::json::Json;
            let mut m = manifest.borrow_mut();
            for (name, value) in scanner.metrics().counters() {
                m.set(&format!("campaign.{name}"), value);
            }
            m.set(sos_core::names::ATTRIBUTION, attribution.to_json());
            let mut totals = Json::obj();
            totals.set("probed", probed);
            totals.set("hits", hits);
            totals.set(
                "aliases",
                {
                    let (_, _, aliases) = attribution.totals();
                    aliases
                },
            );
            totals.set("packets", packets);
            m.set(sos_core::names::TOTALS, totals);
            let mut schemes = Json::obj();
            for (label, n) in &hit_attr.by_scheme {
                schemes.set(label, *n);
            }
            m.set(sos_core::names::SCHEME_HITS, schemes);
            let mut ases = Json::obj();
            for (asn, n) in &hit_attr.by_as {
                ases.set(&asn.to_string(), *n);
            }
            m.set(sos_core::names::AS_HITS, ases);
            m.set(sos_core::names::COVERAGE, coverage.to_json());
        }
    }
    if run("rq3") {
        let t = sos_obs::now_s();
        let r = experiments::rq3::run_rq3(&study, &[netmodel::Protocol::Icmp], &tga::TgaId::ALL);
        sos_obs::info!("rq3 ({} cells) in {:.1}s", r.len(), sos_obs::now_s() - t);
        emit("rq3.table5", experiments::rq3::render_table5(&r));
        emit("rq3.source_raw", experiments::rq3::render_source_raw(&r, netmodel::Protocol::Icmp));
        let chars = experiments::rq3::as_characterization(&study, &r);
        emit("rq3.table6", experiments::rq3::render_table6(&chars));
    }

    sos_obs::info!("done in {:.1}s", sos_obs::now_s() - t0);
    if let Some(path) = args.manifest.as_deref() {
        match manifest.into_inner().write_to_file(std::path::Path::new(path)) {
            Ok(()) => sos_obs::info!("wrote manifest {path}"),
            Err(e) => {
                eprintln!("error: writing manifest {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = args.trace.as_deref() {
        match sos_obs::trace::write_chrome_trace(std::path::Path::new(path)) {
            Ok(()) => sos_obs::info!("wrote trace {path}"),
            Err(e) => {
                eprintln!("error: writing trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = args.flame.as_deref() {
        match sos_obs::trace::write_collapsed(std::path::Path::new(path)) {
            Ok(()) => sos_obs::info!("wrote flame profile {path}"),
            Err(e) => {
                eprintln!("error: writing flame profile {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
