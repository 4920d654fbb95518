//! The rule set: determinism, panic-safety, and concurrency invariants.
//!
//! Every rule is a token-pattern matcher over [`crate::lexer::lex`] output,
//! scoped by [`crate::classify::FileClass`] and the crate the file lives
//! in. The rules encode *workspace policy*, not general Rust style:
//!
//! - **Determinism** — scan reports, manifests, and candidate lists must
//!   be bit-identical across runs and shard counts (the sharded scanner's
//!   merge contract, and the precondition for every comparative claim in
//!   the paper). Nothing on those paths may read wall-clock time, iterate
//!   a randomized-order container, or seed a `RandomState`.
//! - **Panic safety** — library crates on the scan path must degrade into
//!   `Result`s, not aborts; a panic mid-campaign loses the whole shard.
//! - **Concurrency** — the `par::map` merge boundary only preserves the
//!   bit-identity argument if cross-shard state is either absent or
//!   explicitly annotated; per-target hot loops must not take locks.

use crate::classify::{
    crate_of, in_test_region, suppressed, suppressions, test_regions, FileClass,
};
use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One rule's identity, one-line rationale, severity, and canonical fix
/// (shown by `--list-rules` and `--explain`).
pub struct RuleInfo {
    pub id: &'static str,
    pub group: &'static str,
    pub rationale: &'static str,
    /// `"error"` for determinism/panic-safety/concurrency invariants,
    /// `"warn"` for observability hygiene and meta rules.
    pub severity: &'static str,
    /// The canonical remediation, one line.
    pub fix: &'static str,
}

/// The full rule set, in display order. File-scoped rules first, then the
/// workspace dataflow rules (which need the parser + call graph).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det-wallclock",
        group: "determinism",
        rationale: "Instant/SystemTime outside sos-obs leaks wall-clock into scan logic; use sos_obs::now_s or take times as inputs",
        severity: "error",
        fix: "route timing through sos_obs::now_s(), or take timestamps as parameters",
    },
    RuleInfo {
        id: "det-unordered-collection",
        group: "determinism",
        rationale: "HashMap/HashSet in report/manifest/export assembly can leak iteration order into results; use BTreeMap/BTreeSet or sort",
        severity: "error",
        fix: "replace with BTreeMap/BTreeSet, or an explicitly sorted Vec",
    },
    RuleInfo {
        id: "det-hash-iter",
        group: "determinism",
        rationale: "iterating a HashMap/HashSet yields per-process order; sort nearby, reduce order-insensitively, use a BTree collection, or justify via suppression",
        severity: "error",
        fix: "sort the iterated items before consuming them, or switch the container to a BTree type",
    },
    RuleInfo {
        id: "det-random-state",
        group: "determinism",
        rationale: "std RandomState is seeded per process; nothing downstream of it can be reproducible",
        severity: "error",
        fix: "use a fixed-key hasher (or a BTree collection, which needs none)",
    },
    RuleInfo {
        id: "det-fault-entropy",
        group: "determinism",
        rationale: "fault-injection and retry code must draw all randomness from the run seed (the netmodel::mix splitmix64 chain or v6addr::rng::SmallRng); thread_rng/from_entropy/OsRng/getrandom/rand::random would make chaos schedules and backoff jitter unreproducible",
        severity: "error",
        fix: "derive randomness from the run seed via netmodel::mix or v6addr::rng::SmallRng::seed_from_u64",
    },
    RuleInfo {
        id: "det-unordered-iter",
        group: "determinism",
        rationale: "hash-container iteration inside a function reachable from a deterministic root (TGA generate paths, digest/manifest writers, journal emitters, checkpoint serializers) leaks per-process order into bytes that must be bit-identical at any worker count",
        severity: "error",
        fix: "use a BTree collection, or collect and sort before the order can escape; only an explicit sort excuses a site on a deterministic path",
    },
    RuleInfo {
        id: "det-wall-clock",
        group: "determinism",
        rationale: "a wall-clock or entropy source inside a function reachable from a deterministic root makes the root's output differ between identical runs; unlike the file-scoped det-wallclock/det-fault-entropy this follows the call graph, wherever the call lands",
        severity: "error",
        fix: "take times as inputs at the root's boundary; derive randomness from the run seed",
    },
    RuleInfo {
        id: "det-float-reduce",
        group: "determinism",
        rationale: "float addition does not commute under rounding, so sum::<f64>/fold(0.0,..)/x += inside a function on a deterministic path changes digest bytes whenever reduction order changes — even over the same value set",
        severity: "error",
        fix: "fix the reduction order (sort first), accumulate in integers, or suppress with the total-order argument written down",
    },
    RuleInfo {
        id: "par-shared-mut",
        group: "concurrency",
        rationale: "a `par::map` closure that locks or mutates captured state makes worker interleaving observable, breaking the merge contract that W-invariance rests on (workers return per-slot results; the join merges deterministically)",
        severity: "error",
        fix: "return per-item values from the closure and merge after the join",
    },
    RuleInfo {
        id: "lock-order",
        group: "concurrency",
        rationale: "two functions acquiring the same pair of locks in opposite orders deadlock the moment shard workers interleave them",
        severity: "error",
        fix: "adopt one global acquisition order (alphabetical by field) and re-order the flagged function to match",
    },
    RuleInfo {
        id: "panic-unwrap",
        group: "panic-safety",
        rationale: "unwrap/expect in scan-path library code aborts the campaign on the first surprise; return Result or document why it cannot fail",
        severity: "error",
        fix: "return Result, or suppress with the impossibility argument written down",
    },
    RuleInfo {
        id: "panic-macro",
        group: "panic-safety",
        rationale: "panic!/unreachable!/todo!/unimplemented! in scan-path library code aborts the campaign; return Result",
        severity: "error",
        fix: "return Result (or an explicit error enum variant)",
    },
    RuleInfo {
        id: "panic-indexing",
        group: "panic-safety",
        rationale: "unchecked indexing can panic; use a literal/modular/len-bounded index, .get(), or state the bound in a comment on the same or previous line",
        severity: "error",
        fix: "use .get(), a modular/clamped index, or write the bound argument in a comment",
    },
    RuleInfo {
        id: "conc-static-mut",
        group: "concurrency",
        rationale: "static mut is UB-prone mutable global state; use atomics, locks, or thread-locals",
        severity: "error",
        fix: "replace with an atomic, a lock, or a thread-local",
    },
    RuleInfo {
        id: "conc-relaxed",
        group: "concurrency",
        rationale: "Relaxed ordering on state crossing the par::map merge boundary needs a written justification (sos-lint: allow)",
        severity: "error",
        fix: "use AcqRel/SeqCst, or suppress with the monotonicity argument written down",
    },
    RuleInfo {
        id: "conc-lock-in-hot-loop",
        group: "concurrency",
        rationale: "taking a lock inside a per-target hot loop (probe_burst) serializes the shards the loop exists to parallelize; hoist it",
        severity: "error",
        fix: "acquire the lock once before the loop",
    },
    RuleInfo {
        id: "obs-metric-names",
        group: "observability",
        rationale: "counter/histogram registered under an inline string literal drifts from the central name tables; route names through a `names` const module so manifests, snapshots, and dashboards stay in sync",
        severity: "warn",
        fix: "replace the literal with a const from the central `names` module",
    },
    RuleInfo {
        id: "obs-provenance-labels",
        group: "observability",
        rationale: "provenance/coverage manifest keys written as inline string literals drift from the central `names` table that `seedscan explain` reads back; use the consts in sos_core::names",
        severity: "warn",
        fix: "replace the literal with the const from sos_core::names",
    },
    RuleInfo {
        id: "suppression-reason",
        group: "meta",
        rationale: "every `sos-lint: allow(...)` must carry a written reason; undocumented exceptions rot",
        severity: "warn",
        fix: "append the reason to the allow comment: `// sos-lint: allow(rule) because …`",
    },
];

/// Look up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding. `excerpt` is the trimmed source line — baseline matching
/// keys on `(rule, file, content hash of the trimmed line)` so unrelated
/// edits shifting line numbers do not churn the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// 1-based column of the flagged token.
    pub col: u32,
    pub message: String,
    pub excerpt: String,
}

impl Finding {
    /// The rule's severity from the central table.
    pub fn severity(&self) -> &'static str {
        rule_info(self.rule).map_or("error", |r| r.severity)
    }
}

/// Which crates/files each rule binds. Defaults encode current workspace
/// policy; tests override to exercise the engine.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate dirs whose **library** code bans panicking constructs.
    pub panic_crates: Vec<String>,
    /// Crate dirs allowed to read wall-clock time (the observability
    /// layer owns time).
    pub wallclock_crates: Vec<String>,
    /// Crate dirs allowed `Ordering::Relaxed` without per-site annotation
    /// (sos-obs counters are monotonic telemetry, not results).
    pub relaxed_crates: Vec<String>,
    /// Workspace-relative path substrings of result-path files where
    /// unordered collection *types* are banned outright.
    pub result_path_files: Vec<String>,
    /// Function names whose per-target loops must stay lock-free.
    pub hot_fns: Vec<String>,
    /// Workspace-relative path substrings of fault-injection / retry /
    /// backoff files where unseeded entropy sources are banned outright
    /// (chaos schedules must replay bit-identically from the world seed).
    pub fault_files: Vec<String>,
    /// Workspace-relative path substrings exempt from `obs-metric-names`:
    /// the observability layer itself (which defines the registry API and
    /// documents names in prose) — everywhere else, metric names must be
    /// consts from a central `names` table, not inline literals.
    pub metric_table_files: Vec<String>,
    /// Workspace-relative path substrings exempt from
    /// `obs-provenance-labels`: the central name tables where the
    /// provenance/coverage manifest keys are *defined*. Everywhere else
    /// the keys must be those consts, so the writer (`seedscan`) and the
    /// reader (`explain`) cannot drift.
    pub provenance_table_files: Vec<String>,
    /// Deterministic-root registry: `(path substring, fn name)` pairs.
    /// Functions matching an entry seed the taint pass; the default comes
    /// from [`crate::taint::DETERMINISTIC_ROOTS`]. Definition-site
    /// `// sos-lint: deterministic-root` comments add to this set.
    pub roots: Vec<(String, String)>,
    /// The fan-out functions whose closure arguments must not mutate
    /// shared state (`par-shared-mut`), as path suffixes (`par::map`
    /// matches `par::map(…)` and `sos_obs::par::map(…)`).
    pub par_fns: Vec<String>,
    /// Method-call resolution fallback cutoff: a method name implemented
    /// by more than this many workspace types draws no call-graph edges.
    pub method_fallback_max: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            panic_crates: ["probe", "tga", "dealias", "netmodel", "v6addr", "seeds"]
                .map(String::from)
                .to_vec(),
            wallclock_crates: vec!["obs".to_string()],
            relaxed_crates: vec!["obs".to_string()],
            result_path_files: [
                "crates/core/src/report.rs",
                "crates/core/src/export.rs",
                "crates/core/src/metrics.rs",
                "crates/obs/src/manifest.rs",
                "crates/obs/src/trace.rs",
                "crates/probe/src/metrics.rs",
            ]
            .map(String::from)
            .to_vec(),
            hot_fns: vec!["probe_burst".to_string()],
            fault_files: [
                "crates/probe/src/retry.rs",
                "crates/probe/src/sim.rs",
                "crates/probe/src/campaign.rs",
                "crates/netmodel/src/faults.rs",
                // generation fan-out: per-unit RNG streams must derive
                // from the run seed (W-invariance), never ambient entropy
                "crates/tga/src/parallel.rs",
            ]
            .map(String::from)
            .to_vec(),
            metric_table_files: vec!["crates/obs/src/".to_string()],
            provenance_table_files: vec![
                "crates/core/src/names.rs".to_string(),
                "crates/obs/src/".to_string(),
                // the rule's own namespace table lives here
                "crates/lint/src/rules.rs".to_string(),
            ],
            roots: crate::taint::DETERMINISTIC_ROOTS
                .iter()
                .map(|(path, name, _)| (path.to_string(), name.to_string()))
                .collect(),
            par_fns: vec!["par::map".to_string()],
            method_fallback_max: 6,
        }
    }
}

/// Keywords that cannot be the expression preceding an index `[`.
const NON_EXPR_KEYWORDS: &[&str] = &[
    "let", "in", "return", "if", "else", "match", "while", "loop", "move", "mut", "ref",
    "break", "continue", "unsafe", "as", "dyn", "for", "use", "pub", "const", "static",
    "where", "struct", "enum", "fn", "impl", "type", "crate", "mod", "box", "yield",
];

/// Lint one source file. `rel_path` is workspace-relative with `/`
/// separators; it drives classification and allowlists.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let class = FileClass::of(rel_path);
    let krate = crate_of(rel_path).unwrap_or("");
    let lexed = lex(src);
    let regions = test_regions(&lexed);
    let supps = suppressions(&lexed.comments);
    let lines: Vec<&str> = src.lines().collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, line: u32, col: u32, message: String| {
        let excerpt = lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        raw.push(Finding { rule, file: rel_path.to_string(), line, col, message, excerpt });
    };

    let prod_code = matches!(class, FileClass::Lib | FileClass::Bin);
    let toks = &lexed.toks;

    // --- determinism -----------------------------------------------------
    if prod_code && !cfg.wallclock_crates.iter().any(|c| c == krate) {
        for t in toks {
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                push(
                    "det-wallclock",
                    t.line,
                    t.col,
                    format!("`{}` outside sos-obs: wall-clock must not reach scan logic", t.text),
                );
            }
        }
    }

    if prod_code && cfg.result_path_files.iter().any(|f| rel_path.contains(f.as_str())) {
        for t in toks {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                push(
                    "det-unordered-collection",
                    t.line,
                    t.col,
                    format!(
                        "`{}` on a result path: use BTreeMap/BTreeSet or an explicitly sorted Vec",
                        t.text
                    ),
                );
            }
        }
    }

    if prod_code {
        for t in toks {
            if t.is_ident("RandomState") {
                push(
                    "det-random-state",
                    t.line,
                    t.col,
                    "`RandomState` is per-process random; use a fixed-key hasher".to_string(),
                );
            }
        }
        hash_iter_rule(toks, &mut push);
    }

    if prod_code && cfg.fault_files.iter().any(|f| rel_path.contains(f.as_str())) {
        for (i, t) in toks.iter().enumerate() {
            let unseeded = t.is_ident("thread_rng")
                || t.is_ident("from_entropy")
                || t.is_ident("OsRng")
                || t.is_ident("getrandom")
                // `rand::random` — a path ending in the bare `random` fn.
                || (t.is_ident("random")
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("rand"));
            if unseeded {
                push(
                    "det-fault-entropy",
                    t.line,
                    t.col,
                    format!(
                        "`{}` in fault/retry code: draw randomness from the seeded splitmix64 chain (netmodel::mix) so chaos schedules replay",
                        t.text
                    ),
                );
            }
        }
    }

    // --- panic safety ----------------------------------------------------
    if class == FileClass::Lib && cfg.panic_crates.iter().any(|c| c == krate) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = i > 0 && toks[i - 1].is_punct('.');
            match t.text.as_str() {
                "unwrap" | "expect" | "unwrap_err" | "expect_err" if prev_dot => {
                    push(
                        "panic-unwrap",
                        t.line,
                        t.col,
                        format!("`.{}()` in library code: return Result or justify via suppression", t.text),
                    );
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
                {
                    push(
                        "panic-macro",
                        t.line,
                        t.col,
                        format!("`{}!` in library code: return Result or justify via suppression", t.text),
                    );
                }
                _ => {}
            }
        }
        indexing_rule(&lexed, &lines, &mut push);
    }

    // --- concurrency -----------------------------------------------------
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            push(
                "conc-static-mut",
                t.line,
                t.col,
                "`static mut`: use atomics, locks, or thread-locals".to_string(),
            );
        }
    }

    if prod_code && !cfg.relaxed_crates.iter().any(|c| c == krate) {
        for t in toks {
            if t.is_ident("Relaxed") {
                push(
                    "conc-relaxed",
                    t.line,
                    t.col,
                    "`Ordering::Relaxed` needs a written justification that it cannot cross the par::map merge boundary unsynchronized"
                        .to_string(),
                );
            }
        }
    }

    hot_loop_rule(toks, &cfg.hot_fns, &mut push);

    // --- observability ---------------------------------------------------
    if prod_code && !cfg.metric_table_files.iter().any(|f| rel_path.contains(f.as_str())) {
        metric_name_rule(toks, &mut push);
    }

    if prod_code && !cfg.provenance_table_files.iter().any(|f| rel_path.contains(f.as_str())) {
        provenance_label_rule(toks, &lines, &mut push);
    }

    // --- meta: suppressions without reasons ------------------------------
    for s in &supps {
        if !s.has_reason {
            push(
                "suppression-reason",
                s.line,
                1,
                format!("suppression of `{}` has no reason; write why the exception is sound", s.rule),
            );
        }
    }

    // --- filtering: test regions, then suppressions ----------------------
    raw.retain(|f| {
        if f.rule == "suppression-reason" {
            return true; // reasons are required everywhere, and un-suppressible
        }
        if f.rule != "conc-static-mut" && in_test_region(&regions, f.line) {
            return false; // tests may panic, index, and hash freely
        }
        !suppressed(&supps, f.rule, f.line)
    });
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw
}

/// Lint a whole workspace: every file-scoped rule per file, then the
/// dataflow rules over the parsed workspace (symbol table → call graph →
/// taint), with the same test-region/suppression filtering applied to
/// workspace findings.
///
/// Counterpart dedup: a dataflow rule supersedes its file-scoped
/// counterpart on the same line (`det-unordered-iter` over
/// `det-hash-iter`; `det-wall-clock` over `det-wallclock` and
/// `det-fault-entropy`), so one offending line reports once, with root
/// attribution.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let ws = crate::symbols::Workspace::build(files, cfg);
    let graph = crate::callgraph::CallGraph::build(&ws, cfg);
    let taint = crate::taint::Taint::build(&ws, &graph, cfg);

    let mut all: Vec<Finding> = Vec::new();
    for (rel, src) in files {
        all.extend(lint_source(rel, src, cfg));
    }
    for f in crate::taint::workspace_rules(&ws, &graph, &taint, cfg) {
        let Some(fd) = ws.files.iter().find(|d| d.rel == f.file) else { continue };
        if in_test_region(&fd.regions, f.line) || suppressed(&fd.supps, f.rule, f.line) {
            continue;
        }
        all.push(f);
    }

    const SUPERSEDES: &[(&str, &[&str])] = &[
        ("det-unordered-iter", &["det-hash-iter"]),
        ("det-wall-clock", &["det-wallclock", "det-fault-entropy"]),
    ];
    let winners: Vec<(&str, String, u32)> = all
        .iter()
        .filter(|f| SUPERSEDES.iter().any(|(w, _)| *w == f.rule))
        .map(|f| (f.rule, f.file.clone(), f.line))
        .collect();
    all.retain(|f| {
        !SUPERSEDES.iter().any(|(w, losers)| {
            losers.contains(&f.rule)
                && winners.iter().any(|(wr, wf, wl)| wr == w && *wf == f.file && *wl == f.line)
        })
    });
    all.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    all
}

/// Identifiers bound to hash-container types anywhere in the file:
/// `name: [&][mut] [path::]HashMap<..>` ascriptions and
/// `name = [path::]HashMap::..` initializers. `extra_aliases` adds
/// workspace-wide alias names; the file's own aliases (`type X =
/// [path::]HashMap<..>`, or an alias of a known alias) are always
/// included.
pub(crate) fn hash_bound_names(toks: &[Tok], extra_aliases: &[String]) -> Vec<String> {
    let mut hash_types: Vec<String> = ["HashMap", "HashSet"].map(String::from).to_vec();
    hash_types.extend(extra_aliases.iter().cloned());
    hash_types.extend(crate::parse::hash_alias_closure(&crate::parse::type_aliases(toks), extra_aliases));
    // Any segment of the path at `j`: `std::collections::HashSet<..>`
    // ends in the type, `v6addr::AddrSet::default()` passes through it.
    let is_hash_type_at = |j: usize| {
        let end = crate::parse::path_end(toks, j);
        (j..=end).any(|k| toks.get(k).is_some_and(|t| hash_types.iter().any(|h| t.is_ident(h))))
    };
    let mut bound: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = &toks[i].text;
        if let Some(next) = toks.get(i + 1) {
            if next.is_punct(':') && !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
                // type ascription: skip `&`, `mut`, lifetimes
                let mut j = i + 2;
                while toks.get(j).is_some_and(|t| {
                    t.is_punct('&') || t.is_ident("mut") || t.kind == TokKind::Lifetime
                }) {
                    j += 1;
                }
                if is_hash_type_at(j) {
                    bound.push(name.clone());
                }
            }
            if next.is_punct('=') && is_hash_type_at(i + 2) {
                bound.push(name.clone());
            }
        }
    }
    bound
}

/// One order-dependent iteration over a hash-bound identifier.
pub(crate) struct IterSite {
    /// Token index of the iterated identifier.
    pub idx: usize,
    pub line: u32,
    pub col: u32,
    /// `` `name.keys()` `` / `` `for … in name` `` for messages.
    pub desc: String,
    /// A `sort*` call follows within a few lines — order restored.
    pub sorted: bool,
    /// An order-insensitive reduction (`count`/`sum`/…) follows. The
    /// file-scoped rule accepts this escape; the dataflow rule does not
    /// (it cannot tell integer sums from float sums).
    pub reduced: bool,
}

/// Find order-dependent iteration sites over `bound` identifiers.
pub(crate) fn hash_iter_sites(toks: &[Tok], bound: &[String]) -> Vec<IterSite> {
    const ORDER_DEPENDENT: &[&str] =
        &["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain"];
    const SORTS: &[&str] = &[
        "sort", "sort_unstable", "sort_by", "sort_by_key", "sort_unstable_by",
        "sort_unstable_by_key",
    ];
    const REDUCTIONS: &[&str] = &["count", "sum", "min", "max", "any", "all"];
    let soon = |start: usize, line: u32, names: &[&str]| {
        toks[start..]
            .iter()
            .take_while(|t| t.line <= line + 6)
            .any(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !bound.iter().any(|b| b == &t.text) {
            continue;
        }
        // `name.iter()` and friends.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| ORDER_DEPENDENT.iter().any(|m| n.is_ident(m)))
        {
            out.push(IterSite {
                idx: i,
                line: t.line,
                col: t.col,
                desc: format!("`{}.{}()`", t.text, toks[i + 2].text),
                sorted: soon(i + 3, t.line, SORTS),
                reduced: soon(i + 3, t.line, REDUCTIONS),
            });
        }
        // `for pat in [&][mut] name {`.
        if i >= 1 {
            let mut j = i;
            while j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j >= 1
                && toks[j - 1].is_ident("in")
                && toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
            {
                out.push(IterSite {
                    idx: i,
                    line: t.line,
                    col: t.col,
                    desc: format!("`for … in {}`", t.text),
                    sorted: soon(i + 1, t.line, SORTS),
                    reduced: soon(i + 1, t.line, REDUCTIONS),
                });
            }
        }
    }
    out
}

/// `det-hash-iter`: find identifiers bound to hash-container types in this
/// file, then flag order-dependent iteration over them. Order restored
/// (`sort*`) or erased (an order-insensitive reduction) close by is fine.
fn hash_iter_rule(toks: &[Tok], push: &mut impl FnMut(&'static str, u32, u32, String)) {
    let bound = hash_bound_names(toks, &[]);
    if bound.is_empty() {
        return;
    }
    for site in hash_iter_sites(toks, &bound) {
        if site.sorted || site.reduced {
            continue;
        }
        push(
            "det-hash-iter",
            site.line,
            site.col,
            format!(
                "{} iterates a hash container in per-process order; sort or use a BTree collection",
                site.desc
            ),
        );
    }
}

/// `panic-indexing`: flag `expr[index]` unless the index is literal-only,
/// modular, clamped, or the line (or the one above) carries a comment
/// stating the bound.
fn indexing_rule(
    lexed: &Lexed,
    lines: &[&str],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let toks = &lexed.toks;
    let has_comment_near = |line: u32| {
        lexed
            .comments
            .iter()
            .any(|c| c.line == line || c.line + 1 == line)
    };
    let mut i = 0usize;
    let mut last_flagged_line = 0u32;
    while i < toks.len() {
        if !toks[i].is_punct('[') || i == 0 {
            i += 1;
            continue;
        }
        let prev = &toks[i - 1];
        let indexable = match prev.kind {
            TokKind::Ident => !NON_EXPR_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct => prev.is_punct(']') || prev.is_punct(')'),
            _ => false,
        };
        if !indexable {
            i += 1;
            continue;
        }
        // Find the matching `]`, collecting the index tokens.
        let mut depth = 1i32;
        let mut j = i + 1;
        let start = j;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        let inner = &toks[start..j.saturating_sub(1)];
        let line = toks[i].line;
        let literal_only = !inner.is_empty()
            && inner
                .iter()
                .all(|t| t.kind == TokKind::Int || t.is_punct('.'));
        let guarded = inner.iter().any(|t| {
            t.is_punct('%') || t.is_ident("min") || t.is_ident("clamp") || t.is_ident("rem_euclid")
        });
        // `v[rng.gen_range(0..v.len())]` is bounded by construction.
        let len_bounded = inner.iter().any(|t| t.is_ident("gen_range"))
            && inner.iter().any(|t| t.is_ident("len"));
        if !literal_only
            && !guarded
            && !len_bounded
            && !inner.is_empty()
            && line != last_flagged_line
            && !has_comment_near(line)
        {
            last_flagged_line = line;
            let receiver = if prev.kind == TokKind::Ident { prev.text.as_str() } else { "expr" };
            // Reconstruct a short index preview from the raw line.
            let preview = lines
                .get(line.saturating_sub(1) as usize)
                .map(|l| l.trim())
                .unwrap_or("");
            push(
                "panic-indexing",
                line,
                toks[i].col,
                format!(
                    "`{receiver}[…]` without a bound comment ({preview:.60}); use .get(), a guarded index, or state the bound in a comment"
                ),
            );
        }
        i = j.max(i + 1);
    }
}

/// `obs-metric-names`: flag a string literal as the *name* argument of a
/// registry lookup — `counter("...")`, `histogram("...")`, and their
/// `_with` labeled variants. Names must be consts from a central `names`
/// module (`counter(names::HITS)`); dynamic names built with `format!`
/// are not literals and stay out of scope.
fn metric_name_rule(toks: &[Tok], push: &mut impl FnMut(&'static str, u32, u32, String)) {
    const REGISTRY_FNS: &[&str] = &["counter", "histogram", "counter_with", "histogram_with"];
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && REGISTRY_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            push(
                "obs-metric-names",
                t.line,
                t.col,
                format!(
                    "`{}(\"…\")` with an inline name literal; use a const from the central `names` table",
                    t.text
                ),
            );
        }
    }
}

/// `obs-provenance-labels`: flag a provenance/coverage manifest key
/// spelled as an inline string literal. The lexer drops literal contents,
/// so a `Str` token marks the line and the raw source text supplies the
/// key: any quoted string opening with one of the reserved namespaces
/// fires. Dynamic names (`format!`) open with the same quote, so they
/// fire too — by design: these keys are a fixed contract between the
/// manifest writer and `seedscan explain`, never computed.
fn provenance_label_rule(
    toks: &[Tok],
    lines: &[&str],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    const NAMESPACES: &[&str] = &[
        "\"campaign.attribution",
        "\"campaign.totals",
        "\"campaign.scheme_hits",
        "\"campaign.as_hits",
        "\"campaign.coverage",
        "\"provenance.",
        "\"coverage.",
    ];
    let mut last_flagged_line = 0u32;
    for t in toks {
        if t.kind != TokKind::Str || t.line == last_flagged_line {
            continue;
        }
        let text = lines.get(t.line.saturating_sub(1) as usize).copied().unwrap_or("");
        if let Some(ns) = NAMESPACES.iter().find(|ns| text.contains(*ns)) {
            last_flagged_line = t.line;
            push(
                "obs-provenance-labels",
                t.line,
                t.col,
                format!(
                    "`{}…` as an inline literal; use the const from the central `names` table (sos_core::names) so the manifest writer and `explain` stay in sync",
                    &ns[1..]
                ),
            );
        }
    }
}

/// `conc-lock-in-hot-loop`: inside the body of any configured hot
/// function, flag lock acquisition within `for`/`while`/`loop` bodies.
fn hot_loop_rule(
    toks: &[Tok],
    hot_fns: &[String],
    push: &mut impl FnMut(&'static str, u32, u32, String),
) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("fn") && hot_fns.iter().any(|f| toks[i + 1].is_ident(f))) {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // Find the fn body: first `{` after the signature.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0i32;
        let mut body_end = toks.len();
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    body_end = j;
                    break;
                }
            }
            j += 1;
        }
        // Loop bodies inside the fn.
        let mut k = body_start;
        while k < body_end {
            if toks[k].is_ident("for") || toks[k].is_ident("while") || toks[k].is_ident("loop") {
                let mut m = k + 1;
                while m < body_end && !toks[m].is_punct('{') {
                    m += 1;
                }
                let mut d = 0i32;
                let loop_start = m;
                let mut loop_end = body_end;
                while m < body_end {
                    if toks[m].is_punct('{') {
                        d += 1;
                    } else if toks[m].is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            loop_end = m;
                            break;
                        }
                    }
                    m += 1;
                }
                for n in loop_start..loop_end {
                    let t = &toks[n];
                    let dotted_lock = t.is_punct('.')
                        && toks.get(n + 1).is_some_and(|x| {
                            x.is_ident("lock") || x.is_ident("read") || x.is_ident("write")
                        })
                        && toks.get(n + 2).is_some_and(|x| x.is_punct('('));
                    let ctor = (t.is_ident("Mutex") || t.is_ident("RwLock"))
                        && toks.get(n + 1).is_some_and(|x| x.is_punct(':'));
                    if dotted_lock || ctor {
                        let what = if t.kind == TokKind::Punct {
                            format!(".{}()", toks[n + 1].text)
                        } else {
                            t.text.clone()
                        };
                        push(
                            "conc-lock-in-hot-loop",
                            t.line,
                            t.col,
                            format!(
                                "`{what}` inside `{fn_name}`'s per-target loop; acquire before the loop"
                            ),
                        );
                    }
                }
                k = loop_end.max(k + 1);
            } else {
                k += 1;
            }
        }
        i = body_end.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    fn find(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src, &cfg())
    }

    #[test]
    fn wallclock_flagged_outside_obs_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(find("crates/probe/src/engine.rs", src).len(), 1);
        assert!(find("crates/obs/src/span.rs", src).is_empty());
        assert!(find("crates/probe/tests/t.rs", src).is_empty(), "tests may time");
    }

    #[test]
    fn unwrap_flagged_in_lib_not_tests_or_bins() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(find("crates/tga/src/det.rs", src).len(), 1);
        assert!(find("crates/core/src/bin/seedscan.rs", src).is_empty(), "bins may unwrap");
        assert!(find("crates/core/src/runner.rs", src).is_empty(), "core not in panic set");
        let in_tests = "#[cfg(test)]\nmod tests { fn t() { None::<u8>.unwrap(); } }";
        assert!(find("crates/tga/src/det.rs", in_tests).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }";
        assert!(find("crates/tga/src/det.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_without_reason_reports() {
        let ok = "fn f(x: Option<u8>) -> u8 {\n    // sos-lint: allow(panic-unwrap) filled two lines above\n    x.unwrap()\n}";
        assert!(find("crates/tga/src/det.rs", ok).is_empty());
        let bad = "fn f(x: Option<u8>) -> u8 {\n    // sos-lint: allow(panic-unwrap)\n    x.unwrap()\n}";
        let fs = find("crates/tga/src/det.rs", bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "suppression-reason");
    }

    #[test]
    fn indexing_needs_bound_comment() {
        let bare = "fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        let fs = find("crates/v6addr/src/trie.rs", bare);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "panic-indexing");
        let commented = "fn f(v: &[u8], i: usize) -> u8 {\n    // i < v.len(): caller checked\n    v[i]\n}";
        assert!(find("crates/v6addr/src/trie.rs", commented).is_empty());
        let literal = "fn f(v: &[u8; 4]) -> u8 { v[0] ^ v[1..3][0] }";
        assert!(find("crates/v6addr/src/trie.rs", literal).is_empty());
        let modular = "fn f(v: &[u8], i: usize) -> u8 { v[i % v.len()] }";
        assert!(find("crates/v6addr/src/trie.rs", modular).is_empty());
    }

    #[test]
    fn unseeded_entropy_flagged_in_fault_files_only() {
        let src = "fn jitter() -> f64 { let mut r = rand::thread_rng(); r.gen() }";
        let fs = find("crates/probe/src/retry.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "det-fault-entropy");
        assert!(find("crates/probe/src/engine.rs", src).is_empty(), "only fault/retry files");
        let bare_random = "fn roll() -> u64 { rand::random() }";
        let fs = find("crates/netmodel/src/faults.rs", bare_random);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "det-fault-entropy");
        let seeded = "fn roll(seed: u64, addr: u128) -> bool { chance(mix2(seed, 7), addr, 0.5) }";
        assert!(find("crates/netmodel/src/faults.rs", seeded).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests { fn t() { let _ = rand::thread_rng(); } }";
        assert!(find("crates/probe/src/sim.rs", in_tests).is_empty(), "tests may use entropy");
        // generation fan-out is covered too: worker RNG streams must come
        // from the run seed (W-invariance), never ambient entropy
        let fs = find("crates/tga/src/parallel.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "det-fault-entropy");
        let derived = "fn unit_rng(stream: u64) -> SmallRng { SmallRng::seed_from_u64(stream) }";
        assert!(find("crates/tga/src/parallel.rs", derived).is_empty());
    }

    #[test]
    fn static_mut_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { static mut X: u8 = 0; }";
        let fs = find("crates/core/src/par.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "conc-static-mut");
    }

    #[test]
    fn relaxed_needs_annotation_outside_obs() {
        let src = "fn f(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }";
        assert_eq!(find("crates/core/src/runner.rs", src).len(), 1);
        assert!(find("crates/obs/src/metrics.rs", src).is_empty());
        let annotated = "fn f(c: &std::sync::atomic::AtomicU64) {\n    // sos-lint: allow(conc-relaxed) progress counter, merged with fence\n    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n}";
        assert!(find("crates/core/src/runner.rs", annotated).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_via_alias_too() {
        let src = "type FlowMap = HashMap<u64, u32>;\nfn f(attempts: &FlowMap) -> Vec<u64> {\n    attempts.keys().copied().collect()\n}";
        let fs = find("crates/probe/src/sim.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "det-hash-iter");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn hash_for_loop_flagged() {
        let src = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    for kv in &m { drop(kv); }\n}";
        let fs = find("crates/seeds/src/overlap.rs", src);
        assert!(fs.iter().any(|f| f.rule == "det-hash-iter" && f.line == 4), "{fs:?}");
    }

    #[test]
    fn hash_lookup_is_fine() {
        let src = "fn f(m: &HashMap<u64, u32>) -> Option<u32> { m.get(&1).copied() }";
        assert!(find("crates/probe/src/sim.rs", src).is_empty());
    }

    #[test]
    fn unordered_type_banned_on_result_paths() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); drop(m); }";
        let fs = find("crates/core/src/report.rs", src);
        assert!(fs.iter().all(|f| f.rule == "det-unordered-collection"), "{fs:?}");
        assert!(!fs.is_empty());
        assert!(find("crates/core/src/runner.rs", src)
            .iter()
            .all(|f| f.rule != "det-unordered-collection"));
    }

    #[test]
    fn lock_in_hot_loop_flagged() {
        let src = "fn probe_burst(&mut self) {\n    for t in targets {\n        let g = self.state.lock().unwrap();\n        drop(g);\n    }\n}";
        let fs = find("crates/probe/src/transport.rs", src);
        assert!(fs.iter().any(|f| f.rule == "conc-lock-in-hot-loop"), "{fs:?}");
        let hoisted = "fn probe_burst(&mut self) {\n    let g = self.state.lock();\n    for t in targets { use_it(&g, t); }\n}";
        assert!(find("crates/probe/src/transport.rs", hoisted)
            .iter()
            .all(|f| f.rule != "conc-lock-in-hot-loop"));
    }

    #[test]
    fn metric_name_literals_flagged_in_prod_code_only() {
        let lit = "fn f() { sos_obs::counter(\"probe.hits\").inc(); }";
        let fs = find("crates/probe/src/engine.rs", lit);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "obs-metric-names");
        let labeled = "fn f(r: &Registry) { r.histogram_with(\"wait.us\", &Labels::new()).record(1); }";
        let fs = find("crates/core/src/runner.rs", labeled);
        assert!(fs.iter().any(|f| f.rule == "obs-metric-names"), "{fs:?}");
        // Names routed through a const table are the sanctioned shape.
        let named = "fn f() { sos_obs::counter(names::HITS).inc(); }";
        assert!(find("crates/probe/src/engine.rs", named).is_empty());
        // Dynamic names are not literals; out of scope.
        let dynamic = "fn f(label: &str) { sos_obs::counter(&format!(\"tga.{label}.x\")).inc(); }";
        assert!(find("crates/tga/src/lib.rs", dynamic).is_empty());
        // Tests and the observability layer itself are exempt.
        let in_tests = "#[cfg(test)]\nmod tests { fn t() { sos_obs::counter(\"x\").inc(); } }";
        assert!(find("crates/probe/src/engine.rs", in_tests).is_empty());
        assert!(find("crates/obs/src/metrics.rs", lit).is_empty());
    }

    #[test]
    fn provenance_label_literals_flagged_outside_the_name_tables() {
        let lit = "fn f(m: &mut Manifest, rows: Json) { m.set(\"campaign.attribution\", rows); }";
        let fs = find("crates/core/src/bin/seedscan.rs", lit);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "obs-provenance-labels");
        // Reading the key back with an inline literal is the same drift.
        let read = "fn g(doc: &Json) -> Option<&Json> { doc.get(\"campaign.coverage\") }";
        assert_eq!(find("crates/core/src/explain.rs", read).len(), 1);
        // The const-table form is the sanctioned shape.
        let named = "fn f(m: &mut Manifest, rows: Json) { m.set(sos_core::names::ATTRIBUTION, rows); }";
        assert!(find("crates/core/src/bin/seedscan.rs", named).is_empty());
        // The name table itself defines the literals.
        assert!(find("crates/core/src/names.rs", lit).is_empty());
        // Mentioning the key in a comment is prose, not a finding.
        let prose = "// the manifest's campaign.attribution entry\nfn h() {}";
        assert!(find("crates/core/src/explain.rs", prose).is_empty());
        // Tests may spell keys out.
        let in_tests = "#[cfg(test)]\nmod tests { fn t(d: &Json) { d.get(\"campaign.totals\"); } }";
        assert!(find("crates/core/src/explain.rs", in_tests).is_empty());
    }

    #[test]
    fn findings_in_strings_and_comments_do_not_fire() {
        let src = "fn f() -> &'static str { \"panic! HashMap Instant::now Relaxed\" }\n// Instant::now in prose\n";
        assert!(find("crates/probe/src/engine.rs", src).is_empty());
    }

    #[test]
    fn rule_table_is_consistent() {
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "rule ids are unique");
        assert!(rule_info("panic-unwrap").is_some());
        assert!(rule_info("nonexistent").is_none());
    }
}
