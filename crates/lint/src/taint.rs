//! The determinism dataflow pass: propagate a *must-be-deterministic*
//! property from annotated roots through the call graph, then enforce
//! W-invariance rules inside every reachable function.
//!
//! The workspace's strongest invariant — bit-identical candidate and
//! result streams at any shard/worker count — was previously enforced
//! only dynamically (manifest digests, `worker_invariance` tests). This
//! pass catches the violation at lint time: a `HashMap` iteration, a
//! wall-clock read, or an order-sensitive float reduction anywhere in the
//! call closure of a TGA `generate` path, digest/manifest writer, journal
//! emitter, or checkpoint serializer is flagged before it can corrupt a
//! campaign.
//!
//! Roots come from two places: the central [`DETERMINISTIC_ROOTS`]
//! registry below (workspace policy, matched by `(path substring, fn
//! name)`), and `// sos-lint: deterministic-root <why>` comments directly
//! above a definition (see [`crate::parse`]).

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::rules::{hash_bound_names, hash_iter_sites, Config, Finding};
use crate::symbols::Workspace;

/// The deterministic-roots registry: `(path substring, fn name, what the
/// root guards)`. Every entry is an output surface whose bytes must be
/// identical across runs, shard counts, and worker counts.
pub const DETERMINISTIC_ROOTS: &[(&str, &str, &str)] = &[
    // TGA candidate emission — the W-invariance surface of PR 9.
    ("crates/tga/src/", "generate", "TGA candidate stream (untagged entry)"),
    ("crates/tga/src/", "generate_tagged", "TGA candidate stream + provenance log"),
    ("crates/obs/src/par.rs", "map", "order-preserving fan-out: out[i] never depends on the worker count"),
    ("crates/tga/src/space_tree.rs", "build_regions_par", "parallel space-tree construction"),
    // Digest / manifest writers — the bytes CI and A/B reruns compare.
    ("crates/obs/src/manifest.rs", "write_to_file", "run-manifest bytes"),
    ("crates/obs/src/manifest.rs", "record_digest", "result digest computation"),
    // Journal emitters — replay ≡ live folding depends on these bytes.
    ("crates/obs/src/journal.rs", "write", "journal event lines"),
    // Checkpoint serializers — kill+resume bit-identity.
    ("crates/probe/src/campaign.rs", "checkpoint", "campaign checkpoint fingerprint"),
    // Experiment exports — the CSVs the paper figures are drawn from.
    ("crates/core/src/export.rs", "write_grid_csv", "experiment grid CSV"),
    ("crates/core/src/export.rs", "write_ratio_csv", "figure ratio CSV"),
];

/// Why a function is on a deterministic path.
#[derive(Debug, Clone)]
pub struct TaintInfo {
    /// Global fn id of the root this function is reachable from.
    pub root: usize,
}

/// Result of the reachability pass: `Some(info)` for every function on a
/// deterministic path (roots included).
pub struct Taint {
    pub tainted: Vec<Option<TaintInfo>>,
}

impl Taint {
    /// BFS from every root over the call graph.
    pub fn build(ws: &Workspace, graph: &CallGraph, cfg: &Config) -> Taint {
        let mut tainted: Vec<Option<TaintInfo>> = vec![None; ws.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for (gid, slot) in tainted.iter_mut().enumerate() {
            let def = ws.def(gid);
            let fd = ws.file_of(gid);
            let is_root = def.root
                || cfg
                    .roots
                    .iter()
                    .any(|(path, name)| fd.rel.contains(path.as_str()) && def.name == *name);
            if is_root {
                *slot = Some(TaintInfo { root: gid });
                queue.push_back(gid);
            }
        }
        while let Some(gid) = queue.pop_front() {
            let root = tainted[gid].as_ref().map(|t| t.root).unwrap_or(gid);
            for &callee in &graph.edges[gid] {
                if tainted[callee].is_none() {
                    tainted[callee] = Some(TaintInfo { root });
                    queue.push_back(callee);
                }
            }
        }
        Taint { tainted }
    }
}

/// Run every workspace-level rule; findings are unfiltered (the caller
/// applies test-region and suppression filtering per file).
pub fn workspace_rules(ws: &Workspace, graph: &CallGraph, taint: &Taint, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    det_unordered_iter(ws, taint, &mut out);
    det_wall_clock(ws, taint, &mut out);
    det_float_reduce(ws, taint, &mut out);
    par_shared_mut(ws, cfg, &mut out);
    lock_order(ws, &mut out);
    let _ = graph;
    out
}

fn excerpt(ws: &Workspace, gid: usize, line: u32) -> String {
    ws.file_of(gid)
        .lines
        .get(line.saturating_sub(1) as usize)
        .cloned()
        .unwrap_or_default()
}

/// `"reachable from deterministic root `X` (file:line)"` — every taint
/// finding carries its witness so the fix (or the suppression reason) can
/// argue against the right invariant.
fn via(ws: &Workspace, info: &TaintInfo) -> String {
    let root = ws.def(info.root);
    format!(
        "reachable from deterministic root `{}` ({}:{})",
        ws.qual_name(info.root),
        ws.file_of(info.root).rel,
        root.line
    )
}

/// `det-unordered-iter`: hash-container iteration inside a function on a
/// deterministic path. Stricter than the file-scoped `det-hash-iter`:
/// only an explicit `sort*` downstream excuses the site — reductions do
/// not, because float reductions are order-sensitive and the cheap
/// "looks reduced" heuristic cannot tell `sum::<u64>` from `sum::<f64>`.
fn det_unordered_iter(ws: &Workspace, taint: &Taint, out: &mut Vec<Finding>) {
    for gid in 0..ws.fns.len() {
        let Some(info) = &taint.tainted[gid] else { continue };
        let Some(body) = ws.def(gid).body else { continue };
        let fd = ws.file_of(gid);
        let bound = hash_bound_names(&fd.lexed.toks, &ws.hash_aliases);
        if bound.is_empty() {
            continue;
        }
        for site in hash_iter_sites(&fd.lexed.toks, &bound) {
            if !(body.0..=body.1).contains(&site.idx) || site.sorted {
                continue;
            }
            out.push(Finding {
                rule: "det-unordered-iter",
                file: fd.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} iterates a hash container in per-process order, {}; use a BTree collection or sort before consuming",
                    site.desc,
                    via(ws, info)
                ),
                excerpt: excerpt(ws, gid, site.line),
            });
        }
    }
}

/// `det-wall-clock`: time and entropy sources on a deterministic path.
/// Generalizes the file-scoped `det-fault-entropy` (which only knows a
/// fixed file list) to everything reachable from a root — including the
/// observability crate, which the file-scoped `det-wallclock` exempts
/// wholesale.
fn det_wall_clock(ws: &Workspace, taint: &Taint, out: &mut Vec<Finding>) {
    const SOURCES: &[&str] =
        &["Instant", "SystemTime", "thread_rng", "from_entropy", "OsRng", "getrandom"];
    for gid in 0..ws.fns.len() {
        let Some(info) = &taint.tainted[gid] else { continue };
        let Some((a, b)) = ws.def(gid).body else { continue };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let mut last_line = 0u32;
        for i in a..=b.min(toks.len() - 1) {
            let t = &toks[i];
            let hit = (t.kind == TokKind::Ident && SOURCES.contains(&t.text.as_str()))
                || (t.is_ident("random")
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident("rand"));
            if hit && t.line != last_line {
                last_line = t.line;
                out.push(Finding {
                    rule: "det-wall-clock",
                    file: fd.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{}` is a wall-clock/entropy source {}; take times as inputs and derive randomness from the run seed",
                        t.text,
                        via(ws, info)
                    ),
                    excerpt: excerpt(ws, gid, t.line),
                });
            }
        }
    }
}

/// `det-float-reduce`: order-sensitive float accumulation on a
/// deterministic path. Float addition does not commute under rounding, so
/// a reduction order that varies (hash iteration, shard merge order)
/// changes the digest bytes even when the set of values is identical.
fn det_float_reduce(ws: &Workspace, taint: &Taint, out: &mut Vec<Finding>) {
    for gid in 0..ws.fns.len() {
        let Some(info) = &taint.tainted[gid] else { continue };
        let Some((a, b)) = ws.def(gid).body else { continue };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);

        // Float-bound accumulators declared in this body: `x: f64`,
        // `let mut x = 0.0`.
        let mut floats: Vec<&str> = Vec::new();
        for i in a..=end {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
            {
                floats.push(name);
            }
            if toks.get(i + 1).is_some_and(|t| t.is_punct('='))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct('='))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Float)
            {
                floats.push(name);
            }
        }

        let mut push = |t: &Tok, what: String| {
            out.push(Finding {
                rule: "det-float-reduce",
                file: fd.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!("{} is an order-sensitive float reduction {}; fix the iteration order, accumulate in integers, or state why the order is already total", what, via(ws, info)),
                excerpt: excerpt(ws, gid, t.line),
            });
        };

        for i in a..=end {
            let t = &toks[i];
            // `.sum::<f64>()` / `.product::<f32>()`
            if (t.is_ident("sum") || t.is_ident("product"))
                && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && toks.get(i + 3).is_some_and(|x| x.is_punct('<'))
                && toks
                    .get(i + 4)
                    .is_some_and(|x| x.is_ident("f64") || x.is_ident("f32"))
            {
                push(t, format!("`{}::<float>()`", t.text));
            }
            // `.fold(0.0, ...)`
            if t.is_ident("fold")
                && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 2).is_some_and(|x| x.kind == TokKind::Float)
            {
                push(t, "`fold(float, …)`".to_string());
            }
            // `acc += …` on a float-bound accumulator
            if t.kind == TokKind::Ident
                && floats.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|x| {
                    x.is_punct('+') || x.is_punct('-') || x.is_punct('*') || x.is_punct('/')
                })
                && toks.get(i + 2).is_some_and(|x| x.is_punct('='))
            {
                push(t, format!("`{} {}= …`", t.text, toks[i + 1].text));
            }
        }
    }
}

/// `par-shared-mut`: a closure passed to a fan-out (`par::map`) capturing
/// and mutating shared state. The merge contract is per-slot results only —
/// cross-shard writes make the merge order observable.
fn par_shared_mut(ws: &Workspace, cfg: &Config, out: &mut Vec<Finding>) {
    for gid in 0..ws.fns.len() {
        let Some((a, b)) = ws.def(gid).body else { continue };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);
        for i in a..=end {
            if !(toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct('('))) {
                continue;
            }
            let Some(par_fn) = cfg.par_fns.iter().find(|f| path_ends_at(toks, i, f)) else {
                continue;
            };
            let call_end = match_paren(toks, i + 1).min(end);
            scan_closures(toks, i + 1, call_end, par_fn, fd, out);
        }
    }
}

/// Whether the call path whose last segment is the ident `toks[i]` ends
/// with `path` (`a::b`), segment by segment.
fn path_ends_at(toks: &[Tok], i: usize, path: &str) -> bool {
    let mut at = i;
    for (n, seg) in path.rsplit("::").enumerate() {
        if n > 0 {
            if at < 3 || !toks[at - 1].is_punct(':') || !toks[at - 2].is_punct(':') {
                return false;
            }
            at -= 3;
        }
        if !toks[at].is_ident(seg) {
            return false;
        }
    }
    true
}

/// Find closures among a par call's arguments and flag shared-state
/// mutation inside them.
fn scan_closures(
    toks: &[Tok],
    open: usize,
    close: usize,
    par_fn: &str,
    fd: &crate::symbols::FileData,
    out: &mut Vec<Finding>,
) {
    let mut i = open + 1;
    while i < close {
        let starts_closure = toks[i].is_punct('|')
            && i >= 1
            && (toks[i - 1].is_punct('(') || toks[i - 1].is_punct(',') || toks[i - 1].is_ident("move"));
        if !starts_closure {
            i += 1;
            continue;
        }
        // Params up to the closing `|`; every ident binds locally (types
        // in ascriptions over-approximate harmlessly).
        let mut locals: Vec<String> = Vec::new();
        let mut j = i + 1;
        while j < close && !toks[j].is_punct('|') {
            if toks[j].kind == TokKind::Ident {
                locals.push(toks[j].text.clone());
            }
            j += 1;
        }
        // Body: to the end of this argument — `,` at depth 0 or the call's `)`.
        let body_start = j + 1;
        let mut depth = 0i32;
        let mut k = body_start;
        while k < close {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                break;
            }
            k += 1;
        }
        let body_end = k;
        // `let` bindings inside the body are locals too.
        for m in body_start..body_end {
            if toks[m].is_ident("let") {
                let mut n = m + 1;
                while n < body_end
                    && (toks[n].is_ident("mut") || toks[n].is_punct('(') || toks[n].is_punct('&'))
                {
                    n += 1;
                }
                while n < body_end && toks[n].kind == TokKind::Ident {
                    locals.push(toks[n].text.clone());
                    // tuple patterns: `let (a, b) = …`
                    if toks.get(n + 1).is_some_and(|t| t.is_punct(',')) {
                        n += 2;
                    } else {
                        break;
                    }
                }
            }
        }
        let local = |name: &str| name == "_" || locals.iter().any(|l| l == name);
        let mut flag = |t: &Tok, what: String| {
            out.push(Finding {
                rule: "par-shared-mut",
                file: fd.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "{what} inside a `{par_fn}` closure mutates shared state across workers; return per-item results and merge after the join"
                ),
                excerpt: fd.lines.get(t.line.saturating_sub(1) as usize).cloned().unwrap_or_default(),
            });
        };
        const MUTATORS: &[&str] =
            &["push", "insert", "extend", "append", "remove", "push_str", "clear"];
        for m in body_start..body_end {
            let t = &toks[m];
            // `shared.lock()` / `shared.borrow_mut()`
            if t.is_punct('.')
                && toks
                    .get(m + 1)
                    .is_some_and(|x| x.is_ident("lock") || x.is_ident("borrow_mut"))
                && toks.get(m + 2).is_some_and(|x| x.is_punct('('))
            {
                flag(&toks[m + 1], format!("`.{}()`", toks[m + 1].text));
            }
            // `captured.push(…)`-style mutation of a non-local receiver
            if t.kind == TokKind::Ident
                && MUTATORS.contains(&t.text.as_str())
                && m >= 2
                && toks[m - 1].is_punct('.')
                && toks.get(m + 1).is_some_and(|x| x.is_punct('('))
            {
                if let Some(base) = receiver_base(toks, m - 1) {
                    if !local(&base) {
                        flag(t, format!("`{base}.{}(…)`", t.text));
                    }
                }
            }
            // assignment to a non-local lvalue
            if t.is_punct('=')
                && !toks.get(m + 1).is_some_and(|x| x.is_punct('='))
                && m >= 1
                && !(toks[m - 1].is_punct('=')
                    || toks[m - 1].is_punct('<')
                    || toks[m - 1].is_punct('>')
                    || toks[m - 1].is_punct('!'))
            {
                // skip one compound-op char (`+=`, `|=`, …)
                let mut lv = m - 1;
                if ["+", "-", "*", "/", "%", "&", "|", "^"].contains(&toks[lv].text.as_str())
                    && toks[lv].kind == TokKind::Punct
                {
                    if lv == 0 {
                        continue;
                    }
                    lv -= 1;
                }
                if let Some(base) = receiver_base(toks, lv + 1) {
                    let declared = toks[..lv + 1]
                        .iter()
                        .rev()
                        .take(4)
                        .any(|x| x.is_ident("let"));
                    if !local(&base) && !declared && lv >= body_start {
                        flag(&toks[m], format!("assignment to captured `{base}`"));
                    }
                }
            }
        }
        i = body_end;
    }
}

/// Walk a dotted/indexed lvalue chain leftward from just past its end;
/// returns the base identifier (`self.a[i].b` → `self` → its field, so
/// the first *named* segment after `self`).
fn receiver_base(toks: &[Tok], chain_end: usize) -> Option<String> {
    let mut k = chain_end as isize - 1;
    let mut base: Option<String> = None;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.kind == TokKind::Ident {
            base = Some(t.text.clone());
            if k == 0 || !toks[k as usize - 1].is_punct('.') {
                break;
            }
            k -= 2;
        } else if t.is_punct(']') {
            // skip the index expression
            let mut depth = 0i32;
            while k >= 0 {
                if toks[k as usize].is_punct(']') {
                    depth += 1;
                } else if toks[k as usize].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            k -= 1;
        } else {
            break;
        }
    }
    base.map(|b| {
        if b == "self" {
            // prefer the first field after self when present
            toks.get(chain_end.saturating_sub(1))
                .map(|_| b.clone())
                .unwrap_or(b)
        } else {
            b
        }
    })
}

/// `lock-order`: inconsistent lock-acquisition order across functions.
/// Zero-arg `.lock()` / `.read()` / `.write()` calls are treated as
/// acquisitions (argument-taking `read(buf)`/`write(buf)` are I/O, not
/// locks); if one function acquires `a` before `b` and another `b`
/// before `a`, shard workers interleaving them can deadlock.
fn lock_order(ws: &Workspace, out: &mut Vec<Finding>) {
    struct Acq {
        gid: usize,
        /// distinct receivers in first-acquisition order
        seq: Vec<String>,
        /// receiver → (line, col) of first acquisition
        at: BTreeMap<String, (u32, u32)>,
    }
    let mut fns: Vec<Acq> = Vec::new();
    for gid in 0..ws.fns.len() {
        let Some((a, b)) = ws.def(gid).body else { continue };
        let fd = ws.file_of(gid);
        let toks = &fd.lexed.toks;
        let end = b.min(toks.len() - 1);
        let mut seq: Vec<String> = Vec::new();
        let mut at = BTreeMap::new();
        for i in a..=end {
            let t = &toks[i];
            let is_acquire = t.is_punct('.')
                && toks.get(i + 1).is_some_and(|x| {
                    x.is_ident("lock") || x.is_ident("read") || x.is_ident("write")
                })
                && toks.get(i + 2).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 3).is_some_and(|x| x.is_punct(')'));
            if !is_acquire {
                continue;
            }
            let Some(base) = lock_key(toks, i) else { continue };
            if !seq.contains(&base) {
                at.insert(base.clone(), (toks[i + 1].line, toks[i + 1].col));
                seq.push(base);
            }
        }
        if seq.len() >= 2 {
            fns.push(Acq { gid, seq, at });
        }
    }
    // Ordered pairs per fn; conflict = (a,b) here and (b,a) elsewhere.
    for x in &fns {
        for ai in 0..x.seq.len() {
            for bi in ai + 1..x.seq.len() {
                let (a, b) = (&x.seq[ai], &x.seq[bi]);
                let Some(other) = fns.iter().find(|y| {
                    y.gid != x.gid
                        && y.seq.iter().position(|k| k == b).zip(y.seq.iter().position(|k| k == a))
                            .is_some_and(|(pb, pa)| pb < pa)
                }) else {
                    continue;
                };
                // Flag the non-canonical (alphabetically inverted) side
                // only, so each conflict yields exactly one finding pair
                // site and the fix direction is prescribed.
                if a < b {
                    continue;
                }
                let fd = ws.file_of(x.gid);
                let (line, col) = x.at[b];
                out.push(Finding {
                    rule: "lock-order",
                    file: fd.rel.clone(),
                    line,
                    col,
                    message: format!(
                        "`{}` acquires `{a}` then `{b}`, but `{}` ({}) acquires them in the opposite order; adopt one global order",
                        ws.qual_name(x.gid),
                        ws.qual_name(other.gid),
                        ws.file_of(other.gid).rel
                    ),
                    excerpt: excerpt(ws, x.gid, line),
                });
            }
        }
    }
}

/// Receiver key for a lock acquisition at the `.` before `lock/read/write`:
/// the dotted chain base-to-dot, minus a leading `self`.
fn lock_key(toks: &[Tok], dot: usize) -> Option<String> {
    let mut names: Vec<String> = Vec::new();
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.kind == TokKind::Ident {
            names.push(t.text.clone());
            if k == 0 || !toks[k as usize - 1].is_punct('.') {
                break;
            }
            k -= 2;
        } else {
            break;
        }
    }
    names.reverse();
    if names.first().is_some_and(|n| n == "self") {
        names.remove(0);
    }
    if names.is_empty() {
        None
    } else {
        Some(names.join("."))
    }
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}
