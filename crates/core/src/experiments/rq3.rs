//! RQ3 (§8): per-source seed datasets — Tables 5, 6, 13, 14, 15.
//!
//! Each TGA runs on the responsive subset of each of the twelve sources;
//! the combined yield is compared against one 12×-budget run on the
//! All-Active pool (Table 5), and the discovered populations are
//! characterized by AS (Table 6).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::Ipv6Addr;

use netmodel::{Asn, Protocol, PROTOCOLS};
use seeds::SourceId;
use sos_obs::par;
use tga::TgaId;

use crate::report::{fmt_count, fmt_pct, Table};
use crate::runner::{cell_salt, run_tga, RunResult};
use crate::study::{DatasetKind, Study};

/// All RQ3 runs: per (source × TGA × port) cells plus the big-budget runs.
pub struct Rq3Results {
    /// Cells keyed by (source, proto, tga). Hit lists retained.
    cells: BTreeMap<(SourceId, Protocol, TgaId), RunResult>,
    /// One 12×-budget All-Active run per TGA on ICMP (Table 5's "600M").
    pub big_runs: BTreeMap<TgaId, RunResult>,
}

impl Rq3Results {
    /// One cell.
    pub fn get(&self, source: SourceId, proto: Protocol, tga: TgaId) -> &RunResult {
        self.cells.get(&(source, proto, tga)).expect("cell computed")
    }

    /// Number of computed source cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells were computed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Combined (union) hits and ASes across all sources for one TGA on
    /// one port — the "Combined" column of Table 5.
    pub fn combined(&self, proto: Protocol, tga: TgaId) -> (usize, usize) {
        let mut hits: HashSet<u128> = HashSet::new();
        let mut ases: BTreeSet<Asn> = BTreeSet::new();
        for ((_, p, t), r) in &self.cells {
            if *p == proto && *t == tga {
                hits.extend(r.clean_hits.iter().map(|&a| u128::from(a)));
                ases.extend(r.ases.iter().copied());
            }
        }
        (hits.len(), ases.len())
    }
}

/// The responsive subset of one source (All Active ∩ source, per Table 2).
pub fn source_active_seeds(study: &Study, source: SourceId) -> Vec<Ipv6Addr> {
    let active: HashSet<u128> = study
        .dataset(DatasetKind::AllActive)
        .iter()
        .map(|&a| u128::from(a))
        .collect();
    study
        .collection()
        .get(source)
        .addrs
        .iter()
        .copied()
        .filter(|&a| active.contains(&u128::from(a)))
        .collect()
}

/// Run the full RQ3 grid. `protos` is configurable because Table 5/13 use
/// ICMP only while Tables 14–15 add the other three targets.
pub fn run_rq3(study: &Study, protos: &[Protocol], tgas: &[TgaId]) -> Rq3Results {
    let sources: Vec<(SourceId, Vec<Ipv6Addr>)> = SourceId::ALL
        .iter()
        .map(|&s| (s, source_active_seeds(study, s)))
        .collect();

    let mut work: Vec<(SourceId, Protocol, TgaId)> = Vec::new();
    for (s, _) in &sources {
        for &p in protos {
            for &t in tgas {
                work.push((*s, p, t));
            }
        }
    }
    let threads = study.config().effective_threads();
    let budget = study.config().budget;
    let seed_of = |s: SourceId| -> &Vec<Ipv6Addr> {
        &sources.iter().find(|(id, _)| *id == s).expect("source").1
    };
    let total_cells = work.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    let cells: BTreeMap<(SourceId, Protocol, TgaId), RunResult> =
        par::map("rq3.sources", work, threads, |(source, proto, tga)| {
            let salt = cell_salt(0x593, tga, proto, source.stream());
            let r = run_tga(study, tga, seed_of(source), proto, budget, salt);
            // sos-lint: allow(conc-relaxed) progress counter for log lines only; never read back into results
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n % 32 == 0 {
                sos_obs::info!("rq3: {n}/{total_cells} source cells");
            }
            ((source, proto, tga), r)
        })
        .into_iter()
        .collect();

    // The "600M" analog: one big All-Active run per TGA on ICMP.
    let big_budget = budget * study.config().big_budget_multiplier;
    let all_active = study.dataset(DatasetKind::AllActive).to_vec();
    let big_runs: BTreeMap<TgaId, RunResult> = par::map("rq3.big", tgas.to_vec(), threads, |tga| {
        let _span = sos_obs::span_detail("big_run", format!("tga={tga}"));
        let salt = cell_salt(0x600, tga, Protocol::Icmp, 99);
        let r = run_tga(study, tga, &all_active, Protocol::Icmp, big_budget, salt);
        (tga, r)
    })
    .into_iter()
    .collect();

    Rq3Results { cells, big_runs }
}

/// Render Table 5: combined source yields vs the 12×-budget run (ICMP).
pub fn render_table5(r: &Rq3Results) -> String {
    let mut t = Table::new("Table 5 — combined source runs vs 12x-budget run (ICMP)")
        .header(["TGA", "Hits Combined", "Hits 12x", "ASes Combined", "ASes 12x"]);
    for (&tga, big) in &r.big_runs {
        let (hits, ases) = r.combined(Protocol::Icmp, tga);
        t.row([
            tga.label().to_string(),
            fmt_count(hits),
            fmt_count(big.metrics.hits),
            fmt_count(ases),
            fmt_count(big.metrics.ases),
        ]);
    }
    t.render()
}

/// Render Tables 13–15: raw per-source hits/ASes for one port.
pub fn render_source_raw(r: &Rq3Results, proto: Protocol) -> String {
    let tgas: Vec<TgaId> = TgaId::ALL
        .iter()
        .copied()
        .filter(|&t| SourceId::ALL.iter().any(|&s| r.cells.contains_key(&(s, proto, t))))
        .collect();
    let table_no = match proto {
        Protocol::Icmp => "13".to_string(),
        Protocol::Tcp80 => "14 (TCP80)".to_string(),
        Protocol::Tcp443 => "14 (TCP443)".to_string(),
        Protocol::Udp53 => "14 (UDP53)".to_string(),
    };
    let mut header = vec!["Metric".to_string(), "Source".to_string()];
    header.extend(tgas.iter().map(|t| t.label().to_string()));
    let mut t = Table::new(format!(
        "Table {table_no} — source-specific {} raw numbers (RQ3)",
        proto.label()
    ))
    .header(header);
    for metric in ["Hits", "ASes"] {
        for source in SourceId::ALL {
            let mut row = vec![metric.to_string(), source.label().to_string()];
            for &tga in &tgas {
                match r.cells.get(&(source, proto, tga)) {
                    Some(cell) => row.push(fmt_count(if metric == "Hits" {
                        cell.metrics.hits
                    } else {
                        cell.metrics.ases
                    })),
                    None => row.push("-".into()),
                }
            }
            t.row(row);
        }
        if proto == Protocol::Icmp {
            // Table 13 carries the 600M row too.
            let mut row = vec![metric.to_string(), "12x budget".to_string()];
            for &tga in &tgas {
                match r.big_runs.get(&tga) {
                    Some(cell) => row.push(fmt_count(if metric == "Hits" {
                        cell.metrics.hits
                    } else {
                        cell.metrics.ases
                    })),
                    None => row.push("-".into()),
                }
            }
            t.row(row);
        }
    }
    t.render()
}

/// One Table 6 cell: the top ASes discovered from one source on one port.
#[derive(Debug, Clone)]
pub struct AsCharacterization {
    /// The seed source.
    pub source: SourceId,
    /// The scan target.
    pub proto: Protocol,
    /// `(asn, org name, share of hits)` for the top ASes.
    pub top: Vec<(Asn, String, f64)>,
    /// Total distinct ASes discovered.
    pub total_ases: usize,
}

/// Table 6: combined discovered population (all TGAs) per source × port,
/// characterized by origin AS.
pub fn as_characterization(study: &Study, r: &Rq3Results) -> Vec<AsCharacterization> {
    let mut out = Vec::new();
    for source in SourceId::ALL {
        for proto in PROTOCOLS {
            let mut hits: BTreeSet<u128> = BTreeSet::new();
            for tga in TgaId::ALL {
                if let Some(cell) = r.cells.get(&(source, proto, tga)) {
                    hits.extend(cell.clean_hits.iter().map(|&a| u128::from(a)));
                }
            }
            if hits.is_empty() {
                continue;
            }
            let mut per_as: BTreeMap<Asn, usize> = BTreeMap::new();
            for &bits in &hits {
                if let Some(asn) = study.world().asn_of(Ipv6Addr::from(bits)) {
                    *per_as.entry(asn).or_insert(0) += 1;
                }
            }
            let mut ranked: Vec<(Asn, usize)> = per_as.iter().map(|(&a, &c)| (a, c)).collect();
            ranked.sort_by_key(|&(a, c)| (std::cmp::Reverse(c), a));
            let top = ranked
                .iter()
                .take(3)
                .map(|&(asn, count)| {
                    let name = study
                        .world()
                        .registry()
                        .info(asn)
                        .map(|i| i.name.clone())
                        .unwrap_or_else(|| asn.to_string());
                    (asn, name, count as f64 / hits.len() as f64)
                })
                .collect();
            out.push(AsCharacterization {
                source,
                proto,
                top,
                total_ases: per_as.len(),
            });
        }
    }
    out
}

/// Render Table 6.
pub fn render_table6(rows: &[AsCharacterization]) -> String {
    let mut t = Table::new("Table 6 — top ASes discovered per source x port")
        .header(["Source", "Port", "1st", "2nd", "3rd", "Total ASes"]);
    for c in rows {
        let cell = |i: usize| -> String {
            c.top
                .get(i)
                .map(|(_, name, share)| format!("{} {}", fmt_pct(*share), name))
                .unwrap_or_else(|| "-".into())
        };
        t.row([
            c.source.label().to_string(),
            c.proto.label().to_string(),
            cell(0),
            cell(1),
            cell(2),
            fmt_count(c.total_ases),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn source_seeds_are_active_subsets() {
        let study = Study::new(StudyConfig::tiny(111));
        let hitlist = source_active_seeds(&study, SourceId::Hitlist);
        let full = study.collection().get(SourceId::Hitlist).addrs.len();
        assert!(!hitlist.is_empty());
        assert!(hitlist.len() < full, "active subset is strictly smaller");
    }

    #[test]
    fn rq3_mini_run_produces_table5_shape() {
        let study = Study::new(StudyConfig::tiny(111));
        let r = run_rq3(&study, &[Protocol::Icmp], &[TgaId::SixTree]);
        assert_eq!(r.len(), 12);
        let (combined_hits, combined_ases) = r.combined(Protocol::Icmp, TgaId::SixTree);
        let big = &r.big_runs[&TgaId::SixTree].metrics;
        assert!(combined_hits > 0);
        assert!(big.hits > 0);
        // the big run gets 12× the budget of any single source run
        assert!(big.generated > study.config().budget * 6);
        let t5 = render_table5(&r);
        assert!(t5.contains("6Tree"));
        let t13 = render_source_raw(&r, Protocol::Icmp);
        assert!(t13.contains("12x budget"));
        let chars = as_characterization(&study, &r);
        assert!(!chars.is_empty());
        for c in &chars {
            assert!(c.total_ases >= 1);
            let share_sum: f64 = c.top.iter().map(|t| t.2).sum();
            assert!(share_sum <= 1.0 + 1e-9);
        }
        let t6 = render_table6(&chars);
        assert!(t6.contains("Total ASes"));
        let _ = combined_ases;
    }
}
