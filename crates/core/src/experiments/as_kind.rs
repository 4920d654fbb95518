//! Extension experiment: seed datasets split by AS *category* — the
//! Steger et al. (TMA 2023) methodology this paper builds on (§2.4).
//!
//! Steger et al. partitioned the IPv6 Hitlist by PeeringDB organization
//! labels and compared TGA behavior per category. Our registry carries the
//! analogous classification ([`AsKind`]), so the experiment reproduces
//! cleanly: split the All-Active seeds by the origin AS's category, run
//! each TGA on each slice, and compare what kinds of networks each slice
//! leads the generators into.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use netmodel::{AsKind, Protocol};
use sos_obs::par;
use tga::TgaId;

use crate::report::{fmt_count, Table};
use crate::runner::{cell_salt, run_tga, RunResult};
use crate::study::{DatasetKind, Study};

/// The categories evaluated (every kind the registry assigns).
pub const KINDS: [AsKind; 8] = [
    AsKind::TransitIsp,
    AsKind::AccessIsp,
    AsKind::Mobile,
    AsKind::CloudHosting,
    AsKind::Cdn,
    AsKind::Education,
    AsKind::Government,
    AsKind::Enterprise,
];

/// Split the All-Active seeds by origin-AS category.
pub fn seeds_by_kind(study: &Study) -> BTreeMap<&'static str, Vec<Ipv6Addr>> {
    let mut out: BTreeMap<&'static str, Vec<Ipv6Addr>> = BTreeMap::new();
    for &addr in study.dataset(DatasetKind::AllActive) {
        let Some(asn) = study.world().asn_of(addr) else {
            continue;
        };
        let Some(info) = study.world().registry().info(asn) else {
            continue;
        };
        out.entry(kind_label(info.kind)).or_default().push(addr);
    }
    out
}

/// Stable label for an AS kind.
pub fn kind_label(kind: AsKind) -> &'static str {
    match kind {
        AsKind::TransitIsp => "Transit",
        AsKind::AccessIsp => "AccessISP",
        AsKind::Mobile => "Mobile",
        AsKind::CloudHosting => "Cloud",
        AsKind::Cdn => "CDN",
        AsKind::Education => "Education",
        AsKind::Government => "Government",
        AsKind::Enterprise => "Enterprise",
    }
}

/// Results of the category-split experiment.
pub struct KindResults {
    /// `(category, tga)` → run result.
    pub cells: BTreeMap<(&'static str, TgaId), RunResult>,
    /// Seed count per category.
    pub seed_counts: BTreeMap<&'static str, usize>,
}

/// Run each TGA on each category slice (ICMP, as in Steger et al.).
pub fn run_by_kind(study: &Study, tgas: &[TgaId]) -> KindResults {
    let slices = seeds_by_kind(study);
    let seed_counts: BTreeMap<&'static str, usize> =
        slices.iter().map(|(k, v)| (*k, v.len())).collect();
    let mut work: Vec<(&'static str, TgaId)> = Vec::new();
    for k in slices.keys() {
        for &t in tgas {
            work.push((k, t));
        }
    }
    let threads = study.config().effective_threads();
    let budget = study.config().budget;
    let cells: BTreeMap<(&'static str, TgaId), RunResult> = par::map("as_kind", work, threads, |(kind, tga)| {
        let seeds = &slices[kind];
        let salt = cell_salt(0xa5d0, tga, Protocol::Icmp, kind.len() as u64);
        let r = run_tga(study, tga, seeds, Protocol::Icmp, budget, salt);
        ((kind, tga), r)
    })
    .into_iter()
    .collect();
    KindResults { cells, seed_counts }
}

impl KindResults {
    /// For one category and TGA: what fraction of the discovered hits stay
    /// inside the seed category vs. leak into other network kinds?
    pub fn containment(&self, study: &Study, kind: &'static str, tga: TgaId) -> Option<f64> {
        let r = self.cells.get(&(kind, tga))?;
        if r.clean_hits.is_empty() {
            return None;
        }
        let inside = r
            .clean_hits
            .iter()
            .filter(|&&h| {
                study
                    .world()
                    .asn_of(h)
                    .and_then(|a| study.world().registry().info(a))
                    .is_some_and(|i| kind_label(i.kind) == kind)
            })
            .count();
        Some(inside as f64 / r.clean_hits.len() as f64)
    }

    /// Render per-category hits/ASes per TGA.
    pub fn render(&self, study: &Study) -> String {
        let tgas: Vec<TgaId> = TgaId::ALL
            .iter()
            .copied()
            .filter(|t| self.cells.keys().any(|(_, ct)| ct == t))
            .collect();
        let mut header = vec!["Category".to_string(), "Seeds".to_string()];
        for t in &tgas {
            header.push(format!("{} hits", t.label()));
            header.push(format!("{} ASes", t.label()));
        }
        let mut table =
            Table::new("Extension — TGA performance on AS-category seed slices (ICMP)").header(header);
        for (&kind, &count) in &self.seed_counts {
            let mut row = vec![kind.to_string(), fmt_count(count)];
            for &t in &tgas {
                match self.cells.get(&(kind, t)) {
                    Some(r) => {
                        row.push(fmt_count(r.metrics.hits));
                        row.push(fmt_count(r.metrics.ases));
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
            table.row(row);
        }
        let _ = study;
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn slices_partition_the_all_active_dataset() {
        let study = Study::new(StudyConfig::tiny(0xA5));
        let slices = seeds_by_kind(&study);
        let total: usize = slices.values().map(Vec::len).sum();
        assert_eq!(total, study.dataset(DatasetKind::AllActive).len());
        assert!(slices.len() >= 4, "several categories present: {:?}", slices.keys());
    }

    #[test]
    fn category_runs_produce_results_and_containment() {
        let study = Study::new(StudyConfig::tiny(0xA5));
        let r = run_by_kind(&study, &[TgaId::SixTree]);
        assert!(!r.cells.is_empty());
        // hosting seeds should mostly rediscover hosting networks
        if let Some(c) = r.containment(&study, "Cloud", TgaId::SixTree) {
            assert!(c > 0.5, "cloud containment {c}");
        }
        let rendered = r.render(&study);
        assert!(rendered.contains("Category"));
    }
}
