//! The eight Target Generation Algorithms of the study (§2.1, §4.1).
//!
//! Clean-room Rust implementations, each following its paper's algorithm:
//!
//! | TGA | Style | Core idea |
//! |-----|-------|-----------|
//! | [`entropy_ip`] (EIP) | offline | nybble-entropy segmentation + conditional segment model |
//! | [`six_gen`] (6Gen) | offline | cluster seeds into tight nybble ranges, enumerate densest |
//! | [`six_tree`] (6Tree) | offline | divisive hierarchical space tree, expand dense leaves |
//! | [`six_graph`] (6Graph) | offline | entropy-split tree + outlier-pruned pattern mining |
//! | [`six_hit`] (6Hit) | online | reinforcement (hit-reward) budget allocation over regions |
//! | [`six_scan`] (6Scan) | online | region ids encoded *in probe packets*, reward by echoed tag |
//! | [`det`] (DET) | online | density/entropy tree, hit re-insertion, UCB-style exploration |
//! | [`six_sense`] (6Sense) | online | per-segment generative model + prefix bandit + AS-diversity budget + integrated online dealiasing |
//!
//! Every generator consumes a seed list and produces `budget` unique
//! candidate addresses. Online generators additionally probe through a
//! [`ScanOracle`] while generating (re-run per scan target, per §4.1:
//! "for online generators we rerun generation for each port and protocol
//! scanned").

pub mod det;
pub mod entropy_ip;
pub mod parallel;
pub mod pattern;
pub mod six_gen;
pub mod six_graph;
pub mod six_hit;
pub mod six_scan;
pub mod six_sense;
pub mod six_tree;
pub mod space_tree;

pub use pattern::{Pattern, ValueHist};
pub use space_tree::{build_regions_par, Region, SplitStrategy};

use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_probe::provenance::{ProvenanceLog, REGION_FILL};
use sos_probe::ScanOracle;
use v6addr::rng::SmallRng;

/// Identifies one of the eight studied TGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TgaId {
    /// 6Sense (Williams et al., USENIX Security 2024).
    SixSense,
    /// DET (Song et al., ToN 2022).
    Det,
    /// 6Tree (Liu et al., Computer Networks 2019).
    SixTree,
    /// 6Scan (Hou et al., ToN 2023).
    SixScan,
    /// 6Graph (Yang et al., Computer Networks 2022).
    SixGraph,
    /// 6Gen (Murdock et al., IMC 2017).
    SixGen,
    /// 6Hit (Hou et al., INFOCOM 2021).
    SixHit,
    /// Entropy/IP (Foremski et al., IMC 2016).
    EntropyIp,
}

impl TgaId {
    /// All eight, in the paper's usual presentation order.
    pub const ALL: [TgaId; 8] = [
        TgaId::SixSense,
        TgaId::Det,
        TgaId::SixTree,
        TgaId::SixScan,
        TgaId::SixGraph,
        TgaId::SixGen,
        TgaId::SixHit,
        TgaId::EntropyIp,
    ];

    /// Display label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            TgaId::SixSense => "6Sense",
            TgaId::Det => "DET",
            TgaId::SixTree => "6Tree",
            TgaId::SixScan => "6Scan",
            TgaId::SixGraph => "6Graph",
            TgaId::SixGen => "6Gen",
            TgaId::SixHit => "6Hit",
            TgaId::EntropyIp => "EIP",
        }
    }

    /// Online TGAs adapt to scan results during generation (§1).
    pub fn is_online(self) -> bool {
        matches!(
            self,
            TgaId::SixSense | TgaId::Det | TgaId::SixScan | TgaId::SixHit
        )
    }

    /// Compact provenance source id (this TGA's index in [`Self::ALL`]) —
    /// the `source` byte carried by every
    /// [`Provenance`](sos_probe::Provenance) tag.
    pub fn code(self) -> u8 {
        // sos-lint: allow(panic-unwrap) ALL contains every variant by construction
        TgaId::ALL.iter().position(|&t| t == self).expect("TgaId in ALL") as u8
    }

    /// Inverse of [`Self::code`] (`None` for ids no TGA owns, e.g. the
    /// raw-target-list source `255`).
    pub fn from_code(code: u8) -> Option<TgaId> {
        TgaId::ALL.get(usize::from(code)).copied()
    }
}

impl std::fmt::Display for TgaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generation parameters shared by all TGAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of unique candidate addresses to produce.
    pub budget: usize,
    /// RNG seed (generation is deterministic given seeds + config +
    /// oracle behavior).
    pub seed: u64,
    /// The scan target online generators adapt to.
    pub proto: Protocol,
    /// Worker threads for within-round generation fan-out
    /// ([`parallel`]). The candidate stream is bit-identical at any
    /// value (W-invariance); this only buys wall-clock.
    pub workers: usize,
}

impl GenConfig {
    /// Convenience constructor (single-worker generation).
    pub fn new(budget: usize, seed: u64, proto: Protocol) -> Self {
        GenConfig { budget, seed, proto, workers: 1 }
    }

    /// Set the generation worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Clamp a generation round counter into the `u16` provenance birth-round
/// field. Every TGA records rounds through this one helper, so
/// long-budget runs that pass 65 535 rounds saturate identically
/// everywhere instead of mixing `u16::saturating_add` (6Scan, formerly)
/// with ad-hoc `usize` clamps (DET, formerly).
pub fn clamp_round(round: usize) -> u16 {
    round.min(u16::MAX as usize) as u16
}

/// Indices of the `k` best entries of `keys` — highest first when
/// `descending`, lowest first otherwise — with ties going to the lower
/// index: exactly the first `k` of a stable sort of `0..keys.len()` by
/// key, at selection cost instead of a full sort.
pub(crate) fn top_k(keys: &[f64], k: usize, descending: bool) -> Vec<usize> {
    let cmp = |&a: &usize, &b: &usize| {
        let by_key = keys[a].total_cmp(&keys[b]); // a, b < keys.len(): indices of keys
        if descending { by_key.reverse() } else { by_key }.then(a.cmp(&b))
    };
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// A target generation algorithm.
pub trait TargetGenerator {
    /// Which TGA this is.
    fn id(&self) -> TgaId;

    /// Generate up to `cfg.budget` unique candidates from `seeds`,
    /// recording each candidate's provenance (internal region/cluster id,
    /// contributing-seed digest, generation round) into `prov` — one
    /// [`ProvenanceLog::push`] per emitted address, in emission order.
    ///
    /// Offline generators ignore `oracle`; online ones probe through it
    /// and adapt. Returned addresses are deduplicated; generators always
    /// fill the budget (falling back to seed mutation when their model
    /// space is exhausted, mirroring the paper's observation that all
    /// eight "successfully generated 50M addresses"; fill output is
    /// tagged [`REGION_FILL`]).
    ///
    /// A disabled log makes every push a no-op, so the tagged and
    /// untagged paths run the **same code** — candidate streams are
    /// bit-identical by construction (asserted by the crate's
    /// `provenance_identity` test).
    // sos-lint: deterministic-root candidate streams must be bit-identical across reruns
    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr>;

    /// [`Self::generate_tagged`] without provenance recording.
    fn generate(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
    ) -> Vec<Ipv6Addr> {
        self.generate_tagged(seeds, cfg, oracle, &mut ProvenanceLog::disabled())
    }
}

/// Instantiate a TGA by id with its default parameters (§4.1 uses default
/// TGA parameters throughout).
///
/// ```
/// use netmodel::Protocol;
/// use sos_probe::NullOracle;
/// use tga::{build, GenConfig, TgaId};
/// let seeds: Vec<std::net::Ipv6Addr> =
///     (1..=8u128).map(|i| std::net::Ipv6Addr::from(0x2600u128 << 112 | i)).collect();
/// let out = build(TgaId::SixTree).generate(
///     &seeds,
///     &GenConfig::new(100, 42, Protocol::Icmp),
///     &mut NullOracle::default(),
/// );
/// assert_eq!(out.len(), 100); // every TGA fills its budget
/// ```
pub fn build(id: TgaId) -> Box<dyn TargetGenerator> {
    let inner: Box<dyn TargetGenerator> = match id {
        TgaId::SixSense => Box::new(six_sense::SixSense::default()),
        TgaId::Det => Box::new(det::Det::default()),
        TgaId::SixTree => Box::new(six_tree::SixTree::default()),
        TgaId::SixScan => Box::new(six_scan::SixScan::default()),
        TgaId::SixGraph => Box::new(six_graph::SixGraph::default()),
        TgaId::SixGen => Box::new(six_gen::SixGen::default()),
        TgaId::SixHit => Box::new(six_hit::SixHit::default()),
        TgaId::EntropyIp => Box::new(entropy_ip::EntropyIp::default()),
    };
    Box::new(Instrumented { inner })
}

/// Central metric-name table for this crate (`obs-metric-names` policy:
/// registry names are consts, never inline literals, so the journal,
/// manifest, and dashboards can never drift from the code).
pub mod names {
    /// Addresses generated, summed over every TGA.
    pub const GENERATED_ADDRS: &str = "tga.generated_addrs";
    /// Oracle probe packets spent during generation.
    pub const GEN_PACKETS: &str = "tga.gen_packets";
    /// Generation throughput histogram, addresses per second.
    pub const ADDRS_PER_SEC: &str = "tga.addrs_per_sec";
    /// Candidates emitted with a provenance tag (tagged runs only).
    pub const PROV_TAGGED: &str = "tga.provenance.tagged";
    /// Distinct provenance regions the generators emitted into.
    pub const PROV_REGIONS: &str = "tga.provenance.regions";
}

/// Transparent observability wrapper around any generator: every
/// `generate` call runs inside a `generate` span and reports throughput
/// (`tga.generated_addrs`, per-TGA counters, and the
/// `tga.addrs_per_sec` histogram) without touching the address stream.
struct Instrumented {
    inner: Box<dyn TargetGenerator>,
}

impl TargetGenerator for Instrumented {
    fn id(&self) -> TgaId {
        self.inner.id()
    }

    fn generate_tagged(
        &mut self,
        seeds: &[Ipv6Addr],
        cfg: &GenConfig,
        oracle: &mut dyn ScanOracle,
        prov: &mut ProvenanceLog,
    ) -> Vec<Ipv6Addr> {
        let label = self.inner.id().label();
        let _span = sos_obs::span_detail(
            "generate",
            format!("tga={label} budget={} proto={:?}", cfg.budget, cfg.proto),
        );
        let start = sos_obs::now_s();
        let packets_before = oracle.packets_sent();
        let tagged_before = prov.len();
        let out = self.inner.generate_tagged(seeds, cfg, oracle, prov);
        let dur_s = sos_obs::now_s() - start;
        let gen_packets = oracle.packets_sent() - packets_before;
        sos_obs::counter(names::GENERATED_ADDRS).add(out.len() as u64);
        sos_obs::counter(&format!("tga.{label}.generated_addrs")).add(out.len() as u64);
        sos_obs::counter(names::GEN_PACKETS).add(gen_packets);
        if prov.is_enabled() {
            sos_obs::counter(names::PROV_TAGGED).add((prov.len() - tagged_before) as u64);
            let regions: std::collections::HashSet<u32> = (tagged_before..prov.len())
                .filter_map(|i| prov.get(i))
                .map(|p| p.region)
                .collect();
            sos_obs::counter(names::PROV_REGIONS).add(regions.len() as u64);
        }
        if dur_s > 0.0 {
            let rate = (out.len() as f64 / dur_s) as u64;
            sos_obs::histogram(names::ADDRS_PER_SEC).record(rate);
            sos_obs::debug!(
                "{label}: {} addrs in {dur_s:.3}s ({rate} addrs/s), {gen_packets} online pkts",
                out.len(),
            );
        }
        out
    }
}

/// Shared budget-filling fallback: mutate random seeds in their low
/// nybbles until `out` reaches `budget`. Every TGA paper pads its output
/// when the learned model saturates; low-nybble mutation is the common
/// generic expansion. Fill output has no structural region, so every
/// emitted address is tagged [`REGION_FILL`].
pub(crate) fn fill_budget_by_mutation(
    out: &mut Vec<Ipv6Addr>,
    seen: &mut v6addr::AddrSet,
    seeds: &[Ipv6Addr],
    budget: usize,
    rng: &mut SmallRng,
    prov: &mut ProvenanceLog,
) {
    use v6addr::with_nybble;
    if seeds.is_empty() {
        // No seeds at all: sample global unicast space at random.
        while out.len() < budget {
            let bits = 0x2000_0000_0000_0000_0000_0000_0000_0000u128 | (rng.gen::<u128>() >> 3);
            if seen.insert(bits) {
                out.push(Ipv6Addr::from(bits));
                prov.push(REGION_FILL, 0, 0);
            }
        }
        return;
    }
    let mut stale = 0usize;
    while out.len() < budget && stale < budget * 20 + 1000 {
        let seed = seeds[rng.gen_range(0..seeds.len())];
        let mut addr = seed;
        let mutations = 1 + rng.gen_range(0..4);
        for _ in 0..mutations {
            // mutate low-64 nybbles most of the time, subnet nybbles rarely
            let pos = if rng.gen_bool(0.85) {
                rng.gen_range(16..32)
            } else {
                rng.gen_range(12..16)
            };
            addr = with_nybble(addr, pos, rng.gen_range(0..16));
        }
        if seen.insert(u128::from(addr)) {
            out.push(addr);
            prov.push(REGION_FILL, 0, 0);
            stale = 0;
        } else {
            stale += 1;
        }
    }
    // Pathological dedup exhaustion: pad with random global unicast.
    while out.len() < budget {
        let bits = 0x2000_0000_0000_0000_0000_0000_0000_0000u128 | (rng.gen::<u128>() >> 3);
        if seen.insert(bits) {
            out.push(Ipv6Addr::from(bits));
            prov.push(REGION_FILL, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_tgas_with_distinct_labels() {
        let mut labels: Vec<&str> = TgaId::ALL.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn online_classification_matches_paper() {
        assert!(TgaId::SixSense.is_online());
        assert!(TgaId::Det.is_online());
        assert!(TgaId::SixScan.is_online());
        assert!(TgaId::SixHit.is_online());
        assert!(!TgaId::SixTree.is_online());
        assert!(!TgaId::SixGraph.is_online());
        assert!(!TgaId::SixGen.is_online());
        assert!(!TgaId::EntropyIp.is_online());
    }

    #[test]
    fn build_constructs_every_tga() {
        for id in TgaId::ALL {
            assert_eq!(build(id).id(), id);
        }
    }

    #[test]
    fn codes_round_trip_and_stay_dense() {
        for (i, id) in TgaId::ALL.into_iter().enumerate() {
            assert_eq!(id.code(), i as u8, "code is the ALL index");
            assert_eq!(TgaId::from_code(id.code()), Some(id));
        }
        assert_eq!(TgaId::from_code(8), None);
        assert_eq!(TgaId::from_code(sos_probe::SOURCE_TARGETS), None);
    }

    #[test]
    fn clamp_round_saturates_exactly_at_the_u16_boundary() {
        assert_eq!(clamp_round(0), 0);
        assert_eq!(clamp_round(65534), 65534);
        assert_eq!(clamp_round(65535), u16::MAX, "boundary value is representable");
        assert_eq!(clamp_round(65536), u16::MAX, "first overflow saturates");
        assert_eq!(clamp_round(usize::MAX), u16::MAX);
    }

    #[test]
    fn gen_config_workers_default_and_clamp() {
        let cfg = GenConfig::new(10, 1, netmodel::Protocol::Icmp);
        assert_eq!(cfg.workers, 1, "sequential by default");
        assert_eq!(cfg.with_workers(8).workers, 8);
        assert_eq!(cfg.with_workers(0).workers, 1, "0 clamps to 1");
    }

    #[test]
    fn top_k_is_the_stable_sort_prefix() {
        let mut state = 0x70b_u64;
        for n in [0usize, 1, 2, 7, 64, 300] {
            // few distinct values, so ties are everywhere
            let keys: Vec<f64> = (0..n)
                .map(|_| {
                    state = v6addr::splitmix64(state);
                    (state % 5) as f64 * 0.25
                })
                .collect();
            for descending in [true, false] {
                let mut stable: Vec<usize> = (0..n).collect();
                if descending {
                    stable.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]));
                } else {
                    stable.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
                }
                for k in [0, 1, 3, n / 2, n, n + 5] {
                    let want: Vec<usize> = stable.iter().copied().take(k).collect();
                    assert_eq!(top_k(&keys, k, descending), want, "n={n} k={k} desc={descending}");
                }
            }
        }
    }

    #[test]
    fn mutation_filler_reaches_budget_and_dedups() {
        let mut rng = SmallRng::seed_from_u64(1);
        let seeds: Vec<Ipv6Addr> = vec!["2001:db8::1".parse().unwrap()];
        let mut out = Vec::new();
        let mut seen = v6addr::AddrSet::default();
        let mut prov = ProvenanceLog::recording(TgaId::SixTree.code());
        fill_budget_by_mutation(&mut out, &mut seen, &seeds, 500, &mut rng, &mut prov);
        assert_eq!(out.len(), 500);
        assert_eq!(prov.len(), 500, "one tag per emitted address");
        assert!(prov.get(0).is_some_and(|p| p.region == REGION_FILL));
        let mut uniq = out.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 500);
    }

    #[test]
    fn mutation_filler_handles_empty_seeds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        let mut seen = v6addr::AddrSet::default();
        fill_budget_by_mutation(&mut out, &mut seen, &[], 100, &mut rng, &mut ProvenanceLog::disabled());
        assert_eq!(out.len(), 100);
        // everything lands in global unicast 2000::/3
        assert!(out.iter().all(|a| u128::from(*a) >> 125 == 1));
    }
}
