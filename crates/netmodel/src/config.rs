//! World-generation configuration.

use crate::faults::FaultConfig;

/// All knobs of the simulated Internet. Two worlds built from equal configs
/// are bit-identical.
///
/// The defaults target the "study scale": a few hundred thousand responsive
/// hosts in a few thousand ASes — the paper's population (≈11M responsive,
/// 31K ASes) scaled down ~20×, with every compositional ratio (ICMP ≫ TCP ≫
/// UDP responsiveness, churn, alias density, list coverage) preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of Autonomous Systems to synthesize.
    pub num_ases: usize,
    /// Multiplier on every per-AS host count (1.0 = study scale).
    pub scale: f64,
    /// Fraction of modeled endpoint addresses that have churned (observable
    /// in historical data sources, unresponsive today). Routers churn at a
    /// higher, kind-specific rate (Scamper-observed routers are largely
    /// unresponsive to direct probes — Table 3 shows ~20%).
    pub churn_rate: f64,
    /// Number of aliased regions to place.
    pub alias_regions: usize,
    /// Fraction of aliased regions present on the "published" alias list
    /// (the IPv6-Hitlist-style offline list). The remainder are the
    /// never-before-seen aliases that only online dealiasing can catch.
    pub alias_published_fraction: f64,
    /// Fraction of aliased regions subject to rate-limiting loss.
    pub alias_lossy_fraction: f64,
    /// Per-probe drop probability inside a lossy aliased region.
    pub alias_loss: f64,
    /// Baseline per-probe loss everywhere (transient congestion); retries
    /// re-draw, so the scanner's retry logic matters.
    pub base_loss: f64,
    /// Include the AS12322-analog megapattern (§4.1): a huge set of
    /// trivially discoverable ICMP responders inside one AS.
    pub megapattern: bool,
    /// Number of free (variable) nybbles in the megapattern. The paper's
    /// pattern had 6 (16.7M addresses); the study-scale default is 5 (1M
    /// addresses, ≈35% responsive), preserving the pattern's share of all
    /// ICMP responders.
    pub megapattern_free_nybbles: u8,
    /// Responsiveness rate inside the megapattern (paper measured 35.03%).
    pub megapattern_rate: f64,
    /// Probability an unknown address inside announced space elicits an
    /// ICMP Destination Unreachable (never counted as a hit, §4.1).
    pub unreachable_rate: f64,
    /// Probability a live host answers a closed TCP port with RST (never
    /// counted as a hit, §4.1).
    pub rst_rate: f64,
    /// Number of vantage-point ASes for traceroute collection.
    pub vantage_points: usize,
    /// Hostile-network fault model layered over the oracle (loss bursts,
    /// rate-limit escalation, blackholes, throttle epochs). Disabled in
    /// every preset, which is the cooperative-network behaviour.
    pub faults: FaultConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::study(0xC0FFEE)
    }
}

impl WorldConfig {
    /// Full study scale (used by benches, EXPERIMENTS.md, and examples).
    pub fn study(seed: u64) -> Self {
        WorldConfig {
            seed,
            num_ases: 2400,
            scale: 1.0,
            churn_rate: 0.33,
            alias_regions: 480,
            alias_published_fraction: 0.75,
            alias_lossy_fraction: 0.25,
            alias_loss: 0.55,
            base_loss: 0.01,
            megapattern: true,
            megapattern_free_nybbles: 5,
            megapattern_rate: 0.3503,
            unreachable_rate: 0.04,
            rst_rate: 0.7,
            vantage_points: 30,
            faults: FaultConfig::off(),
        }
    }

    /// A small world for unit/integration tests: a few thousand hosts,
    /// builds in milliseconds, still exhibits every phenomenon.
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            num_ases: 120,
            scale: 0.05,
            alias_regions: 24,
            megapattern_free_nybbles: 3,
            vantage_points: 6,
            ..Self::study(seed)
        }
    }

    /// A mid-size world for integration tests and quick experiments.
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            num_ases: 600,
            scale: 0.2,
            alias_regions: 120,
            megapattern_free_nybbles: 4,
            vantage_points: 12,
            ..Self::study(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let t = WorldConfig::tiny(1);
        let s = WorldConfig::small(1);
        let f = WorldConfig::study(1);
        assert!(t.num_ases < s.num_ases && s.num_ases < f.num_ases);
        assert!(t.scale < s.scale && s.scale < f.scale);
    }

    #[test]
    fn default_is_study_scale() {
        assert_eq!(WorldConfig::default().num_ases, 2400);
    }

    #[test]
    fn same_seed_same_config() {
        assert_eq!(WorldConfig::study(9), WorldConfig::study(9));
        assert_ne!(WorldConfig::study(9).seed, WorldConfig::study(10).seed);
    }
}
