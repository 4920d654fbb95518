//! Study-wide configuration.

use netmodel::WorldConfig;
use seeds::CollectorConfig;

/// Every knob of one end-to-end study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// The simulated Internet.
    pub world: WorldConfig,
    /// Seed collection sampling.
    pub collector: CollectorConfig,
    /// Per-TGA generation budget (the paper's 50M, scaled).
    pub budget: usize,
    /// Budget multiplier for the RQ3 "600M" single big run (12×).
    pub big_budget_multiplier: usize,
    /// RNG seed for generation.
    pub gen_seed: u64,
    /// Scanner retransmissions after the first attempt.
    pub scan_retries: u32,
    /// Worker shards for each scan pass (`Scanner::scan_parallel`). With
    /// 1 the sequential wire path runs; results are bit-identical either
    /// way, the shards only split the pps budget and the wall clock.
    pub scan_shards: usize,
    /// Worker threads for within-round TGA generation fan-out
    /// (`tga::parallel`, 6Scan/DET). Candidate streams are bit-identical
    /// at any value (W-invariance) — like `scan_shards`, this only buys
    /// wall clock.
    pub gen_workers: usize,
    /// Run independent (tga × port) experiment cells on worker threads.
    pub parallel: bool,
    /// Explicit worker-thread count for experiment grids (`--threads`).
    /// `None` picks [`default_threads`] when `parallel`, else 1.
    pub threads: Option<usize>,
}

impl StudyConfig {
    /// Full study scale: the paper's 50M budget scaled by the same factor
    /// as the world (≈300×), preserving budget-to-population ratios.
    pub fn study(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::study(seed),
            collector: CollectorConfig { seed: seed ^ 0xc0_11ec },
            budget: 150_000,
            big_budget_multiplier: 12,
            gen_seed: seed ^ 0x9e4,
            scan_retries: 1,
            scan_shards: 1,
            gen_workers: 1,
            parallel: true,
            threads: None,
        }
    }

    /// Worker threads experiment grids should use: an explicit `threads`
    /// always wins; otherwise `parallel` selects between the default
    /// worker count and sequential execution. Cell results never depend
    /// on the thread count (each cell owns its RNG and scanner), so this
    /// only affects wall-clock time.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None if self.parallel => default_threads(),
            None => 1,
        }
    }

    /// Mid-size: for quick experiment iterations and integration tests.
    pub fn small(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::small(seed),
            budget: 30_000,
            ..Self::study(seed)
        }
    }

    /// Tiny: unit-test scale; a full RQ runs in seconds.
    pub fn tiny(seed: u64) -> Self {
        StudyConfig {
            world: WorldConfig::tiny(seed),
            budget: 6_000,
            parallel: false,
            ..Self::study(seed)
        }
    }
}

/// Default worker count: physical parallelism capped at 8 (the grids are
/// memory-bandwidth-bound beyond that at study scale).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self::study(0xC0FFEE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_budget_with_world() {
        let t = StudyConfig::tiny(1);
        let s = StudyConfig::small(1);
        let f = StudyConfig::study(1);
        assert!(t.budget < s.budget && s.budget < f.budget);
        assert!(t.world.num_ases < f.world.num_ases);
    }

    #[test]
    fn effective_threads_resolution() {
        let mut c = StudyConfig::tiny(1);
        assert_eq!(c.effective_threads(), 1, "tiny is sequential by default");
        c.threads = Some(3);
        assert_eq!(c.effective_threads(), 3, "explicit threads override");
        c.threads = Some(0);
        assert_eq!(c.effective_threads(), 1, "zero clamps to one worker");
        let f = StudyConfig::study(1);
        assert_eq!(f.effective_threads(), default_threads());
    }

    #[test]
    fn budget_to_population_ratio_matches_paper_order() {
        // Paper: 50M budget vs ≈11M responsive ≈ 4.5×. Ours should be of
        // the same order (within a factor of ~4 either way).
        let f = StudyConfig::study(1);
        // study-scale world has ≈600K responsive (see netmodel tests)
        let ratio = f.budget as f64 / 600_000.0;
        assert!(ratio > 0.1 && ratio < 10.0, "ratio {ratio}");
    }
}
