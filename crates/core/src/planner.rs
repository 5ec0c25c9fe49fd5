//! Memoized `TurboBest` planning.
//!
//! The paper's "TurboFNO" configuration is the best of variants A–D per
//! problem size, found by simulating all four analytically. Pre-PR, every
//! `TurboBest` dispatch redid that from scratch — an L-layer forward pass
//! paid L × 4 analytical pipeline simulations for plans that are a pure
//! function of `(device, problem shape, options)`.
//!
//! [`Planner`] memoizes the decision: the first plan of a key evaluates
//! the four candidates (on parallel host threads when available), each a
//! [`Session::measure`] on a scratch session, and every later plan of the
//! same key is a cache hit — zero simulated launches.
//! The key is the full `(DeviceConfig, SpectralShape, TurboOptions)`
//! triple, compared field by field on every hit, so two devices or option
//! sets never share an entry. Each [`Session`] owns one
//! planner and calls it through `&mut self`, so its models, benches and
//! serving loops share one warm cache with no lock, and its stats are
//! observable per session. Cold, uncached best-of evaluation is exposed as
//! [`Planner::pick_best_shape`]. Capping uses generational eviction (never
//! a full wipe).

use crate::error::TfnoError;
use crate::pipeline::{unfit_reason, TurboOptions, Variant};
use crate::session::{LayerSpec, Session};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tfno_culib::SpectralShape;
use crate::backend::{configured_workers, for_each_mut, DeviceConfig, GpuDevice};

/// The candidates `TurboBest` chooses among (paper Table 2, A–D).
pub const TURBO_CANDIDATES: [Variant; 4] = [
    Variant::FftOpt,
    Variant::FusedFftGemm,
    Variant::FusedGemmIfft,
    Variant::FullyFused,
];

/// Cache/evaluation counters of one [`Planner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans that required a cold evaluation.
    pub misses: u64,
    /// Kernel launches simulated by cold evaluations (a cache hit adds 0).
    pub simulated_launches: u64,
}

/// The full key of one plan. Only the shape is hashed (the device config
/// and options hold floats); equality compares every field of all three,
/// so a hit is always confirmed on the whole key.
#[derive(PartialEq)]
struct PlanKey {
    cfg: DeviceConfig,
    shape: SpectralShape,
    opts: TurboOptions,
}

// Floats compare by value: a key holding a NaN equals no key, itself
// included, so it misses and re-plans on every call (the cap still bounds
// the cache). Every other key is reflexive.
impl Eq for PlanKey {}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.shape.hash(h);
    }
}

/// Memoizing `TurboBest` planner, owned by one [`Session`].
///
/// The plan cache has two generations: inserts and promotions land in
/// `hot`; when `hot` fills half the cap, it rotates into `cold` and the
/// previous `cold` generation is dropped. Capping therefore evicts only
/// the least recently confirmed half of the entries — a full-cache
/// `clear()` would force every live shape to re-evaluate at once (a
/// re-evaluation storm).
pub struct Planner {
    hot: HashMap<PlanKey, Variant>,
    cold: HashMap<PlanKey, Variant>,
    stats: PlannerStats,
    cap: usize,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    pub fn new() -> Self {
        Planner::with_cache_cap(Self::CACHE_CAP)
    }

    /// A planner with a custom plan-cache entry cap (tests exercise the
    /// eviction policy with small caps; serving code uses [`Planner::new`]).
    pub fn with_cache_cap(cap: usize) -> Self {
        Planner {
            hot: HashMap::new(),
            cold: HashMap::new(),
            stats: PlannerStats::default(),
            cap: cap.max(2),
        }
    }

    pub fn stats(&self) -> PlannerStats {
        self.stats
    }

    /// Drop all cached plans (counters keep accumulating).
    pub fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }

    /// Number of cached plans (the generations are disjoint).
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plan a spectral layer of any rank: cached variant, or a cold
    /// four-way evaluation.
    ///
    /// # Panics
    /// With the [`TfnoError::Validation`] text when no candidate fits the
    /// device — use [`Planner::try_plan_shape`] for the typed twin.
    pub fn plan_shape(&mut self, cfg: &DeviceConfig, s: &SpectralShape, opts: &TurboOptions) -> Variant {
        self.try_plan_shape(cfg, s, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Planner::plan_shape`]: a shape none of the
    /// candidates can be built for on `cfg` (see [`TURBO_CANDIDATES`])
    /// returns [`TfnoError::Validation`] without evaluating or caching
    /// anything.
    pub fn try_plan_shape(
        &mut self,
        cfg: &DeviceConfig,
        s: &SpectralShape,
        opts: &TurboOptions,
    ) -> Result<Variant, TfnoError> {
        if let Some(reason) = unfit_reason(cfg, s, Variant::TurboBest, opts) {
            return Err(TfnoError::Validation(reason));
        }
        let key = PlanKey {
            cfg: cfg.clone(),
            shape: *s,
            opts: *opts,
        };
        if let Some(v) = self.cached(&key) {
            self.stats.hits += 1;
            return Ok(v);
        }
        let (best, launches) = evaluate_shape(cfg, s, opts);
        self.insert(key, best);
        self.stats.misses += 1;
        self.stats.simulated_launches += launches;
        Ok(best)
    }

    /// A cached plan; a `cold` hit is promoted back into `hot`.
    fn cached(&mut self, key: &PlanKey) -> Option<Variant> {
        if let Some(v) = self.hot.get(key) {
            return Some(*v);
        }
        let (key, v) = self.cold.remove_entry(key)?;
        self.insert(key, v);
        Some(v)
    }

    fn insert(&mut self, key: PlanKey, v: Variant) {
        if self.hot.len() >= (self.cap / 2).max(1) {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, v);
    }

    /// Default plan-cache entry cap: keeps long-running shape-diverse
    /// processes bounded. Eviction is generational (see [`Planner`]), so
    /// hitting the cap drops at most the stale half of the entries.
    const CACHE_CAP: usize = 1 << 16;

    /// Evaluate variants A–D analytically and return the fastest (the
    /// paper's "TurboFNO" best-of configuration). Always a cold, uncached
    /// evaluation; `Variant::TurboBest` dispatches use the memoized
    /// [`Planner::plan_shape`] instead.
    ///
    /// # Panics
    /// With the [`TfnoError::Validation`] text when no candidate fits the
    /// device, exactly as [`Planner::plan_shape`] does.
    pub fn pick_best_shape(cfg: &DeviceConfig, s: &SpectralShape, opts: &TurboOptions) -> Variant {
        if let Some(reason) = unfit_reason(cfg, s, Variant::TurboBest, opts) {
            panic!("{}", TfnoError::Validation(reason));
        }
        evaluate_shape(cfg, s, opts).0
    }
}

/// Cold evaluation: measure the four candidates with [`Session::measure`]
/// (in parallel on the worker pool when available) and return the fastest
/// plus the number of simulated launches. Ties break toward the earlier
/// candidate, as a sequential scan would. Each candidate runs on
/// its own scratch session, whose device keeps the analytical launch memo
/// off so "cold" stays true — every counted launch really simulates its
/// representative blocks — and whose launches go through the same
/// request path, plan check and lease reconciliation as every other call.
/// Candidates the shape cannot be built for on `cfg` ([`unfit_reason`]:
/// unaligned fused modes, or a block over the device's shared memory) are
/// not simulated and never win.
pub(crate) fn evaluate_shape(
    cfg: &DeviceConfig,
    s: &SpectralShape,
    opts: &TurboOptions,
) -> (Variant, u64) {
    select(evaluate_candidates(|v| {
        if unfit_reason(cfg, s, v, opts).is_some() {
            return (f64::INFINITY, 0);
        }
        let mut dev = GpuDevice::new(cfg.clone());
        dev.analytical_memo = false;
        let run = Session::new(dev).measure(&LayerSpec::from_shape(*s).variant(v).options(*opts));
        (run.total_us(), run.kernel_count() as u64)
    }))
}

/// Run the per-candidate closure for all four variants across at most
/// `configured_workers()` shares of the worker pool (the `TFNO_THREADS`
/// knob governs planner fan-out like every other host-parallel loop).
fn evaluate_candidates(
    eval: impl Fn(Variant) -> (f64, u64) + Sync,
) -> [(Variant, f64, u64); 4] {
    let mut out = TURBO_CANDIDATES.map(|v| (v, f64::INFINITY, 0u64));
    let workers = configured_workers().min(TURBO_CANDIDATES.len());
    for_each_mut(&mut out, workers, |(v, t, launches)| (*t, *launches) = eval(*v));
    out
}

fn select(results: [(Variant, f64, u64); 4]) -> (Variant, u64) {
    let mut best = (f64::INFINITY, Variant::FftOpt);
    let mut launches = 0;
    for (v, t, l) in results {
        launches += l;
        if t < best.0 {
            best = (t, v);
        }
    }
    (best.1, launches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1D shape of `batch` with 16 channels, n = 128 and 32 modes.
    fn s1(batch: usize) -> SpectralShape {
        SpectralShape::d1(batch, 16, 16, 128).with_modes(&[32])
    }

    fn p1() -> SpectralShape {
        s1(2)
    }

    fn p2() -> SpectralShape {
        SpectralShape::d2(1, 8, 8, 32, 64).with_modes(&[8, 32])
    }

    #[test]
    fn cache_hit_matches_cold_pick_and_simulates_nothing() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let mut planner = Planner::new();

        let cold = Planner::pick_best_shape(&cfg, &p1(), &opts);
        let first = planner.plan_shape(&cfg, &p1(), &opts);
        assert_eq!(first, cold, "planner must agree with the uncached scan");
        let after_first = planner.stats();
        assert_eq!(after_first.misses, 1);
        assert!(after_first.simulated_launches > 0);

        let second = planner.plan_shape(&cfg, &p1(), &opts);
        assert_eq!(second, first);
        let after_second = planner.stats();
        assert_eq!(after_second.hits, 1);
        assert_eq!(
            after_second.simulated_launches, after_first.simulated_launches,
            "a cache hit must perform zero simulated launches"
        );
    }

    #[test]
    fn cache_distinguishes_shapes_options_and_dim() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let mut planner = Planner::new();
        planner.plan_shape(&cfg, &p1(), &opts);
        planner.plan_shape(&cfg, &s1(4), &opts);
        planner.plan_shape(&cfg, &p2(), &opts);
        let degraded = TurboOptions {
            epilogue_swizzle: false,
            ..TurboOptions::default()
        };
        planner.plan_shape(&cfg, &p1(), &degraded);
        assert_eq!(planner.len(), 4);
        assert_eq!(planner.stats().hits, 0);
    }

    /// Keys are compared in full: two device configs that differ in one
    /// field plan as two entries, and an equal config hits its own.
    #[test]
    fn device_configs_differing_in_one_field_plan_separately() {
        let opts = TurboOptions::default();
        let a100 = DeviceConfig::a100();
        let slow = DeviceConfig {
            dram_bw_gbps: a100.dram_bw_gbps / 2.0,
            ..a100.clone()
        };
        let mut planner = Planner::new();
        planner.plan_shape(&a100, &p1(), &opts);
        planner.plan_shape(&slow, &p1(), &opts);
        assert_eq!(planner.len(), 2, "one entry per config");
        assert_eq!(planner.stats().misses, 2);

        planner.plan_shape(&DeviceConfig::a100(), &p1(), &opts);
        planner.plan_shape(&slow, &p1(), &opts);
        let s = planner.stats();
        assert_eq!((s.hits, s.misses), (2, 2), "an equal config hits");
        assert_eq!(planner.len(), 2);
    }

    #[test]
    fn planner_2d_matches_cold_pick() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let mut planner = Planner::new();
        let cold = Planner::pick_best_shape(&cfg, &p2(), &opts);
        assert_eq!(planner.plan_shape(&cfg, &p2(), &opts), cold);
        assert_eq!(planner.plan_shape(&cfg, &p2(), &opts), cold);
        assert_eq!(planner.stats().hits, 1);
    }

    /// Regression: the cold scan answered `FftOpt` for a shape no
    /// candidate fits (every modeled time infinite), so a caller that
    /// launched the answer hit the device's shared-memory assert. It now
    /// fails with `plan_shape`'s `Validation` text.
    #[test]
    #[should_panic(expected = "no Turbo variant fits")]
    fn cold_pick_rejects_a_shape_no_candidate_fits() {
        let s = SpectralShape::d1(1, 16, 16, 2048);
        Planner::pick_best_shape(&DeviceConfig::a100(), &s, &TurboOptions::default());
    }

    /// Regression (re-evaluation storm): hitting the cache cap must not
    /// wipe every plan — recently planned shapes stay cached across an
    /// eviction, and only older generations fall out.
    #[test]
    fn cap_evicts_generationally_not_wholesale() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        // cap 4 -> hot generation holds 2 entries
        let mut planner = Planner::with_cache_cap(4);
        let shapes: Vec<SpectralShape> = (0..3)
            .map(|i| SpectralShape::d1(1 + i, 8, 8, 128).with_modes(&[32]))
            .collect();
        for p in &shapes {
            planner.plan_shape(&cfg, p, &opts);
        }
        assert_eq!(planner.stats().misses, 3);
        assert!(planner.len() <= 4, "cache stays within its cap");
        // The third insert rotated {shape0, shape1} into the cold
        // generation; all three must still be hits, not re-evaluations.
        for p in &shapes {
            planner.plan_shape(&cfg, p, &opts);
        }
        let s = planner.stats();
        assert_eq!(
            s.misses, 3,
            "re-planning recently cached shapes after an eviction must not re-evaluate"
        );
        assert_eq!(s.hits, 3);
    }

    /// With a tiny cap, old generations do eventually fall out — the cache
    /// is bounded, and an evicted shape costs exactly one re-evaluation.
    #[test]
    fn cache_stays_bounded_under_shape_churn() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let mut planner = Planner::with_cache_cap(2);
        for i in 0..5 {
            let s = SpectralShape::d1(1 + i, 8, 8, 128).with_modes(&[32]);
            planner.plan_shape(&cfg, &s, &opts);
            assert!(planner.len() <= 2, "cap 2 exceeded: {}", planner.len());
        }
        assert_eq!(planner.stats().misses, 5);
    }
}
