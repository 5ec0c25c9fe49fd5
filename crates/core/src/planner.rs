//! Memoized `TurboBest` planning.
//!
//! The paper's "TurboFNO" configuration is the best of variants A–D per
//! problem size, found by simulating all four analytically. Pre-PR, every
//! `TurboBest` dispatch redid that from scratch — an L-layer forward pass
//! paid L × 4 analytical pipeline simulations for plans that are a pure
//! function of `(device, problem shape, options)`.
//!
//! [`Planner`] memoizes the decision: the first plan of a shape evaluates
//! the four candidates (on parallel host threads when available) and every
//! later plan of the same key is a hash lookup — zero simulated launches.
//! Each [`Session`](crate::Session) owns a planner, so its models, benches
//! and serving loops share one warm cache whose stats are observable per
//! session. Cold, uncached best-of evaluation is exposed as
//! [`Planner::pick_best_shape`]. Capping uses generational eviction (never
//! a full wipe), and racing cold evaluations of one key are de-duplicated:
//! one planner evaluates, the rest wait.
//! Internal locks recover from poisoning ([`lock_unpoisoned`]), so a
//! caught panic — the documented aliasing/conflict panics unwind through
//! planner state — never wedges a shared planner for unrelated callers.

use crate::error::TfnoError;
use crate::pipeline::{unfit_reason, ExecCtx, LayerBufs, TurboOptions, Variant};
use crate::pool::BufferPool;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, Mutex, OnceLock};
use tfno_culib::SpectralShape;
use crate::backend::{
    configured_workers, lock_unpoisoned, wait_unpoisoned, DeviceConfig, ExecMode, SimBackend,
};

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

/// Two-generation plan cache: inserts and promotions land in `hot`; when
/// `hot` fills half the cap, it rotates into `cold` and the previous
/// `cold` generation is dropped. Capping therefore evicts only the least
/// recently confirmed half of the entries — a full-cache `clear()` would
/// force every live shape to re-evaluate at once (a re-evaluation storm).
#[derive(Default)]
struct PlanCache {
    hot: HashMap<u64, Variant>,
    cold: HashMap<u64, Variant>,
}

impl PlanCache {
    /// `hot`/`cold` are disjoint, so the live entry count is the sum.
    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }

    fn get(&mut self, key: u64, cap: usize) -> Option<Variant> {
        if let Some(v) = self.hot.get(&key) {
            return Some(*v);
        }
        let v = self.cold.remove(&key)?;
        self.put(key, v, cap);
        Some(v)
    }

    fn put(&mut self, key: u64, v: Variant, cap: usize) {
        if self.hot.len() >= (cap / 2).max(1) {
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, v);
    }
}

/// Removes the in-flight marker even if the evaluation panics, so waiting
/// planners are never stranded on a key that will not resolve.
struct PendingGuard<'a> {
    planner: &'a Planner,
    key: u64,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.planner.pending).remove(&self.key);
        self.planner.pending_cv.notify_all();
    }
}

/// Memoizing `TurboBest` planner.
pub struct Planner {
    cache: Mutex<PlanCache>,
    /// Keys currently being cold-evaluated (racing planners wait instead
    /// of duplicating the four-candidate simulation).
    pending: Mutex<HashSet<u64>>,
    pending_cv: Condvar,
    stats: Mutex<PlannerStats>,
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
            cache: Mutex::new(PlanCache::default()),
            pending: Mutex::new(HashSet::new()),
            pending_cv: Condvar::new(),
            stats: Mutex::new(PlannerStats::default()),
            cap: cap.max(2),
        }
    }

    /// The process-wide planner used by `Variant::TurboBest` dispatches.
    pub fn global() -> &'static Planner {
        static GLOBAL: OnceLock<Planner> = OnceLock::new();
        GLOBAL.get_or_init(Planner::new)
    }

    pub fn stats(&self) -> PlannerStats {
        *lock_unpoisoned(&self.stats)
    }

    /// Drop all cached plans (counters keep accumulating).
    pub fn clear(&self) {
        lock_unpoisoned(&self.cache).clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.cache).len()
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
    pub fn plan_shape(&self, cfg: &DeviceConfig, s: &SpectralShape, opts: &TurboOptions) -> Variant {
        self.try_plan_shape(cfg, s, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed twin of [`Planner::plan_shape`]: a shape none of the
    /// candidates can be built for on `cfg` (see [`TURBO_CANDIDATES`])
    /// returns [`TfnoError::Validation`] without evaluating or caching
    /// anything.
    pub fn try_plan_shape(
        &self,
        cfg: &DeviceConfig,
        s: &SpectralShape,
        opts: &TurboOptions,
    ) -> Result<Variant, TfnoError> {
        if let Some(reason) = unfit_reason(cfg, s, Variant::TurboBest, opts) {
            return Err(TfnoError::Validation(reason));
        }
        let mut h = key_base(cfg, opts);
        "shape".hash(&mut h);
        s.rank.hash(&mut h);
        s.batch.hash(&mut h);
        s.k_in.hash(&mut h);
        s.k_out.hash(&mut h);
        s.dims.hash(&mut h);
        s.modes.hash(&mut h);
        Ok(self.plan(h.finish(), || evaluate_shape(cfg, s, opts)))
    }

    /// Default plan-cache entry cap: keeps long-running shape-diverse
    /// processes bounded. Eviction is generational (see [`PlanCache`]), so
    /// hitting the cap drops at most the stale half of the entries.
    const CACHE_CAP: usize = 1 << 16;

    fn plan(&self, key: u64, evaluate: impl FnOnce() -> (Variant, u64)) -> Variant {
        loop {
            if let Some(v) = lock_unpoisoned(&self.cache).get(key, self.cap) {
                lock_unpoisoned(&self.stats).hits += 1;
                return v;
            }
            // Claim the key, or wait for whichever planner holds it: racing
            // cold evaluations of one key would double-count misses and
            // simulated launches (and waste the whole four-candidate sweep).
            let mut pending = lock_unpoisoned(&self.pending);
            if pending.insert(key) {
                break;
            }
            while pending.contains(&key) {
                pending = wait_unpoisoned(&self.pending_cv, pending);
            }
            // The winner has published its plan; re-read the cache.
        }
        let _guard = PendingGuard { planner: self, key };
        // The miss check and the pending claim are not atomic: the previous
        // holder may have published its plan between them. Re-check before
        // paying for an evaluation that already happened.
        if let Some(v) = lock_unpoisoned(&self.cache).get(key, self.cap) {
            lock_unpoisoned(&self.stats).hits += 1;
            return v;
        }
        // Evaluate outside every lock; only this planner evaluates `key`.
        let (best, launches) = evaluate();
        lock_unpoisoned(&self.cache).put(key, best, self.cap);
        let mut stats = lock_unpoisoned(&self.stats);
        stats.misses += 1;
        stats.simulated_launches += launches;
        best
    }

    /// Evaluate variants A–D analytically and return the fastest (the
    /// paper's "TurboFNO" best-of configuration). Always a cold, uncached
    /// evaluation; `Variant::TurboBest` dispatches use the memoized
    /// [`Planner::plan_shape`] instead.
    pub fn pick_best_shape(cfg: &DeviceConfig, s: &SpectralShape, opts: &TurboOptions) -> Variant {
        evaluate_shape(cfg, s, opts).0
    }
}

/// Hash the planner-relevant device and option state.
fn key_base(cfg: &DeviceConfig, opts: &TurboOptions) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    hash_device_config(cfg, &mut h);
    opts.forward_layout.hash(&mut h);
    opts.epilogue_swizzle.hash(&mut h);
    opts.fft_l1_hit.to_bits().hash(&mut h);
    h
}

/// Hash every analytically-relevant `DeviceConfig` field. Shared by the
/// planner's cache keys and the sequence-level launch memo in `session.rs`
/// (`Session::measure`), so both invalidate on exactly the same device
/// changes.
pub(crate) fn hash_device_config(cfg: &DeviceConfig, h: &mut DefaultHasher) {
    cfg.name.hash(h);
    cfg.num_sms.hash(h);
    cfg.max_threads_per_sm.hash(h);
    cfg.max_blocks_per_sm.hash(h);
    cfg.shared_mem_per_sm.hash(h);
    cfg.shared_mem_per_block_max.hash(h);
    cfg.regs_per_sm.hash(h);
    cfg.warp_size.hash(h);
    cfg.shared_banks.hash(h);
    cfg.bank_width_bytes.hash(h);
    cfg.clock_ghz.to_bits().hash(h);
    cfg.dram_bw_gbps.to_bits().hash(h);
    cfg.fp32_gflops.to_bits().hash(h);
    cfg.shared_bytes_per_clk_per_sm.to_bits().hash(h);
    cfg.kernel_launch_overhead_us.to_bits().hash(h);
    cfg.syncthreads_cycles.to_bits().hash(h);
    cfg.bw_sat_blocks.to_bits().hash(h);
    cfg.compute_sat_warps.to_bits().hash(h);
}

/// Cold evaluation: simulate the four candidates analytically on virtual
/// buffers (in parallel host threads when available) and return the
/// fastest plus the number of simulated launches. Ties break toward the
/// earlier candidate, matching the sequential pre-PR scan. The analytical
/// launch memo is disabled on the scratch devices so "cold" stays true —
/// every counted launch really simulates its representative blocks.
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
        let mut dev = SimBackend::new(cfg.clone());
        dev.analytical_memo = false;
        let mut pool = BufferPool::new();
        let x = dev.memory.alloc_virtual("x", s.input_len());
        let w = dev.memory.alloc_virtual("w", s.weight_len());
        let y = dev.memory.alloc_virtual("y", s.output_len());
        // Candidates are concrete, so the planner field is never consulted.
        let run = ExecCtx {
            dev: &mut dev,
            pool: &mut pool,
            planner: Planner::global(),
            // Cost probes re-run already-proven plans analytically; the
            // verifier would only re-prove the same fingerprints.
            verify: None,
        }
        .try_run_spectral(s, v, LayerBufs::shared(x, w, y), opts, ExecMode::Analytical)
        // Invariant, not a fault path: probes run analytically and fault
        // injection applies only to functional launches and real
        // allocations (the operands here are virtual).
        .expect("analytical planner probes are never faulted");
        (run.total_us(), run.kernel_count() as u64)
    }))
}

/// Run the per-candidate closure for all four variants across at most
/// `configured_workers()` host threads (the `TFNO_THREADS` knob governs
/// planner fan-out like every other host-parallel loop).
fn evaluate_candidates(
    eval: impl Fn(Variant) -> (f64, u64) + Sync,
) -> [(Variant, f64, u64); 4] {
    let mut out = [(Variant::FftOpt, f64::INFINITY, 0u64); 4];
    let workers = configured_workers().min(TURBO_CANDIDATES.len());
    if workers > 1 {
        let eval = &eval;
        std::thread::scope(|scope| {
            // Round-robin candidates over the worker threads; each worker
            // returns (candidate index, result) pairs.
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        TURBO_CANDIDATES
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(i, &v)| (i, v, eval(v)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, v, (t, launches)) in h.join().expect("planner evaluation panicked") {
                    out[i] = (v, t, launches);
                }
            }
        });
    } else {
        for (slot, &v) in out.iter_mut().zip(TURBO_CANDIDATES.iter()) {
            let (t, launches) = eval(v);
            *slot = (v, t, launches);
        }
    }
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
        let planner = Planner::new();

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
        let planner = Planner::new();
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

    #[test]
    fn planner_2d_matches_cold_pick() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let planner = Planner::new();
        let cold = Planner::pick_best_shape(&cfg, &p2(), &opts);
        assert_eq!(planner.plan_shape(&cfg, &p2(), &opts), cold);
        assert_eq!(planner.plan_shape(&cfg, &p2(), &opts), cold);
        assert_eq!(planner.stats().hits, 1);
    }

    /// Regression (re-evaluation storm): hitting the cache cap must not
    /// wipe every plan — recently planned shapes stay cached across an
    /// eviction, and only older generations fall out.
    #[test]
    fn cap_evicts_generationally_not_wholesale() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        // cap 4 -> hot generation holds 2 entries
        let planner = Planner::with_cache_cap(4);
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
        let planner = Planner::with_cache_cap(2);
        for i in 0..5 {
            let s = SpectralShape::d1(1 + i, 8, 8, 128).with_modes(&[32]);
            planner.plan_shape(&cfg, &s, &opts);
            assert!(planner.len() <= 2, "cap 2 exceeded: {}", planner.len());
        }
        assert_eq!(planner.stats().misses, 5);
    }

    /// Regression (racing cold evaluations): N threads planning the same
    /// key concurrently must produce exactly one miss and one evaluation's
    /// worth of simulated launches — not N.
    #[test]
    fn racing_planners_deduplicate_the_cold_evaluation() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();

        // One uncontended evaluation's launch count, for comparison.
        let reference = Planner::new();
        reference.plan_shape(&cfg, &p1(), &opts);
        let one_eval = reference.stats().simulated_launches;
        assert!(one_eval > 0);

        let planner = Planner::new();
        let threads = 4;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| planner.plan_shape(&cfg, &p1(), &opts)))
                .collect();
            let plans: Vec<Variant> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(plans.windows(2).all(|w| w[0] == w[1]));
        });
        let s = planner.stats();
        assert_eq!(s.misses, 1, "exactly one thread performs the cold evaluation");
        assert_eq!(s.hits, threads - 1, "the racers are served from the cache");
        assert_eq!(
            s.simulated_launches, one_eval,
            "simulated launches must not be double-counted by the race"
        );
    }

    /// Regression: a panicking cold evaluation (any documented kernel or
    /// aliasing panic can surface inside one) must neither strand waiters
    /// on the pending marker nor poison the planner's locks — a caught
    /// panic used to wedge the process-wide planner for every later test.
    #[test]
    fn caught_evaluation_panic_does_not_wedge_the_planner() {
        let planner = Planner::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            planner.plan(42, || panic!("evaluation blew up"))
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        // The pending marker is gone (no deadlock) and the same key plans
        // cleanly on retry.
        let v = planner.plan(42, || (Variant::FullyFused, 7));
        assert_eq!(v, Variant::FullyFused);
        let s = planner.stats();
        assert_eq!((s.misses, s.simulated_launches), (1, 7));
        assert_eq!(planner.len(), 1);
    }

    /// Regression companion: even a lock poisoned mid-critical-section
    /// (simulated by panicking while holding it) keeps serving.
    #[test]
    fn poisoned_planner_locks_recover() {
        let planner = Planner::new();
        planner.plan(7, || (Variant::FftOpt, 3));
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = planner.stats.lock().unwrap();
                let _cache = planner.cache.lock().unwrap();
                panic!("poison the planner locks");
            })
            .join()
        });
        assert_eq!(planner.stats().misses, 1, "stats lock must recover");
        assert_eq!(planner.plan(7, || unreachable!()), Variant::FftOpt);
        assert_eq!(planner.stats().hits, 1, "cache lock must recover");
    }

    #[test]
    fn global_planner_is_shared_and_clearable() {
        let cfg = DeviceConfig::a100();
        let opts = TurboOptions::default();
        let v = Planner::global().plan_shape(&cfg, &p1(), &opts);
        assert_eq!(Planner::global().plan_shape(&cfg, &p1(), &opts), v);
        Planner::global().clear();
    }
}
