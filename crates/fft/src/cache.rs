//! Process-wide cache of FFT kernel structures.
//!
//! A pruned [`FftPlan`] is a pure function of `(n, direction, n_in_valid,
//! n_out_keep)`, and a [`ButterflyTrace`] is a pure function of its plan
//! plus the engine layout that replays it (`active_pencils`, `bs_layout`,
//! the ping/pong staging bases and `reg_group_bits`). Neither depends on
//! buffers, kernel names or the backend, so every kernel of one structure
//! — across launches, kernel objects, sessions and backends — shares one
//! `Arc` of each instead of building and holding its own copy.
//!
//! A plan holds its pruned op lists (O(n log n) ops); a trace holds one
//! fixed-size record of counts per stage (O(log n)), never per-lane index
//! patterns, so plans make up nearly all of the cached bytes.
//!
//! Keys are full `Hash + Eq` structs, compared on every hit. The cache is
//! bounded by a constant budget of 256 MiB of plans and traces: an
//! insert that would exceed it empties the cache first (the wholesale
//! epoch reset of the analytical launch memo), so a shape-diverse process
//! stays bounded while a steady working set stays cached. Entries evicted
//! that way live on in the kernels that still hold them.

use crate::engine::{ButterflyTrace, FftBlockEngine};
use crate::plan::{FftDirection, FftPlan};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use tfno_gpu_sim::lock_unpoisoned;

/// Byte budget of the process-wide cache (plans plus traces).
pub(crate) const STRUCTURE_CACHE_BUDGET: usize = 256 << 20;

/// Everything [`FftPlan::new`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub n: usize,
    pub direction: FftDirection,
    pub n_in_valid: usize,
    pub n_out_keep: usize,
}

/// Everything [`FftBlockEngine::build_trace`] reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct TraceKey {
    plan: PlanKey,
    active_pencils: usize,
    bs_layout: usize,
    ping_base: usize,
    pong_base: usize,
    reg_group_bits: usize,
}

impl TraceKey {
    fn of(engine: &FftBlockEngine<'_>) -> Self {
        let p = engine.plan;
        TraceKey {
            plan: PlanKey {
                n: p.n,
                direction: p.direction,
                n_in_valid: p.n_in_valid,
                n_out_keep: p.n_out_keep,
            },
            active_pencils: engine.active_pencils,
            bs_layout: engine.bs_layout,
            ping_base: engine.ping_base,
            pong_base: engine.pong_base,
            reg_group_bits: engine.reg_group_bits,
        }
    }
}

/// Plans and traces under one byte budget.
pub(crate) struct StructureCache {
    plans: HashMap<PlanKey, Arc<FftPlan>>,
    traces: HashMap<TraceKey, Arc<ButterflyTrace>>,
    /// Bytes of the plans and traces currently cached.
    bytes: usize,
    budget: usize,
}

impl StructureCache {
    pub(crate) fn with_budget(budget: usize) -> Self {
        StructureCache {
            plans: HashMap::new(),
            traces: HashMap::new(),
            bytes: 0,
            budget,
        }
    }

    /// Make room for an entry of `bytes`, resetting the cache when it
    /// would overflow. An entry larger than the whole budget is not cached.
    fn admit(&mut self, bytes: usize) -> bool {
        if bytes > self.budget {
            return false;
        }
        if self.bytes + bytes > self.budget {
            self.plans.clear();
            self.traces.clear();
            self.bytes = 0;
        }
        self.bytes += bytes;
        true
    }

    pub(crate) fn plan(&mut self, key: PlanKey) -> Arc<FftPlan> {
        if let Some(plan) = self.plans.get(&key) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(FftPlan::new(
            key.n,
            key.direction,
            key.n_in_valid,
            key.n_out_keep,
        ));
        if self.admit(plan.bytes()) {
            self.plans.insert(key, Arc::clone(&plan));
        }
        plan
    }

    pub(crate) fn trace(&mut self, engine: &FftBlockEngine<'_>) -> Arc<ButterflyTrace> {
        let key = TraceKey::of(engine);
        if let Some(trace) = self.traces.get(&key) {
            return Arc::clone(trace);
        }
        let trace = Arc::new(engine.build_trace());
        if self.admit(trace.bytes()) {
            self.traces.insert(key, Arc::clone(&trace));
        }
        trace
    }
}

/// The process-wide instance. Builds run under its lock, so each
/// structure is built once however many threads ask for it at once.
fn shared() -> &'static Mutex<StructureCache> {
    static SHARED: OnceLock<Mutex<StructureCache>> = OnceLock::new();
    SHARED.get_or_init(|| Mutex::new(StructureCache::with_budget(STRUCTURE_CACHE_BUDGET)))
}

pub(crate) fn shared_plan(key: PlanKey) -> Arc<FftPlan> {
    lock_unpoisoned(shared()).plan(key)
}

pub(crate) fn shared_trace(engine: &FftBlockEngine<'_>) -> Arc<ButterflyTrace> {
    lock_unpoisoned(shared()).trace(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize, direction: FftDirection, n_in_valid: usize, n_out_keep: usize) -> PlanKey {
        PlanKey {
            n,
            direction,
            n_in_valid,
            n_out_keep,
        }
    }

    /// One engine layout: `(plan, active_pencils, bs_layout, ping_base,
    /// pong_base, reg_group_bits)`.
    type Layout = (PlanKey, usize, usize, usize, usize, usize);

    fn trace_of(cache: &mut StructureCache, l: Layout) -> Arc<ButterflyTrace> {
        let plan = cache.plan(l.0);
        let engine = FftBlockEngine {
            plan: &plan,
            active_pencils: l.1,
            bs_layout: l.2,
            ping_base: l.3,
            pong_base: l.4,
            reg_group_bits: l.5,
        };
        cache.trace(&engine)
    }

    #[test]
    fn equal_keys_share_one_plan_and_one_trace() {
        let mut cache = StructureCache::with_budget(STRUCTURE_CACHE_BUDGET);
        let k = key(64, FftDirection::Forward, 64, 16);
        assert!(Arc::ptr_eq(&cache.plan(k), &cache.plan(k)));
        let l = (k, 8, 8, 0, 512, 2);
        assert!(Arc::ptr_eq(
            &trace_of(&mut cache, l),
            &trace_of(&mut cache, l)
        ));
    }

    /// Engines that differ in exactly one key field must never share a
    /// trace: each field shapes the recorded counts or staging bases.
    #[test]
    fn engines_differing_in_one_field_get_distinct_traces() {
        let base_plan = key(64, FftDirection::Forward, 32, 16);
        let base: Layout = (base_plan, 8, 8, 0, 512, 2);
        let table: [(&str, Layout); 9] = [
            (
                "n",
                (key(128, FftDirection::Forward, 32, 16), 8, 8, 0, 512, 2),
            ),
            (
                "direction",
                (key(64, FftDirection::Inverse, 32, 16), 8, 8, 0, 512, 2),
            ),
            (
                "n_in_valid",
                (key(64, FftDirection::Forward, 64, 16), 8, 8, 0, 512, 2),
            ),
            (
                "n_out_keep",
                (key(64, FftDirection::Forward, 32, 32), 8, 8, 0, 512, 2),
            ),
            ("active_pencils", (base_plan, 3, 8, 0, 512, 2)),
            ("bs_layout", (base_plan, 8, 16, 0, 512, 2)),
            ("ping_base", (base_plan, 8, 8, 32, 512, 2)),
            ("pong_base", (base_plan, 8, 8, 0, 1024, 2)),
            ("reg_group_bits", (base_plan, 8, 8, 0, 512, 3)),
        ];
        let mut cache = StructureCache::with_budget(STRUCTURE_CACHE_BUDGET);
        let reference = trace_of(&mut cache, base);
        for (field, layout) in table {
            let other = trace_of(&mut cache, layout);
            assert!(
                !Arc::ptr_eq(&reference, &other),
                "{field} must be part of the key"
            );
            assert!(
                Arc::ptr_eq(&other, &trace_of(&mut cache, layout)),
                "{field}: the variant itself is cached"
            );
        }
        assert!(Arc::ptr_eq(&reference, &trace_of(&mut cache, base)));
    }

    /// More shapes than the budget holds: the cache resets instead of
    /// growing, and an entry larger than the budget is handed out uncached.
    #[test]
    fn cached_bytes_stay_within_the_budget() {
        let one = {
            let mut probe = StructureCache::with_budget(usize::MAX);
            let before = probe.bytes;
            trace_of(
                &mut probe,
                (key(64, FftDirection::Forward, 64, 64), 8, 8, 0, 512, 2),
            );
            probe.bytes - before
        };
        let budget = 3 * one;
        let mut cache = StructureCache::with_budget(budget);
        let mut built = 0;
        for keep in 1..=64 {
            trace_of(
                &mut cache,
                (key(64, FftDirection::Forward, 64, keep), 8, 8, 0, 512, 2),
            );
            built += 1;
            assert!(
                cache.bytes <= budget,
                "keep={keep}: {} > {budget}",
                cache.bytes
            );
        }
        assert!(
            cache.traces.len() < built,
            "the budget must have forced a reset"
        );

        // A 1024-point plan holds ten stages of up to 1024 ops: far more
        // than three 64-point shapes.
        let huge = cache.plan(key(1024, FftDirection::Forward, 1024, 1024));
        assert!(huge.bytes() > budget);
        assert!(cache.bytes <= budget);
        assert!(!cache.plans.values().any(|p| Arc::ptr_eq(p, &huge)));
    }

    /// A trace keeps a fixed record per stage, never per-lane patterns:
    /// each doubling of the length adds one stage and a constant number of
    /// bytes, and a 1024-point trace (10 stages of 8192 butterfly
    /// instances each) stays under 2 KiB.
    #[test]
    fn trace_bytes_grow_with_stages_not_lanes() {
        let mut cache = StructureCache::with_budget(STRUCTURE_CACHE_BUDGET);
        let mut bytes = |n: usize| {
            let k = key(n, FftDirection::Forward, n, n);
            trace_of(&mut cache, (k, 8, 8, 0, n * 8, 4)).bytes()
        };
        let (b256, b512, b1024) = (bytes(256), bytes(512), bytes(1024));
        assert_eq!(b1024 - b512, b512 - b256, "one stage, one fixed record");
        assert!(b1024 < 2048, "1024-point trace holds {b1024} B");
    }
}
