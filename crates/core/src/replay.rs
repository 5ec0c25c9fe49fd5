//! Whole-forward launch replay.
//!
//! A warm serving loop repeats the same forward over and over: same layer
//! shape, same variant, same weight-stacking layout, same operand buffers.
//! The cold path re-resolves the plan, re-leases scratch, re-builds every
//! kernel object and re-validates its launch parameters each time — all of
//! which is pure overhead once the first execution has proven the sequence.
//!
//! This module memoizes that launch sequence the way a CUDA graph does: the
//! first execution of a `(call shape, variant, stack layout, operand
//! buffers)` tuple records every kernel object it launches onto a
//! `ReplayTape`; on success the tape is frozen into a `ReplayArtifact`
//! together with the scratch leases it used (retained from the pool so no
//! other caller can reuse them) and the generation stamps of everything the
//! sequence depends on. A warm call replays the artifact: one pass over the
//! stored kernels, re-launched in order against the same buffers — no
//! planning, no pool traffic, no kernel assembly, and every per-kernel trace
//! cache (FFT butterfly traces, CGEMM main-loop traces, segmented-copy
//! address templates) already hot because the kernel *objects* are retained.
//! Each step is a plain launch of its retained kernel, so it reports the
//! same [`LaunchRecord`] the cold run did.
//!
//! Replay is bitwise-identical to the un-replayed path by construction: the
//! same kernel objects run against the same buffers in the same order, and
//! scratch contents never leak between runs because every pipeline stage
//! fully overwrites the scratch it reads (the pool's documented contract).
//!
//! ## Invalidation
//!
//! An artifact must never be served stale. Three generation stamps guard it:
//!
//! * [`Planner::generation`](crate::Planner::generation) — bumped by
//!   `Planner::clear`, so a replanned `TurboBest` resolution re-records;
//! * [`BufferPool::generation`](crate::BufferPool::generation) — process-
//!   unique per pool instance, so an artifact can never be replayed against
//!   a pool that does not own its retained scratch;
//! * [`Backend::worker_key`](crate::backend::Backend::worker_key) —
//!   hashes the executor configuration (worker override, configured worker
//!   count, parallel flag), so changing the worker setup re-records instead
//!   of replaying under a stale configuration.
//!
//! Shape, variant, options, exec mode, operand buffers and the full request
//! list of a serving queue are part of the *key*, so mutating any of them is
//! a miss (a fresh recording), not a stale hit. A stale artifact is evicted
//! on sight and its retained scratch returned to the pool.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use tfno_culib::PipelineRun;
use crate::backend::{lock_unpoisoned, BufferId, ExecMode, Kernel, LaunchError, LaunchRecord};

use crate::error::TfnoError;
use crate::pipeline::ExecCtx;

/// Artifacts kept per session before the oldest recording is evicted (and
/// its retained scratch released back to the pool).
pub(crate) const REPLAY_CAP: usize = 32;

/// One recorded launch: the kernel object itself and its exec mode.
///
/// Retaining the object (not a description of it) is the point: its
/// internal trace caches stay warm across replays.
pub(crate) struct ReplayStep {
    pub kernel: Arc<dyn Kernel + Send + Sync>,
    pub mode: ExecMode,
}

/// A recording in progress, carried by [`ExecCtx`] while the first
/// execution of a sequence runs.
#[derive(Default)]
pub(crate) struct ReplayTape {
    /// Kernel launches in issue order.
    pub steps: Vec<ReplayStep>,
    /// Output plan: `(out_idx, end)` pairs in emission order — the steps
    /// since the previous boundary belong to `out[out_idx]`. Serving
    /// queues emit groups out of request order, so the mapping must be
    /// recorded, not inferred.
    pub plan: Vec<(usize, usize)>,
    /// Scratch leases whose release was deferred to the end of the
    /// recording; on success they are retained inside the artifact.
    pub scratch: Vec<BufferId>,
    /// Cleared when the sequence takes a path that cannot be replayed
    /// (the opaque multi-kernel `Pytorch` baseline).
    pub recordable: bool,
    /// Set when a recorded launch faulted. A tape that saw a fault is never
    /// frozen — even if a caller were to swallow the error — so the cache
    /// can only serve sequences that completed cleanly end to end.
    pub faulted: bool,
    /// Generation of the pool the recording leased its scratch from; the
    /// freeze-time verifier check (`verify::check_tape`) proves the tape
    /// is frozen against the same pool.
    pub pool_gen: u64,
}

impl ReplayTape {
    fn new(pool_gen: u64) -> Self {
        ReplayTape {
            recordable: true,
            pool_gen,
            ..ReplayTape::default()
        }
    }
}

/// A frozen, replayable whole-forward launch sequence.
pub(crate) struct ReplayArtifact {
    steps: Vec<ReplayStep>,
    plan: Vec<(usize, usize)>,
    /// Scratch buffers held out of the pool for the artifact's lifetime.
    retained: Vec<BufferId>,
    planner_gen: u64,
    pool_gen: u64,
    worker_key: u64,
}

/// Observability counters for the warm path (see
/// [`Session::replay_stats`](crate::Session::replay_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Warm calls served by replaying a recorded artifact.
    pub hits: u64,
    /// Calls that recorded a fresh artifact (or ran unrecorded).
    pub misses: u64,
    /// Artifacts discarded because a generation stamp went stale
    /// (planner cleared, pool swapped, worker configuration changed).
    pub invalidations: u64,
    /// Replays that hit a device fault mid-sequence: the artifact was
    /// evicted and the call fell back to the functional (recording) path.
    pub faulted: u64,
    /// Artifacts currently cached.
    pub entries: u64,
}

/// Per-session artifact cache, shared between the synchronous surface and
/// the dispatch thread behind an `Arc<Mutex<..>>`.
pub(crate) struct ReplayCache {
    entries: HashMap<u64, Arc<ReplayArtifact>>,
    /// Insertion order, for FIFO eviction at [`REPLAY_CAP`].
    order: VecDeque<u64>,
    stats: ReplayStats,
}

impl ReplayCache {
    pub fn new() -> Self {
        ReplayCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            stats: ReplayStats::default(),
        }
    }

    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            entries: self.entries.len() as u64,
            ..self.stats
        }
    }
}

enum Lookup {
    Hit(Arc<ReplayArtifact>),
    Stale(Arc<ReplayArtifact>),
    Miss,
}

/// Run `work` through the replay cache: serve a warm hit by replaying the
/// recorded sequence, otherwise execute `work` while recording it.
///
/// `n_out` is the number of `PipelineRun`s the call produces (1 for a
/// single-layer run, `reqs.len()` for a serving queue); `enable` gates the
/// whole mechanism (analytical sequences are memoized elsewhere — see
/// `Session::measure` — and virtual/mixed queues run unrecorded).
///
/// Fault handling: a replay that faults mid-sequence evicts its artifact
/// (restoring the retained scratch to the pool), counts a `faulted` stat,
/// and falls back to executing `work` on the functional path — the caller
/// never sees a replay-layer failure it could not have seen cold. A
/// recording whose work faults (or whose tape saw a fault) is abandoned,
/// never frozen.
pub(crate) fn try_execute(
    ctx: &mut ExecCtx<'_>,
    cache: &Mutex<ReplayCache>,
    key: u64,
    n_out: usize,
    enable: bool,
    work: impl FnOnce(&mut ExecCtx<'_>) -> Result<Vec<PipelineRun>, TfnoError>,
) -> Result<Vec<PipelineRun>, TfnoError> {
    if !enable {
        return work(ctx);
    }
    let looked_up = {
        let mut c = lock_unpoisoned(cache);
        let fresh = c.entries.get(&key).map(|a| {
            a.planner_gen == ctx.planner.generation()
                && a.pool_gen == ctx.pool.generation()
                && a.worker_key == ctx.dev.worker_key()
        });
        match fresh {
            Some(true) => {
                c.stats.hits += 1;
                Lookup::Hit(Arc::clone(&c.entries[&key]))
            }
            Some(false) => {
                c.stats.invalidations += 1;
                c.stats.misses += 1;
                let a = c.entries.remove(&key).expect("entry present");
                c.order.retain(|k| *k != key);
                Lookup::Stale(a)
            }
            None => {
                c.stats.misses += 1;
                Lookup::Miss
            }
        }
    };
    match looked_up {
        Lookup::Hit(a) => match try_replay(ctx, &a, n_out) {
            Ok(out) => Ok(out),
            Err(_fault) => {
                // The artifact replayed into a fault. Completed steps only
                // wrote scratch/output buffers the functional path fully
                // overwrites, so evict the artifact and re-record from the
                // still-unconsumed work closure.
                {
                    let mut c = lock_unpoisoned(cache);
                    c.stats.faulted += 1;
                    c.entries.remove(&key);
                    c.order.retain(|k| *k != key);
                }
                for &id in &a.retained {
                    ctx.pool.restore(ctx.dev, id);
                }
                record(ctx, cache, key, work)
            }
        },
        Lookup::Stale(a) => {
            for &id in &a.retained {
                ctx.pool.restore(ctx.dev, id);
            }
            record(ctx, cache, key, work)
        }
        Lookup::Miss => record(ctx, cache, key, work),
    }
}

/// Warm path: re-launch the stored kernel objects in order and split the
/// records back into per-request runs per the recorded plan. A faulted
/// step aborts the pass (the failed launch wrote nothing).
fn try_replay(
    ctx: &mut ExecCtx<'_>,
    artifact: &ReplayArtifact,
    n_out: usize,
) -> Result<Vec<PipelineRun>, LaunchError> {
    let mut records: Vec<LaunchRecord> = Vec::with_capacity(artifact.steps.len());
    for s in &artifact.steps {
        records.push(ctx.dev.try_launch(&*s.kernel, s.mode)?);
    }
    let mut out: Vec<PipelineRun> = (0..n_out).map(|_| PipelineRun::default()).collect();
    let mut start = 0;
    for &(idx, end) in &artifact.plan {
        out[idx].launches.extend_from_slice(&records[start..end]);
        start = end;
    }
    Ok(out)
}

/// Cold path: execute `work` with a fresh tape on the context; freeze the
/// tape into an artifact if every launch proved recordable and none
/// faulted.
fn record(
    ctx: &mut ExecCtx<'_>,
    cache: &Mutex<ReplayCache>,
    key: u64,
    work: impl FnOnce(&mut ExecCtx<'_>) -> Result<Vec<PipelineRun>, TfnoError>,
) -> Result<Vec<PipelineRun>, TfnoError> {
    ctx.tape = Some(ReplayTape::new(ctx.pool.generation()));
    let out = work(ctx);
    let tape = ctx.tape.take().expect("recording tape still installed");
    if out.is_err() || tape.faulted || !tape.recordable || tape.steps.is_empty() {
        // Unreplayable (or faulted) sequence: undo the deferred scratch
        // releases and leave the cache untouched (the call still counted
        // as a miss).
        for id in tape.scratch {
            ctx.pool.release(ctx.dev, id);
        }
        return out;
    }
    // Freeze-time verification: the tape must reference only scratch that
    // is still alive and leased from the generation it recorded against —
    // a stale or recycled reference would replay against someone else's
    // buffer. Rejection abandons the recording (the outputs it produced
    // are discarded with it: a tape the verifier cannot prove is a bug,
    // not a servable result).
    if crate::verify::verifier_enabled() {
        let steps = tape
            .steps
            .iter()
            .map(|s| (s.kernel.name(), s.kernel.access()));
        if let Err(hazard) = crate::verify::check_tape(ctx.pool, tape.pool_gen, &tape.scratch, steps)
        {
            for id in tape.scratch {
                ctx.pool.release(ctx.dev, id);
            }
            return Err(hazard.into());
        }
    }
    for &id in &tape.scratch {
        ctx.pool.retain(id);
    }
    let artifact = Arc::new(ReplayArtifact {
        steps: tape.steps,
        plan: tape.plan,
        retained: tape.scratch,
        planner_gen: ctx.planner.generation(),
        pool_gen: ctx.pool.generation(),
        worker_key: ctx.dev.worker_key(),
    });
    let mut c = lock_unpoisoned(cache);
    while c.order.len() >= REPLAY_CAP {
        let evicted = c.order.pop_front().expect("order non-empty");
        if let Some(old) = c.entries.remove(&evicted) {
            for &id in &old.retained {
                ctx.pool.restore(ctx.dev, id);
            }
        }
    }
    if let Some(old) = c.entries.insert(key, artifact) {
        // A same-key artifact can sneak back in if the key was recorded
        // twice before the first insert (not reachable today — jobs are
        // serialized per session — but never leak the retained leases).
        for &id in &old.retained {
            ctx.pool.restore(ctx.dev, id);
        }
    } else {
        c.order.push_back(key);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirror of the gpu-sim memo wedge-regression tests: a thread that
    /// panics while holding the replay-cache lock poisons the mutex, and
    /// every later session call would wedge if the cache used plain
    /// `lock().unwrap()` instead of `lock_unpoisoned`.
    #[test]
    fn caught_panic_while_holding_the_cache_lock_does_not_wedge_the_cache() {
        let cache = Arc::new(Mutex::new(ReplayCache::new()));
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.lock().unwrap();
            panic!("poison the replay cache lock");
        })
        .join();
        assert!(cache.is_poisoned(), "the panic must have poisoned the lock");
        // The cache stays fully usable through the poison-stripping lock.
        let mut c = lock_unpoisoned(&cache);
        c.stats.misses += 1;
        c.order.push_back(7);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().entries, 0);
    }
}
