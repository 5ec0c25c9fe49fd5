//! The one place the benchmark reads session counters.
//!
//! The session spreads its counters over several `*_stats` accessors;
//! [`read`] folds them into one snapshot, so a change to how a session
//! reports its state changes only this function.

use turbofno::{Backend, Session};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub replay_hits: u64,
    pub replay_misses: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub planner_hits: u64,
    pub planner_misses: u64,
    pub dispatch_jobs: u64,
    /// High-water mark, not a running count: a difference keeps the later
    /// value.
    pub max_in_flight: u64,
    pub retries: u64,
}

/// Snapshot every counter the benchmark reports. Synchronizes the
/// session first, so no submitted work is in flight while it reads.
pub fn read<B: Backend>(sess: &mut Session<B>) -> Counters {
    sess.synchronize();
    let replay = sess.replay_stats();
    let pool = sess.pool_stats();
    let planner = sess.planner_stats();
    let dispatch = sess.dispatch_stats();
    let recovery = sess.recovery_stats();
    Counters {
        replay_hits: replay.hits,
        replay_misses: replay.misses,
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        planner_hits: planner.hits,
        planner_misses: planner.misses,
        dispatch_jobs: dispatch.jobs_dispatched,
        max_in_flight: dispatch.max_in_flight,
        retries: recovery.transient_retries,
    }
}

impl Counters {
    /// Counts accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            replay_hits: self.replay_hits - earlier.replay_hits,
            replay_misses: self.replay_misses - earlier.replay_misses,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            planner_hits: self.planner_hits - earlier.planner_hits,
            planner_misses: self.planner_misses - earlier.planner_misses,
            dispatch_jobs: self.dispatch_jobs - earlier.dispatch_jobs,
            max_in_flight: self.max_in_flight,
            retries: self.retries - earlier.retries,
        }
    }

    /// Element-wise sum of two intervals' counts.
    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            replay_hits: self.replay_hits + o.replay_hits,
            replay_misses: self.replay_misses + o.replay_misses,
            pool_hits: self.pool_hits + o.pool_hits,
            pool_misses: self.pool_misses + o.pool_misses,
            planner_hits: self.planner_hits + o.planner_hits,
            planner_misses: self.planner_misses + o.planner_misses,
            dispatch_jobs: self.dispatch_jobs + o.dispatch_jobs,
            max_in_flight: self.max_in_flight.max(o.max_in_flight),
            retries: self.retries + o.retries,
        }
    }
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}
