//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] installed on a [`GpuDevice`](crate::GpuDevice) (via
//! [`with_faults`](crate::GpuDevice::with_faults) /
//! [`set_fault_plan`](crate::GpuDevice::set_fault_plan)) injects failures
//! into the *functional* launch and allocation paths:
//!
//! * **transient launch failures** — the launch fails before any block
//!   executes; no journals exist, no history is recorded, and retrying the
//!   identical launch is bitwise-safe;
//! * **worker panics** — a block worker dies mid-launch; the whole launch
//!   is discarded (every journal dropped), which is observationally the
//!   same clean failure as a transient fault but is counted separately;
//! * **stalls** — the launch succeeds but blocks the calling thread for
//!   [`FaultPlan::stall_us`] first;
//! * **allocation (OOM) failures** — a device allocation fails with
//!   [`LaunchError::Oom`].
//!
//! Every decision is a pure function of `(seed, event index, fault kind)`
//! — a [splitmix64](https://prng.di.unimi.it/splitmix64.c) hash mapped to
//! the unit interval — so a schedule replays identically across runs,
//! worker counts, and executors. Faults can also be pinned to *precise*
//! launch/allocation indices with [`FaultPlan::at_launch`] /
//! [`FaultPlan::at_alloc`]. Analytical launches model host-side cost math,
//! not device work, and are never faulted; the same goes for virtual
//! (analytics-only) allocations, which go through
//! [`GlobalMemory::alloc_virtual`](crate::memory::GlobalMemory) directly.
//!
//! With no plan installed the hook is a single `Option` check per launch
//! and per allocation — the `fault-overhead` bench scenario pins this at
//! under 1%.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch fails at issue, before any block runs.
    TransientLaunch,
    /// A block worker dies mid-launch; the launch is discarded whole.
    WorkerPanic,
    /// The launch succeeds after blocking the caller for
    /// [`FaultPlan::stall_us`] microseconds.
    Stall,
    /// A device allocation fails (only meaningful for
    /// [`FaultPlan::at_alloc`] / [`FaultPlan::oom`]).
    Alloc,
}

/// Typed failure of a device operation — the non-unwinding error surface
/// of [`GpuDevice::try_launch`](crate::GpuDevice::try_launch) and
/// [`try_alloc`](crate::GpuDevice::try_alloc).
///
/// Every variant is *clean*: the failed operation applied no writes,
/// recorded no history, and leaked no memory, so retrying it is always
/// sound (the simulator is deterministic, so a retried success is
/// bitwise-equal to an unfaulted run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// Transient launch failure injected at issue.
    Transient { kernel: String, launch_index: u64 },
    /// A worker thread died mid-launch; all journals were discarded.
    WorkerPanic { kernel: String, launch_index: u64 },
    /// Simulated device out-of-memory on an allocation.
    Oom {
        name: String,
        requested: usize,
        alloc_index: u64,
    },
    /// The static launch-plan verifier rejected the operation before it
    /// was issued (see the core crate's `verify` module). Unlike the
    /// fault-injected variants this is *not* retryable — the plan itself
    /// is wrong, and retrying the identical plan can only fail again.
    PlanRejected { kernel: String, reason: String },
    /// The execution backend does not implement the requested operation
    /// (see the `tfno-backend` capability flags). Not retryable: the same
    /// backend will decline the same operation every time — callers should
    /// consult `Backend::caps` and take the supported path instead.
    Unsupported {
        backend: &'static str,
        op: &'static str,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Transient {
                kernel,
                launch_index,
            } => write!(
                f,
                "transient launch failure: kernel '{kernel}' (launch index {launch_index})"
            ),
            LaunchError::WorkerPanic {
                kernel,
                launch_index,
            } => write!(
                f,
                "worker panic: kernel '{kernel}' lost a block worker \
                 (launch index {launch_index}); launch discarded"
            ),
            LaunchError::Oom {
                name,
                requested,
                alloc_index,
            } => write!(
                f,
                "device out of memory: allocation '{name}' of {requested} elements \
                 (alloc index {alloc_index})"
            ),
            LaunchError::PlanRejected { kernel, reason } => write!(
                f,
                "plan verifier rejected kernel '{kernel}': {reason}"
            ),
            LaunchError::Unsupported { backend, op } => write!(
                f,
                "backend '{backend}' does not support {op} \
                 (check Backend::caps before requesting it)"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Injection counters, snapshotted by
/// [`GpuDevice::fault_stats`](crate::GpuDevice::fault_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Functional launches that consulted the plan.
    pub launches_checked: u64,
    /// Device allocations that consulted the plan.
    pub allocs_checked: u64,
    /// Transient launch failures injected.
    pub transient: u64,
    /// Worker panics injected.
    pub worker_panics: u64,
    /// Stalls injected (the launch still succeeded).
    pub stalls: u64,
    /// Allocation failures injected.
    pub oom: u64,
}

impl FaultStats {
    /// Total failures injected (stalls succeed, so they are not failures).
    pub fn injected(&self) -> u64 {
        self.transient + self.worker_panics + self.oom
    }
}

/// A seeded, deterministic fault schedule.
///
/// Probabilities are per-event (`transient`/`worker_panic`/`stall` per
/// functional launch, `oom` per device allocation) and are resolved by
/// hashing `(seed, event index)` — never by a stateful RNG — so the same
/// plan injects the same faults at the same points on every run. Precise
/// single-shot faults are pinned with [`at_launch`](FaultPlan::at_launch)
/// and [`at_alloc`](FaultPlan::at_alloc); they take priority over the
/// probability roll at that index.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    p_transient: f64,
    p_worker_panic: f64,
    p_stall: f64,
    p_oom: f64,
    stall_us: u64,
    at_launch: HashMap<u64, FaultKind>,
    at_alloc: HashSet<u64>,
}

/// Default stall duration: long enough to show in a stalled call's wall
/// time, short enough for chaos soaks.
const DEFAULT_STALL_US: u64 = 2_000;

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            stall_us: DEFAULT_STALL_US,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-launch probability of a transient launch failure.
    pub fn transient(mut self, p: f64) -> Self {
        self.p_transient = p.clamp(0.0, 1.0);
        self
    }

    /// Per-launch probability of an injected worker panic.
    pub fn worker_panic(mut self, p: f64) -> Self {
        self.p_worker_panic = p.clamp(0.0, 1.0);
        self
    }

    /// Per-launch probability of a stall (launch succeeds late).
    pub fn stall(mut self, p: f64) -> Self {
        self.p_stall = p.clamp(0.0, 1.0);
        self
    }

    /// Per-allocation probability of a simulated OOM.
    pub fn oom(mut self, p: f64) -> Self {
        self.p_oom = p.clamp(0.0, 1.0);
        self
    }

    /// Stall duration in microseconds (default 2000).
    pub fn stall_us(mut self, us: u64) -> Self {
        self.stall_us = us;
        self
    }

    /// Pin a fault to an exact functional-launch index (0-based, counted
    /// per installed plan). `FaultKind::Alloc` is not a launch fault.
    pub fn at_launch(mut self, index: u64, kind: FaultKind) -> Self {
        assert!(
            kind != FaultKind::Alloc,
            "FaultKind::Alloc is an allocation fault; use FaultPlan::at_alloc"
        );
        self.at_launch.insert(index, kind);
        self
    }

    /// Pin an OOM to an exact device-allocation index (0-based, counted
    /// per installed plan).
    pub fn at_alloc(mut self, index: u64) -> Self {
        self.at_alloc.insert(index);
        self
    }

    /// The fault (if any) this plan injects for functional launch `idx`.
    fn launch_decision(&self, idx: u64) -> Option<FaultKind> {
        if let Some(&k) = self.at_launch.get(&idx) {
            return Some(k);
        }
        let r = unit(self.seed, idx, SALT_LAUNCH);
        // One roll partitions the unit interval, so the total fault rate
        // is exactly the sum of the per-kind probabilities.
        if r < self.p_transient {
            Some(FaultKind::TransientLaunch)
        } else if r < self.p_transient + self.p_worker_panic {
            Some(FaultKind::WorkerPanic)
        } else if r < self.p_transient + self.p_worker_panic + self.p_stall {
            Some(FaultKind::Stall)
        } else {
            None
        }
    }

    /// Whether this plan fails device allocation `idx`.
    fn alloc_decision(&self, idx: u64) -> bool {
        self.at_alloc.contains(&idx) || unit(self.seed, idx, SALT_ALLOC) < self.p_oom
    }
}

const SALT_LAUNCH: u64 = 0x6C61_756E_6368_2121; // "launch!!"
const SALT_ALLOC: u64 = 0x616C_6C6F_6321_2121; // "alloc!!!"

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hash of `(seed, index, salt)` mapped to `[0, 1)`.
fn unit(seed: u64, idx: u64, salt: u64) -> f64 {
    let h = splitmix64(seed ^ salt ^ splitmix64(idx));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The installed plan plus its event counters; the `*_checked` counts
/// are the launch and allocation cursors.
pub(crate) struct FaultState {
    plan: FaultPlan,
    stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consume one functional-launch event: bump the cursor, roll the
    /// plan, count what was drawn.
    pub(crate) fn next_launch(&mut self) -> Option<(u64, FaultKind)> {
        let idx = self.stats.launches_checked;
        self.stats.launches_checked += 1;
        let kind = self.plan.launch_decision(idx)?;
        match kind {
            FaultKind::TransientLaunch => self.stats.transient += 1,
            FaultKind::WorkerPanic => self.stats.worker_panics += 1,
            FaultKind::Stall => self.stats.stalls += 1,
            FaultKind::Alloc => unreachable!("at_launch rejects FaultKind::Alloc"),
        }
        Some((idx, kind))
    }

    /// Consume one device-allocation event; returns the failed index.
    pub(crate) fn next_alloc(&mut self) -> Option<u64> {
        let idx = self.stats.allocs_checked;
        self.stats.allocs_checked += 1;
        if self.plan.alloc_decision(idx) {
            self.stats.oom += 1;
            Some(idx)
        } else {
            None
        }
    }

    pub(crate) fn stall_us(&self) -> u64 {
        self.plan.stall_us
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::seeded(42).transient(0.3).worker_panic(0.1).stall(0.1);
        let a: Vec<_> = (0..256).map(|i| p.launch_decision(i)).collect();
        let b: Vec<_> = (0..256).map(|i| p.launch_decision(i)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.is_some()), "some faults drawn");
        assert!(a.iter().any(|d| d.is_none()), "some launches clean");
    }

    #[test]
    fn seeds_produce_different_schedules() {
        let a = FaultPlan::seeded(1).transient(0.5);
        let b = FaultPlan::seeded(2).transient(0.5);
        let da: Vec<_> = (0..128).map(|i| a.launch_decision(i)).collect();
        let db: Vec<_> = (0..128).map(|i| b.launch_decision(i)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn pinned_indices_override_probability() {
        let p = FaultPlan::seeded(7).at_launch(3, FaultKind::WorkerPanic).at_alloc(1);
        assert_eq!(p.launch_decision(3), Some(FaultKind::WorkerPanic));
        assert_eq!(p.launch_decision(2), None);
        assert!(p.alloc_decision(1));
        assert!(!p.alloc_decision(0));
    }

    #[test]
    fn probability_roll_roughly_matches_rate() {
        let p = FaultPlan::seeded(99).transient(0.25);
        let hits = (0..4096).filter(|&i| p.launch_decision(i).is_some()).count();
        let rate = hits as f64 / 4096.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }

    #[test]
    #[should_panic(expected = "allocation fault")]
    fn alloc_kind_rejected_at_launch() {
        let _ = FaultPlan::seeded(0).at_launch(0, FaultKind::Alloc);
    }

    #[test]
    fn state_counts_events_and_stats() {
        let mut s = FaultState::new(FaultPlan::seeded(5).at_launch(1, FaultKind::TransientLaunch));
        assert_eq!(s.next_launch(), None);
        assert_eq!(s.next_launch(), Some((1, FaultKind::TransientLaunch)));
        assert_eq!(s.next_alloc(), None);
        let st = s.stats();
        assert_eq!(st.launches_checked, 2);
        assert_eq!(st.allocs_checked, 1);
        assert_eq!(st.transient, 1);
        assert_eq!(st.injected(), 1);
    }
}
