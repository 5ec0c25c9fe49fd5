//! The typed error surface and recovery policy of [`Session`](crate::Session).
//!
//! Every failure the engine can produce funnels into [`TfnoError`]:
//!
//! * **`Validation`** — the request was malformed (shape/length/aliasing);
//!   never retryable.
//! * **`Transient`** — a launch or allocation failed cleanly (injected by a
//!   [`FaultPlan`](crate::backend::FaultPlan) or, on real hardware, a
//!   recoverable driver hiccup). Nothing was written, so the operation can
//!   be retried; [`RetryPolicy`] bounds how hard `Session::try_run` tries,
//!   and the degradation ladder re-plans a persistently failing fused
//!   variant onto the unfused [`Variant::FftOpt`](crate::Variant::FftOpt)
//!   before giving up.
//!
//! Every panicking `Session` entry point is its `try_*` twin plus
//! `panic!("{e}")`, so its panic message is this error's `Display` text.
//!
//! A panic is a bug, not one of these errors. When the engine panics, the
//! call that ran the work heals the session (the leases the unwind leaked
//! are released) and then resumes the panic with `resume_unwind`, so a
//! `try_` call panics rather than returning `Err`, and the session stays
//! usable.

use std::fmt;

use crate::backend::LaunchError;

/// Typed failure of a session operation. See the [module docs](self) for
/// the taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TfnoError {
    /// Malformed request (shape, length, aliasing). Not retryable.
    Validation(String),
    /// A clean, retryable device failure. `attempts` counts how many times
    /// the operation was tried before this error was surfaced (1 when no
    /// retry policy was in play).
    Transient { fault: LaunchError, attempts: u32 },
}

impl TfnoError {
    /// Whether retrying the same operation can succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, TfnoError::Transient { .. })
    }
}

impl fmt::Display for TfnoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfnoError::Validation(msg) => write!(f, "validation failed: {msg}"),
            TfnoError::Transient { fault, attempts } => {
                write!(f, "transient device fault after {attempts} attempt(s): {fault}")
            }
        }
    }
}

impl std::error::Error for TfnoError {}

impl From<LaunchError> for TfnoError {
    fn from(fault: LaunchError) -> Self {
        match fault {
            // A plan rejection is a property of the request, not of the
            // device: retrying the identical plan re-fails identically, so
            // it surfaces as (non-retryable) validation.
            LaunchError::PlanRejected { kernel, reason } => TfnoError::Validation(format!(
                "plan verifier rejected kernel '{kernel}': {reason}"
            )),
            // Asking a device for a capability it lacks is a property of
            // the request too (check `GpuDevice::supports_fault_injection`
            // first): retrying re-fails identically on the same device.
            fault @ LaunchError::Unsupported { .. } => TfnoError::Validation(fault.to_string()),
            // Every other LaunchError is clean by contract (no writes, no
            // history), so it maps to the retryable class.
            fault => TfnoError::Transient { fault, attempts: 1 },
        }
    }
}

/// Bounded retry policy for transient faults in `Session::try_run` /
/// `try_run_many`. Retries follow each other at once: a simulated fault
/// does not decay with time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per plan rung (first try included). Clamped to ≥ 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// No retries: every transient fault surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    pub(crate) fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Counters of the session's recovery machinery (see
/// `Session::recovery_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transient faults that were retried (each retry counts once).
    pub transient_retries: u64,
    /// Times the degradation ladder re-planned a fused variant onto the
    /// unfused `FftOpt` pipeline after exhausting its retry budget.
    pub degraded: u64,
    /// Operations that gave up: retries (and degradation, when available)
    /// exhausted without a success.
    pub exhausted: u64,
    /// Requests whose panic was caught and healed (leaked leases
    /// released, later calls unaffected).
    pub jobs_healed: u64,
    /// Leases a unit of work took and left behind, on any exit path
    /// (success, error or panic), that the session released afterwards.
    /// With verification on, such a leak on a success also fails the call
    /// with `Validation`.
    pub leases_recovered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_error_maps_to_transient() {
        let e: TfnoError = LaunchError::Transient {
            kernel: "k".into(),
            launch_index: 3,
        }
        .into();
        assert!(e.is_transient());
        assert!(e.to_string().contains("transient"));
    }

    #[test]
    fn retry_policy_clamps_attempts() {
        let p = RetryPolicy { max_attempts: 0 };
        assert_eq!(p.attempts(), 1);
        assert_eq!(RetryPolicy::default().attempts(), 3);
    }

    /// A plan rejection is a property of the request: it maps to
    /// `Validation`, never to the retryable class.
    #[test]
    fn plan_rejection_maps_to_validation() {
        let e: TfnoError = LaunchError::PlanRejected {
            kernel: "k".into(),
            reason: "blocks overlap".into(),
        }
        .into();
        assert!(!e.is_transient());
        match e {
            TfnoError::Validation(msg) => {
                assert!(msg.contains("plan verifier rejected kernel"), "{msg}")
            }
            other => panic!("expected Validation, got {other:?}"),
        }
    }

    #[test]
    fn display_covers_the_taxonomy() {
        // `Transient`'s text is covered by launch_error_maps_to_transient.
        let e = TfnoError::Validation("bad".into());
        assert!(e.to_string().contains("validation"), "{e}");
    }
}
