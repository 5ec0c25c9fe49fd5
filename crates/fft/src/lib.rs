//! # tfno-fft
//!
//! The custom Stockham FFT of the TurboFNO reproduction (paper §3.2–3.3):
//!
//! * [`plan`] — pruned radix-2 Stockham butterfly plans with built-in
//!   frequency **truncation**, input **zero-padding** and butterfly
//!   **pruning** (Figs. 4 and 5 of the paper);
//! * [`engine`] — executes a plan inside a simulated thread block: the
//!   transfers move runs, each butterfly op runs over all staged pencils,
//!   and bank behaviour and flops are charged from counts taken once per
//!   block shape; reused verbatim by the fused kernels in the `turbofno`
//!   crate;
//! * [`kernels`] — standalone batched 1D FFT kernels (the paper's
//!   non-fused "TurboFNO FFT" stage, and the building block the culib
//!   baseline wraps);
//! * [`cache`] — the process-wide cache that hands every kernel of one
//!   structure the same plan and butterfly traces;
//! * [`host`] — fast host-side Stockham FFT used by the model crate and as
//!   an extra cross-check of the reference DFT.

// Lane loops (`for l in 0..WARP_SIZE`) deliberately mirror the CUDA
// warp-synchronous style — the index *is* the lane id.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod engine;
pub mod host;
pub mod kernels;
pub mod plan;
pub mod real;

pub use engine::{ButterflyTrace, FftBlockEngine, FftIo, InstanceOrder, PencilTarget, TraceCache};
pub use kernels::{BatchedFftKernel, FftKernelConfig, PencilAddressing, RowPencils, StridedPencils};
pub use plan::{FftDirection, FftOp, FftOpKind, FftPlan, FftStage};
pub use real::{irfft, irfft_padded, rfft, rfft_truncated};

/// The paper's Table 1 FFT kernel configuration: threadblock-level signal
/// lengths `N1 = 128`, `N2 = 256`, per-thread FFT sizes `n1 = 8`,
/// `n2 = 16`, and `bs = 8` signals per thread block (matching the CGEMM
/// `k_tb = 8`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FftBlockConfig {
    /// Signal length handled at thread-block level.
    pub n: usize,
    /// Per-thread FFT size (register footprint).
    pub n_thread: usize,
    /// Signals (pencils) per thread block.
    pub bs: usize,
}

impl FftBlockConfig {
    /// Table 1 configuration for 128-point signals.
    pub fn n128() -> Self {
        FftBlockConfig {
            n: 128,
            n_thread: 8,
            bs: 8,
        }
    }

    /// Table 1 configuration for 256-point signals.
    pub fn n256() -> Self {
        FftBlockConfig {
            n: 256,
            n_thread: 16,
            bs: 8,
        }
    }

    /// Pick the Table 1 configuration for a signal length (other power-of-
    /// two lengths scale the per-thread size to keep 16 threads per pencil).
    pub fn for_len(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "unsupported FFT length {n}");
        match n {
            128 => Self::n128(),
            256 => Self::n256(),
            _ => FftBlockConfig {
                n,
                n_thread: (n / 16).max(1),
                bs: 8,
            },
        }
    }

    /// Threads per pencil.
    pub fn threads_per_pencil(&self) -> usize {
        self.n / self.n_thread
    }

    /// Threads per block (Table 1's configurations give 128).
    pub fn threads_per_block(&self) -> usize {
        self.threads_per_pencil() * self.bs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_block_configs() {
        let c1 = FftBlockConfig::n128();
        assert_eq!(c1.threads_per_pencil(), 16);
        assert_eq!(c1.threads_per_block(), 128);
        let c2 = FftBlockConfig::n256();
        assert_eq!(c2.threads_per_pencil(), 16);
        assert_eq!(c2.threads_per_block(), 128);
    }

    #[test]
    fn for_len_dispatch() {
        assert_eq!(FftBlockConfig::for_len(128), FftBlockConfig::n128());
        assert_eq!(FftBlockConfig::for_len(256), FftBlockConfig::n256());
        let c = FftBlockConfig::for_len(64);
        assert_eq!(c.threads_per_block(), 128);
    }
}
