//! # tfno-culib
//!
//! Emulation of the closed-source library stack the paper compares against:
//!
//! * [`cufft`] — a cuFFT-like planner: fast batched Stockham transforms,
//!   but **no truncation/padding/filtering support** (paper §2.2);
//! * [`cublas`] — a cuBLAS-like strided-batched CGEMM facade;
//! * [`copy`] — the PyTorch-style truncation/zero-padding memory-copy
//!   kernels forced by the libraries' black-box design;
//! * [`pytorch`] — the full baseline executor chaining them (5 kernels in
//!   1D, 7 in 2D, 9 in 3D) in one body over the axes of a shape,
//!   numerically validated against `tfno_num::reference`;
//! * [`problem`] — the rank-generic Fourier-layer shape
//!   [`SpectralShape`] shared with the TurboFNO executors.

// The cuFFT-facade planner takes the same long parameter list the real
// `cufftPlanMany` does — flattening it is part of the emulation.
#![allow(clippy::too_many_arguments)]

pub mod copy;
pub mod cublas;
pub mod cufft;
pub mod problem;
pub mod pytorch;

pub use copy::{
    CopySegment, Corner, CornerPad, CornerTruncate, SegmentedCopyKernel, StridedCopyKernel,
};
pub use cublas::CuBlas;
pub use cufft::{CuFft, CUFFT_L1_HIT};
pub use problem::{SpectralShape, MAX_RANK};
pub use pytorch::{alloc_like, try_alloc_like, try_run_pytorch_stacked, PipelineRun};
