//! # tfno-culib
//!
//! Emulation of the closed-source library stack the paper compares against.
//! The crate only builds kernels; the `turbofno` engine chains and
//! launches them as the PyTorch baseline (5 kernels in 1D, 7 in 2D, 9 in
//! 3D), through the same checked launch path as the TurboFNO variants.
//!
//! * [`cufft`] — cuFFT-like kernel builders: fast batched Stockham
//!   transforms, but **no truncation/padding/filtering support** (paper
//!   §2.2);
//! * [`cublas`] — a cuBLAS-like strided-batched CGEMM builder;
//! * [`copy`] — the PyTorch-style truncation/zero-padding memory-copy
//!   kernels forced by the libraries' black-box design;
//! * [`problem`] — the rank-generic Fourier-layer shape
//!   [`SpectralShape`] shared with the TurboFNO executors.

pub mod copy;
pub mod cublas;
pub mod cufft;
pub mod problem;

pub use copy::{
    CopySegment, Corner, CornerPad, CornerTruncate, SegmentedCopyKernel, StridedCopyKernel,
};
pub use cublas::CuBlas;
pub use cufft::{CuFft, CUFFT_L1_HIT};
pub use problem::{SpectralShape, MAX_RANK};
