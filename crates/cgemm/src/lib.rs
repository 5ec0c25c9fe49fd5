//! # tfno-cgemm
//!
//! The blocked complex GEMM of the TurboFNO reproduction (paper §3.1,
//! Fig. 3 left, Fig. 9 left, Table 1): a CUDA-core-class CGEMM with
//! double-buffered shared-memory tiles and warp/thread two-level register
//! tiling, implemented against the simulated GPU.
//!
//! The crate deliberately splits the *main loop* ([`engine`]) from the
//! *kernel driver* ([`kernel`]): the fused FFT-CGEMM-iFFT kernels in the
//! `turbofno` crate reuse the one main loop with a custom `A` provider
//! (the FFT writes straight into the `As` tile) and a custom epilogue (the
//! iFFT consumes `C` from shared memory).

// Lane loops (`for l in 0..WARP_SIZE`) deliberately mirror the CUDA
// warp-synchronous style — the index *is* the lane id — and kernel
// constructors take launch-parameter lists like real CUDA launches do.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

pub mod engine;
pub mod kernel;
pub mod tile;
pub mod view;

pub use engine::{
    store_c_global, AProvider, BOperand, CFragments, CgemmBlockEngine, MainloopBankCache,
};
pub use kernel::{BatchedCgemmKernel, BatchedOperand, GemmShape};
pub use tile::TileConfig;
pub use view::{view_spans, MatView, WeightStacking};
