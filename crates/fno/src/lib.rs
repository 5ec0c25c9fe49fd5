//! # tfno-model
//!
//! Fourier Neural Operator models built on the TurboFNO kernels:
//!
//! * [`spectral`] — the spectral convolution layers (the paper's Fourier
//!   layer, shared complex weight across retained modes) with a fast host
//!   path and a simulated-device path running any pipeline
//!   [`Variant`](turbofno::Variant);
//! * [`permode`] — the classic per-mode-weight FNO spectral layer as an
//!   extension (executed as a mode-batched CGEMM);
//! * [`model`] — complete FNO architectures (lifting → Fourier layers with
//!   pointwise bypass + GELU → projection) over a 1D, 2D or 3D grid
//!   ([`FnoNd`]; rank is the number of spatial dims);
//! * [`pde`] — synthetic PDE workload generators (heat-equation exact
//!   spectral operator, Burgers-style initial conditions, Gaussian random
//!   fields for Darcy/Navier–Stokes-like inputs).
//!


// Spectral loops index by frequency (`spectrum[f]`, `modes[f]`) — the
// index is the physical mode number, so range loops read better than
// enumerate/skip/take chains.
#![allow(clippy::needless_range_loop)]

pub mod model;
pub mod permode;
pub mod pde;
pub mod spectral;

pub use model::{add_gelu, gelu, pointwise, pointwise_naive, FnoLayerNd, FnoNd};
pub use permode::PerModeSpectralConv1d;
pub use spectral::{PendingSpectral, SpectralConvNd};
