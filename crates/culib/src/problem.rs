//! The Fourier-layer shape shared by every executor (the PyTorch baseline
//! and the TurboFNO variants, both in the `turbofno` crate). Rank is a field of
//! [`SpectralShape`], not a type: one struct describes a layer over a 1D,
//! 2D or 3D grid, and every executor walks its axes.

/// Highest spatial rank the spectral engine supports.
pub const MAX_RANK: usize = 3;

/// Rank-generic spectral layer shape: `batch` grids of `k_in` hidden
/// channels over a dense row-major spatial grid `dims[..rank]`, keeping the
/// low-frequency corner `modes[..rank]`, mixed to `k_out` channels by one
/// shared `[k_in, k_out]` spectral weight.
///
/// Axes at positions `>= rank` are `1` so products over the fixed-size
/// arrays work for every rank; the innermost (contiguous) axis is
/// `dims[rank - 1]`. [`SpectralShape::d1`]/[`SpectralShape::d2`]/
/// [`SpectralShape::d3`] are constructors of this one type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpectralShape {
    pub batch: usize,
    pub k_in: usize,
    pub k_out: usize,
    pub rank: usize,
    /// Spatial extents, outermost first; entries `>= rank` are 1.
    pub dims: [usize; MAX_RANK],
    /// Retained modes per axis; entries `>= rank` are 1.
    pub modes: [usize; MAX_RANK],
}

impl SpectralShape {
    /// 1D shape with the full spectrum retained (clamp with
    /// [`SpectralShape::with_modes`]).
    pub fn d1(batch: usize, k_in: usize, k_out: usize, n: usize) -> Self {
        SpectralShape {
            batch,
            k_in,
            k_out,
            rank: 1,
            dims: [n, 1, 1],
            modes: [n, 1, 1],
        }
    }

    /// 2D shape with the full spectrum retained.
    pub fn d2(batch: usize, k_in: usize, k_out: usize, nx: usize, ny: usize) -> Self {
        SpectralShape {
            batch,
            k_in,
            k_out,
            rank: 2,
            dims: [nx, ny, 1],
            modes: [nx, ny, 1],
        }
    }

    /// 3D shape with the full spectrum retained.
    #[allow(clippy::too_many_arguments)]
    pub fn d3(batch: usize, k_in: usize, k_out: usize, nx: usize, ny: usize, nz: usize) -> Self {
        SpectralShape {
            batch,
            k_in,
            k_out,
            rank: 3,
            dims: [nx, ny, nz],
            modes: [nx, ny, nz],
        }
    }

    /// Set the retained mode counts, clamping each axis to its spatial
    /// extent — the ONE clamp rule every rank shares (a request for more
    /// modes than samples keeps the full spectrum of that axis).
    pub fn with_modes(mut self, modes: &[usize]) -> Self {
        assert_eq!(
            modes.len(),
            self.rank,
            "expected {} mode counts for a rank-{} shape, got {}",
            self.rank,
            self.rank,
            modes.len()
        );
        for (a, &m) in modes.iter().enumerate() {
            self.modes[a] = m.min(self.dims[a]);
        }
        self
    }

    /// Check the shape is executable: power-of-two FFT lengths, in-range
    /// mode counts, non-empty batch/channel dims.
    pub fn try_validate(&self) -> Result<(), String> {
        if !(1..=MAX_RANK).contains(&self.rank) {
            return Err(format!("spectral rank must be 1..={MAX_RANK}"));
        }
        let fail = |msg: &str| Err(msg.to_string());
        for a in 0..self.rank {
            if !self.dims[a].is_power_of_two() {
                return fail("FFT length must be a power of two");
            }
            if !(1..=self.dims[a]).contains(&self.modes[a]) {
                return fail("mode count out of range");
            }
        }
        if (self.rank..MAX_RANK).any(|a| self.dims[a] != 1 || self.modes[a] != 1) {
            return fail("axes beyond the rank must be 1");
        }
        if self.batch == 0 || self.k_in == 0 || self.k_out == 0 {
            return fail("batch, k_in and k_out must be >= 1");
        }
        Ok(())
    }

    /// Panicking form of [`SpectralShape::try_validate`].
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }

    /// Product of the spatial extents (one grid's element count).
    pub fn spatial_len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Product of the retained modes (one grid's spectral corner).
    pub fn modes_total(&self) -> usize {
        self.modes.iter().product()
    }

    /// Product of the retained modes of every axis left of the innermost
    /// one — the number of already-transformed "outer" spectral positions
    /// the inner FFT–CGEMM–iFFT stage is batched over (1 for rank 1).
    pub fn outer_modes(&self) -> usize {
        self.modes[..self.rank - 1].iter().product()
    }

    /// The paper's GEMM `M` dimension: `batch x` retained positions.
    pub fn gemm_m_total(&self) -> usize {
        self.batch * self.modes_total()
    }

    pub fn input_len(&self) -> usize {
        self.batch * self.k_in * self.spatial_len()
    }

    pub fn output_len(&self) -> usize {
        self.batch * self.k_out * self.spatial_len()
    }

    pub fn weight_len(&self) -> usize {
        self.k_in * self.k_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_1d() {
        let s = SpectralShape::d1(4, 8, 16, 128).with_modes(&[32]);
        assert_eq!(s.gemm_m_total(), 128);
        assert_eq!(s.input_len(), 4 * 8 * 128);
        assert_eq!(s.output_len(), 4 * 16 * 128);
        assert_eq!(s.weight_len(), 128);
        assert_eq!(s.outer_modes(), 1);
    }

    #[test]
    fn sizes_2d() {
        let s = SpectralShape::d2(2, 4, 4, 64, 32).with_modes(&[16, 8]);
        assert_eq!(s.gemm_m_total(), 2 * 16 * 8);
        assert_eq!(s.input_len(), 2 * 4 * 64 * 32);
        assert_eq!(s.output_len(), 2 * 4 * 64 * 32);
        assert_eq!(s.outer_modes(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        SpectralShape::d1(1, 1, 1, 100).with_modes(&[10]).validate();
    }

    /// `with_modes` clamps, so an excess mode count can only come from the
    /// public field; `validate` must reject it.
    #[test]
    #[should_panic(expected = "mode count")]
    fn excess_modes_rejected() {
        let mut s = SpectralShape::d1(1, 1, 1, 64);
        s.modes[0] = 65;
        s.validate();
    }

    #[test]
    fn shape_3d_sizes() {
        let s = SpectralShape::d3(2, 4, 8, 8, 16, 32).with_modes(&[4, 8, 16]);
        s.validate();
        assert_eq!(s.spatial_len(), 8 * 16 * 32);
        assert_eq!(s.modes_total(), 4 * 8 * 16);
        assert_eq!(s.outer_modes(), 4 * 8);
        assert_eq!(s.input_len(), 2 * 4 * 8 * 16 * 32);
        assert_eq!(s.output_len(), 2 * 8 * 8 * 16 * 32);
        assert_eq!(s.weight_len(), 32);
    }

    /// The one shared clamp rule: every axis independently clamps its mode
    /// request to the axis extent, at every rank.
    #[test]
    fn with_modes_clamps_per_axis() {
        for m in [1usize, 16, 32, 33, 64, 65, 1000] {
            let want = m.min(64);
            assert_eq!(SpectralShape::d1(1, 2, 2, 64).with_modes(&[m]).modes, [want, 1, 1]);
            assert_eq!(
                SpectralShape::d2(1, 2, 2, 64, 64).with_modes(&[m, m]).modes,
                [want, want, 1]
            );
            assert_eq!(
                SpectralShape::d3(1, 2, 2, 64, 64, 64).with_modes(&[m, m, m]).modes,
                [want, want, want]
            );
        }
        // clamps are per-axis, not uniform
        let s = SpectralShape::d3(1, 1, 1, 8, 16, 32).with_modes(&[100, 100, 100]);
        assert_eq!(s.modes, [8, 16, 32]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shape_validate_rejects_non_pow2_axis() {
        SpectralShape::d3(1, 1, 1, 8, 12, 16).validate();
    }

    #[test]
    #[should_panic(expected = "mode count out of range")]
    fn shape_validate_rejects_zero_modes() {
        let mut s = SpectralShape::d2(1, 1, 1, 8, 8);
        s.modes = [0, 8, 1];
        s.validate();
    }

    /// The typed check reports what `validate` panics with, rank first, so
    /// an out-of-range rank never indexes past the axis arrays.
    #[test]
    fn shape_try_validate_reports_the_first_violation() {
        assert_eq!(SpectralShape::d3(2, 4, 8, 8, 16, 32).try_validate(), Ok(()));
        let mut s = SpectralShape::d1(1, 1, 1, 64);
        s.rank = MAX_RANK + 1;
        assert_eq!(
            s.try_validate(),
            Err(format!("spectral rank must be 1..={MAX_RANK}"))
        );
        let mut s = SpectralShape::d1(1, 1, 1, 64);
        s.dims[1] = 2;
        assert_eq!(
            s.try_validate(),
            Err("axes beyond the rank must be 1".to_string())
        );
        assert_eq!(
            SpectralShape::d1(1, 0, 1, 64).try_validate(),
            Err("batch, k_in and k_out must be >= 1".to_string())
        );
    }
}
