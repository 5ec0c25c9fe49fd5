//! Tile configuration for the blocked CGEMM (paper Table 1 / §3.1).
//!
//! The kernel is "fully templated" in the paper; here the tile shape is a
//! runtime value validated once at construction. The hierarchy is the
//! classic three-level blocking of Fig. 3 (left):
//!
//! * thread block: `m_tb x n_tb` C-tile, iterating `k` in steps of `k_tb`;
//! * warp: `m_w x n_w` sub-tile (32 threads);
//! * thread: `m_t x n_t` register accumulators.

/// Blocking parameters.
///
/// ```
/// use tfno_cgemm::TileConfig;
/// let t = TileConfig::table1(); // the paper's Table-1 configuration
/// t.validate();
/// assert_eq!((t.m_tb, t.n_tb, t.k_tb), (32, 32, 8));
/// assert_eq!(t.threads(), 64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileConfig {
    pub m_tb: usize,
    pub n_tb: usize,
    pub k_tb: usize,
    pub m_w: usize,
    pub n_w: usize,
    pub m_t: usize,
    pub n_t: usize,
}

impl TileConfig {
    /// Table 1's CGEMM row: 32/32/8/32/16/4/4.
    pub fn table1() -> Self {
        TileConfig {
            m_tb: 32,
            n_tb: 32,
            k_tb: 8,
            m_w: 32,
            n_w: 16,
            m_t: 4,
            n_t: 4,
        }
    }

    /// §3.1's larger configuration (`M_tb = N_tb = 64`).
    pub fn large64() -> Self {
        TileConfig {
            m_tb: 64,
            n_tb: 64,
            ..Self::table1()
        }
    }

    /// §5.1 A.3's configuration (`M_tb = 64, N_tb = 128`).
    pub fn tall128() -> Self {
        TileConfig {
            m_tb: 64,
            n_tb: 128,
            ..Self::table1()
        }
    }

    /// A tile whose `m_tb` equals the FNO mode count `nf` — the shape the
    /// fused kernels require: one block owns all retained modes of its
    /// batch slice, so the truncated FFT output in shared memory is the
    /// block's whole A tile (the paper's dataflow alignment, §4.1).
    pub fn for_fused(nf: usize, n_tb: usize) -> Self {
        TileConfig {
            m_tb: nf,
            n_tb,
            ..Self::table1()
        }
    }

    /// Panics unless the shape is internally consistent.
    pub fn validate(&self) {
        assert!(self.m_tb.is_multiple_of(self.m_w), "m_tb must be a multiple of m_w");
        assert!(self.n_tb.is_multiple_of(self.n_w), "n_tb must be a multiple of n_w");
        assert!(self.m_w.is_multiple_of(self.m_t) && self.n_w.is_multiple_of(self.n_t));
        let lanes = (self.m_w / self.m_t) * (self.n_w / self.n_t);
        assert_eq!(
            lanes, 32,
            "warp tile {}x{} with thread tile {}x{} needs exactly 32 lanes, got {lanes}",
            self.m_w, self.n_w, self.m_t, self.n_t
        );
        assert!(self.k_tb >= 1);
    }

    /// Warps per block.
    pub fn warps(&self) -> usize {
        (self.m_tb / self.m_w) * (self.n_tb / self.n_w)
    }

    /// Threads per block.
    pub fn threads(&self) -> usize {
        self.warps() * 32
    }

    /// Lanes per thread-row of a warp tile (`m_w / m_t`).
    pub fn lanes_m(&self) -> usize {
        self.m_w / self.m_t
    }

    /// Shared elements for double-buffered As + Bs
    /// (`2 * m_tb * k_tb + 2 * k_tb * n_tb`).
    pub fn shared_elems(&self) -> usize {
        2 * self.m_tb * self.k_tb + 2 * self.k_tb * self.n_tb
    }

    /// Shared memory one standalone CGEMM block requests.
    pub fn shared_bytes(&self) -> usize {
        self.shared_elems() * tfno_num::C32_BYTES
    }

    /// Registers per thread: accumulators (2 floats each) + A/B fragments
    /// + bookkeeping; mirrors Fig. 9's register list.
    pub fn regs_per_thread(&self) -> u32 {
        (2 * self.m_t * self.n_t + 2 * 2 * (self.m_t + self.n_t) + 24) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let t = TileConfig::table1();
        t.validate();
        assert_eq!(t.warps(), 2);
        assert_eq!(t.threads(), 64);
        assert_eq!(t.shared_elems(), 2 * 32 * 8 + 2 * 8 * 32);
    }

    #[test]
    fn large_shapes() {
        let t = TileConfig::large64();
        t.validate();
        assert_eq!(t.warps(), 8);
        assert_eq!(t.threads(), 256);
        let t2 = TileConfig::tall128();
        t2.validate();
        assert_eq!(t2.warps(), 16);
    }

    #[test]
    fn fused_shape_matches_modes() {
        let t = TileConfig::for_fused(64, 32);
        t.validate();
        assert_eq!(t.m_tb, 64);
    }

    #[test]
    #[should_panic(expected = "exactly 32 lanes")]
    fn bad_warp_tile_rejected() {
        TileConfig {
            m_w: 16,
            ..TileConfig::table1()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "multiple of m_w")]
    fn bad_block_tile_rejected() {
        TileConfig {
            m_tb: 48,
            ..TileConfig::table1()
        }
        .validate();
    }
}
