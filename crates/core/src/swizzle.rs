//! Shared-memory swizzling patterns (paper §4.1–4.2, Figs. 7 and 8).
//!
//! Everything here is *address-level*: the functions build the exact warp
//! access patterns the paper draws and measure their bank utilization with
//! the simulator's conflict model. The unit tests pin the paper's numbers:
//!
//! * Fig. 7(b): 16-point-per-thread FFT register writeback — 6.25%
//!   utilization raw, 100% with the `+tid` offset;
//! * Fig. 7(c): 8-point-per-thread — conflicted raw, 100% with `+tid/2`;
//! * Fig. 7(a): forwarding FFT output to the CGEMM `As` tile — the
//!   VkFFT-style thread-to-data layout collides (<= 25% utilization),
//!   TurboFNO's consecutive-elements layout reaches 100%;
//! * Fig. 8: CGEMM accumulator tiles written to the iFFT staging buffer —
//!   25% raw, 100% with the `+tid/4` offset.

use tfno_gpu_sim::shared::warp_bank_cycles;
use tfno_gpu_sim::{BankStats, WarpIdx};

/// FFT final-stage register writeback (Fig. 7b/c): `threads` threads (one
/// pencil each here), thread `t` holding `n_thread` outputs, writing
/// register `j` at `t * n_thread + j`, optionally offset by the paper's
/// swizzle `t * n_thread / 16` (i.e. `+tid` for 16-point, `+tid/2` for
/// 8-point threads).
pub fn fft_writeback_pattern(n_thread: usize, swizzled: bool) -> Vec<WarpIdx> {
    let threads = 16; // the paper draws one half-warp phase
    (0..n_thread)
        .map(|j| {
            WarpIdx::from_fn(|l| {
                (l < threads).then(|| {
                    let base = l * n_thread + j;
                    if swizzled {
                        base + (l * n_thread) / 16
                    } else {
                        base
                    }
                })
            })
        })
        .collect()
}

/// Aggregate utilization of a pattern sequence.
pub fn pattern_utilization(patterns: &[WarpIdx]) -> f64 {
    let mut total = BankStats::default();
    for p in patterns {
        total += warp_bank_cycles(p);
    }
    total.utilization()
}

/// Thread-to-data assignment when forwarding FFT output into the CGEMM
/// `As` tile (Fig. 7a). `ms` is the tile's M extent (= retained modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ForwardLayout {
    /// VkFFT-style: consecutive threads hold the same offset of different
    /// pencils; forwarding writes `As[k][m]` with `k` varying fastest
    /// across lanes — the column-major tile serializes on a few banks.
    VkFftStrided,
    /// TurboFNO: consecutive threads hold consecutive elements of the same
    /// pencil; forwarding writes are contiguous in `m` — bank-aligned.
    TurboContiguous,
}

/// Build one warp's forwarding accesses into a column-major `As` tile
/// (`addr = k * ms + m`) holding `bs` pencils of `ms` kept modes.
/// Returns the access sequence that moves one warp-sized batch of data.
pub fn forward_to_as_pattern(layout: ForwardLayout, ms: usize, bs: usize) -> Vec<WarpIdx> {
    match layout {
        ForwardLayout::VkFftStrided => {
            // lanes cycle over pencils fastest: lane l -> pencil l % bs,
            // element (l / bs) + chunk * (32 / bs)
            let per_chunk = 32 / bs;
            (0..ms.div_ceil(per_chunk).min(8))
                .map(|chunk| {
                    WarpIdx::from_fn(|l| {
                        let k = l % bs;
                        let m = l / bs + chunk * per_chunk;
                        (m < ms).then(|| k * ms + m)
                    })
                })
                .collect()
        }
        ForwardLayout::TurboContiguous => {
            // lanes cover 32 consecutive m of one pencil per access
            let chunks = ms.div_ceil(32);
            (0..bs.min(8))
                .flat_map(|k| {
                    (0..chunks).map(move |c| {
                        WarpIdx::from_fn(move |l| {
                            let m = c * 32 + l;
                            (m < ms).then(|| k * ms + m)
                        })
                    })
                })
                .collect()
        }
    }
}

/// The Fig. 8 swizzle offset for CGEMM→iFFT staging writes within one
/// warp: the writer of C element `(m, n)` is lane `tn * 8 + tm`
/// (`tm = (m % 32)/4`, `tn = (n % 16)/4`), staggered by `lane / 4`.
pub fn fig8_offset(m: usize, n: usize) -> usize {
    let tm = (m % 32) / 4;
    let tn = (n % 16) / 4;
    (tn * 8 + tm) / 4
}

/// Staging-buffer addressing for the CGEMM→iFFT epilogue: C element
/// `(m, n)` of an `ms x ns` tile stored column-per-channel, optionally
/// swizzled per Fig. 8 with the full `threadIdx.x / 4` offset (the warp
/// row index contributes too when `ms > 32`).
///
/// The swizzled layout pads each column by `ms / 4` elements so the
/// monotone offsets never spill into the next channel's column — the
/// shared-memory cost of the conflict-free pattern.
#[derive(Clone, Copy, Debug)]
pub struct EpilogueStaging {
    pub ms: usize,
    pub swizzled: bool,
}

impl EpilogueStaging {
    fn warps_m(&self) -> usize {
        (self.ms / 32).max(1)
    }

    /// Column-to-column stride (padded when swizzled).
    pub fn col_stride(&self) -> usize {
        if self.swizzled {
            self.ms + 8 * self.warps_m()
        } else {
            self.ms
        }
    }

    /// The `threadIdx.x / 4` offset of element `(m, n)`'s writer thread.
    pub fn offset(&self, m: usize, n: usize) -> usize {
        if !self.swizzled {
            return 0;
        }
        let wm = m / 32;
        let tm = (m % 32) / 4;
        let wn = n / 16;
        let tn = (n % 16) / 4;
        let tid = (wn * self.warps_m() + wm) * 32 + tn * 8 + tm;
        tid / 4
    }

    pub fn addr(&self, m: usize, n: usize) -> usize {
        n * self.col_stride() + m + self.offset(m, n)
    }

    /// Elements the staging region needs for `channels` columns.
    pub fn elems(&self, channels: usize) -> usize {
        channels * self.col_stride()
    }
}

/// One warp's staging writes for its `(i, j)` register position (Fig. 8):
/// a 32-thread warp covering a 32x16 C tile, each thread a 4x4 sub-tile.
pub fn epilogue_store_pattern(staging: &EpilogueStaging, i: usize, j: usize) -> WarpIdx {
    WarpIdx::from_fn(|l| {
        let tm = l % 8;
        let tn = l / 8;
        let m = tm * 4 + i;
        let n = tn * 4 + j;
        Some(staging.addr(m, n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 7(b): 16-pt-per-thread writeback: 6.25% -> 100%.
    #[test]
    fn fig7b_sixteen_point() {
        let raw = pattern_utilization(&fft_writeback_pattern(16, false));
        assert!((raw - 0.0625).abs() < 1e-9, "raw {raw}");
        let swz = pattern_utilization(&fft_writeback_pattern(16, true));
        assert!((swz - 1.0).abs() < 1e-9, "swizzled {swz}");
    }

    /// Fig. 7(c): 8-pt-per-thread writeback: conflicted -> 100% with tid/2.
    #[test]
    fn fig7c_eight_point() {
        let raw = pattern_utilization(&fft_writeback_pattern(8, false));
        assert!(raw < 0.2, "raw should conflict heavily: {raw}");
        let swz = pattern_utilization(&fft_writeback_pattern(8, true));
        assert!((swz - 1.0).abs() < 1e-9, "swizzled {swz}");
    }

    /// Fig. 7(a): forwarding layouts. The VkFFT-style assignment collides
    /// on the column-major As tile (paper: 25% utilization); TurboFNO's
    /// contiguous assignment is conflict-free.
    #[test]
    fn fig7a_forwarding_layouts() {
        for ms in [64usize, 128] {
            let vk = pattern_utilization(&forward_to_as_pattern(
                ForwardLayout::VkFftStrided,
                ms,
                8,
            ));
            assert!(vk <= 0.26, "VkFFT layout should collide: {vk} (ms={ms})");
            let turbo = pattern_utilization(&forward_to_as_pattern(
                ForwardLayout::TurboContiguous,
                ms,
                8,
            ));
            assert!((turbo - 1.0).abs() < 1e-9, "turbo layout {turbo} (ms={ms})");
        }
    }

    /// Fig. 8: C-fragment staging writes: 25% raw, 100% with +tid/4.
    #[test]
    fn fig8_epilogue_swizzle() {
        let ms = 64;
        let raw = EpilogueStaging { ms, swizzled: false };
        let swz = EpilogueStaging { ms, swizzled: true };
        let mut raw_pats = Vec::new();
        let mut swz_pats = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                raw_pats.push(epilogue_store_pattern(&raw, i, j));
                swz_pats.push(epilogue_store_pattern(&swz, i, j));
            }
        }
        let u_raw = pattern_utilization(&raw_pats);
        let u_swz = pattern_utilization(&swz_pats);
        assert!((u_raw - 0.25).abs() < 1e-9, "raw {u_raw}");
        assert!((u_swz - 1.0).abs() < 1e-9, "swizzled {u_swz}");
    }

    /// The swizzle is a permutation: no two (m, n) pairs of a staging tile
    /// may collide on the same address — for every mode count we use.
    #[test]
    fn fig8_swizzle_is_injective() {
        for ms in [32usize, 64, 128] {
            for swizzled in [false, true] {
                let st = EpilogueStaging { ms, swizzled };
                let mut seen = std::collections::HashSet::new();
                for n in 0..8 {
                    for m in 0..ms {
                        assert!(
                            seen.insert(st.addr(m, n)),
                            "collision at m={m} n={n} ms={ms} swizzled={swizzled}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn staging_capacity_covers_swizzle() {
        for ms in [32usize, 64, 128] {
            let st = EpilogueStaging { ms, swizzled: true };
            let mut max_addr = 0;
            for n in 0..8 {
                for m in 0..ms {
                    max_addr = max_addr.max(st.addr(m, n));
                }
            }
            assert!(
                max_addr < st.elems(8),
                "ms={ms}: max {max_addr} elems {}",
                st.elems(8)
            );
        }
    }
}
