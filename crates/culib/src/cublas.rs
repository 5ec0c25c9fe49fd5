//! cuBLAS-like CGEMM facade.
//!
//! `cgemm_strided_batched` mirrors `cublasCgemmStridedBatched`: strided
//! operands, any alpha/beta, internally tuned tile selection. Like the real
//! library it is a black box — callers cannot fuse anything into it, which
//! is precisely the restriction TurboFNO removes.

use tfno_cgemm::{BatchedCgemmKernel, BatchedOperand, GemmShape, TileConfig};
use tfno_backend::Backend;
use tfno_gpu_sim::{ExecMode, LaunchError, LaunchRecord};
use tfno_num::C32;

/// Stateless cuBLAS-like entry point.
pub struct CuBlas;

impl CuBlas {
    /// Pick a tile the way a tuned library would: large tiles when the
    /// problem fills them, Table-1 tiles otherwise.
    pub fn select_tile(shape: &GemmShape) -> TileConfig {
        let large = TileConfig::large64();
        if shape.m.is_multiple_of(large.m_tb) && shape.n.is_multiple_of(large.n_tb) && shape.m >= 128 {
            large
        } else {
            TileConfig::table1()
        }
    }

    /// Build the kernel `cgemm_strided_batched` would launch, without
    /// launching it — for callers that route each launch through their own
    /// checks first (the session pipelines prove it against the launch-plan
    /// verifier).
    #[allow(clippy::too_many_arguments)]
    pub fn kernel(
        name: &str,
        shape: GemmShape,
        a: BatchedOperand,
        b: BatchedOperand,
        c: BatchedOperand,
        alpha: C32,
        beta: C32,
    ) -> BatchedCgemmKernel {
        let tile = Self::select_tile(&shape);
        BatchedCgemmKernel::new(name, tile, shape, a, b, c, alpha, beta)
    }

    /// `C = alpha * A B + beta * C`, batched with strides.
    #[allow(clippy::too_many_arguments)]
    pub fn cgemm_strided_batched(
        dev: &mut dyn Backend,
        name: &str,
        shape: GemmShape,
        a: BatchedOperand,
        b: BatchedOperand,
        c: BatchedOperand,
        alpha: C32,
        beta: C32,
        mode: ExecMode,
    ) -> LaunchRecord {
        let k = Self::kernel(name, shape, a, b, c, alpha, beta);
        dev.launch(&k, mode)
    }

    /// [`CuBlas::cgemm_strided_batched`] through the device's typed fault
    /// path.
    #[allow(clippy::too_many_arguments)]
    pub fn try_cgemm_strided_batched(
        dev: &mut dyn Backend,
        name: &str,
        shape: GemmShape,
        a: BatchedOperand,
        b: BatchedOperand,
        c: BatchedOperand,
        alpha: C32,
        beta: C32,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        let k = Self::kernel(name, shape, a, b, c, alpha, beta);
        dev.try_launch(&k, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::GpuDevice;
    use tfno_cgemm::MatView;
    use tfno_num::error::{assert_close, gemm_tolerance};
    use tfno_num::reference;

    #[test]
    fn tile_selection() {
        let small = GemmShape {
            batch: 1,
            m: 64,
            n: 32,
            k: 16,
        };
        assert_eq!(CuBlas::select_tile(&small), TileConfig::table1());
        let big = GemmShape {
            batch: 1,
            m: 4096,
            n: 64,
            k: 64,
        };
        assert_eq!(CuBlas::select_tile(&big), TileConfig::large64());
    }

    #[test]
    fn batched_gemm_matches_reference() {
        let (batch, m, n, k) = (2usize, 64usize, 32usize, 24usize);
        let mut dev = GpuDevice::a100();
        let a_buf = dev.alloc("A", batch * m * k);
        let b_buf = dev.alloc("B", k * n);
        let c_buf = dev.alloc("C", batch * m * n);
        let a: Vec<C32> = (0..batch * m * k)
            .map(|i| C32::new((i as f32 * 0.3).sin(), (i as f32 * 0.9).cos()))
            .collect();
        let b: Vec<C32> = (0..k * n)
            .map(|i| C32::new((i as f32 * 0.7).cos(), (i as f32 * 0.2).sin()))
            .collect();
        dev.upload(a_buf, &a);
        dev.upload(b_buf, &b);
        CuBlas::cgemm_strided_batched(
            &mut dev,
            "gemm",
            GemmShape { batch, m, n, k },
            BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
            BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
            BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
            C32::ONE,
            C32::ZERO,
            ExecMode::Functional,
        );
        let out = dev.download(c_buf);
        for bi in 0..batch {
            let mut want = vec![C32::ZERO; m * n];
            reference::cgemm(
                m,
                n,
                k,
                C32::ONE,
                &a[bi * m * k..(bi + 1) * m * k],
                &b,
                C32::ZERO,
                &mut want,
            );
            assert_close(
                &out[bi * m * n..(bi + 1) * m * n],
                &want,
                gemm_tolerance(k, 2.0),
                &format!("batch {bi}"),
            );
        }
    }
}
