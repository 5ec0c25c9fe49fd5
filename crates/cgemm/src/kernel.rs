//! Standalone batched CGEMM kernel (the paper's custom cuBLAS-class GEMM).
//!
//! Computes, for every batch `b`:
//! `C_b = alpha * A_b * B_b + beta * C_b` with `A: m x k`, `B: k x n`,
//! `C: m x n`, all addressed through strided [`MatView`]s so the FNO's
//! channel-major tensors need no packing copies. The grid is
//! `batch x ceil(m / m_tb) x ceil(n / n_tb)` blocks.

use crate::engine::{store_c_global, AProvider, BOperand, CgemmBlockEngine, MainloopBankCache};
use crate::tile::TileConfig;
use crate::view::{view_spans, MatView};
use std::hash::Hash;
use tfno_gpu_sim::{structural_fingerprint, BlockCtx, BufferId, Kernel, KernelAccess, LaunchDims};
use tfno_num::{C32, C32_BYTES};

/// Problem shape for one launch.
#[derive(Clone, Copy, Debug, Hash)]
pub struct GemmShape {
    pub batch: usize,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

/// A matrix operand: per-batch view plus batch stride.
///
/// The view advances by `batch_stride` once every `batch_group` batch
/// entries (`batch_group == 1` is the classic cuBLAS strided-batched
/// layout; `batch_stride == 0` shares one matrix across the batch). A
/// grouped weight operand — `batch_group` = per-request batch,
/// `batch_stride` = slice length — is what lets a mixed-weight serving
/// stack run as one launch with one weight slice per stacked sub-batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchedOperand {
    pub buf: BufferId,
    pub view: MatView,
    pub batch_stride: usize,
    pub batch_group: usize,
}

impl BatchedOperand {
    /// Classic strided-batched operand: the view advances every batch entry.
    pub fn strided(buf: BufferId, view: MatView, batch_stride: usize) -> Self {
        BatchedOperand {
            buf,
            view,
            batch_stride,
            batch_group: 1,
        }
    }

    /// One matrix shared by every batch entry.
    pub fn shared(buf: BufferId, view: MatView) -> Self {
        Self::strided(buf, view, 0)
    }

    /// Stacked weight operand: one `stacking.stride`-spaced slice per
    /// `stacking.group` consecutive batch entries.
    pub fn stacked(buf: BufferId, view: MatView, stacking: crate::WeightStacking) -> Self {
        BatchedOperand {
            buf,
            view,
            batch_stride: stacking.stride,
            batch_group: stacking.group.max(1),
        }
    }

    pub fn at_batch(&self, b: usize) -> MatView {
        MatView {
            base: self.view.base + (b / self.batch_group) * self.batch_stride,
            ..self.view
        }
    }

    /// Distinct matrices read by a batch of `batch` entries.
    fn distinct_slices(&self, batch: usize) -> usize {
        crate::WeightStacking {
            stride: self.batch_stride,
            group: self.batch_group,
        }
        .slices(batch)
    }
}

/// The batched CGEMM kernel.
pub struct BatchedCgemmKernel {
    pub name: String,
    pub tile: TileConfig,
    pub shape: GemmShape,
    pub a: BatchedOperand,
    pub b: BatchedOperand,
    pub c: BatchedOperand,
    pub alpha: C32,
    pub beta: C32,
    /// Main-loop bank phases per block-extent class, counted by the
    /// first metered block of each class and kept for the kernel object's
    /// lifetime.
    banks: MainloopBankCache,
}

impl BatchedCgemmKernel {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        tile: TileConfig,
        shape: GemmShape,
        a: BatchedOperand,
        b: BatchedOperand,
        c: BatchedOperand,
        alpha: C32,
        beta: C32,
    ) -> Self {
        tile.validate();
        BatchedCgemmKernel {
            name: name.into(),
            tile,
            shape,
            a,
            b,
            c,
            alpha,
            beta,
            banks: MainloopBankCache::new(),
        }
    }

    pub fn m_tiles(&self) -> usize {
        self.shape.m.div_ceil(self.tile.m_tb)
    }

    pub fn n_tiles(&self) -> usize {
        self.shape.n.div_ceil(self.tile.n_tb)
    }

    fn grid(&self) -> usize {
        self.shape.batch * self.m_tiles() * self.n_tiles()
    }

    /// Decode a block id into `(batch, m_tile, n_tile)`.
    pub fn decode(&self, block_id: usize) -> (usize, usize, usize) {
        let per_batch = self.m_tiles() * self.n_tiles();
        let b = block_id / per_batch;
        let rem = block_id % per_batch;
        (b, rem % self.m_tiles(), rem / self.m_tiles())
    }

    /// Estimated L1/L2 hit rate from inter-block operand reuse: the same A
    /// tile is read by every n-tile block and the same B slice by every
    /// (batch-group, m-tile) block; only the first read goes to DRAM.
    fn l1_hit_estimate(&self) -> f64 {
        let s = self.shape;
        let a_total = (s.batch * self.m_tiles() * self.n_tiles() * self.tile.m_tb
            * s.k
            * C32_BYTES) as f64;
        let a_distinct = (self.a.distinct_slices(s.batch) * s.m * s.k * C32_BYTES) as f64;
        let b_total =
            (self.grid() * self.tile.n_tb * s.k * C32_BYTES) as f64;
        let b_distinct = (self.b.distinct_slices(s.batch) * s.k * s.n * C32_BYTES) as f64;
        let total = a_total + b_total;
        if total == 0.0 {
            return 0.0;
        }
        (1.0 - (a_distinct + b_distinct) / total).clamp(0.0, 0.95)
    }
}

impl Kernel for BatchedCgemmKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn dims(&self) -> LaunchDims {
        LaunchDims::new(self.grid(), self.tile.threads() as u32)
            .with_shared(self.tile.shared_bytes())
            .with_regs(self.tile.regs_per_thread())
            .with_l1_hit_rate(self.l1_hit_estimate())
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
        let (b, mt, nt) = self.decode(block_id);
        let (m0, n0) = (mt * self.tile.m_tb, nt * self.tile.n_tb);
        let active_m = self.tile.m_tb.min(self.shape.m - m0);
        let active_n = self.tile.n_tb.min(self.shape.n - n0);

        let a_view = self.a.at_batch(b).tile(m0, 0);
        let b_view = self.b.at_batch(b).tile(0, n0);
        let c_view = self.c.at_batch(b).tile(m0, n0);

        let engine = CgemmBlockEngine {
            tile: self.tile,
            k_total: self.shape.k,
        };
        let mut a = AProvider::Global {
            buf: self.a.buf,
            view: a_view,
        };
        let b = BOperand {
            buf: self.b.buf,
            view: b_view,
        };
        let frags = engine.run_mainloop(ctx, &mut a, &b, active_m, active_n, &self.banks);
        store_c_global(
            ctx,
            &frags,
            self.c.buf,
            &c_view,
            active_m,
            active_n,
            self.alpha,
            self.beta,
        );
    }

    fn access(&self) -> Option<KernelAccess> {
        let mut acc = KernelAccess::new();
        for block_id in 0..self.grid() {
            let (b, mt, nt) = self.decode(block_id);
            let (m0, n0) = (mt * self.tile.m_tb, nt * self.tile.n_tb);
            let active_m = self.tile.m_tb.min(self.shape.m - m0);
            let active_n = self.tile.n_tb.min(self.shape.n - n0);
            let a_view = self.a.at_batch(b).tile(m0, 0);
            let b_view = self.b.at_batch(b).tile(0, n0);
            let c_view = self.c.at_batch(b).tile(m0, n0);
            for s in view_spans(self.a.buf, &a_view, active_m, self.shape.k) {
                acc.read(s);
            }
            for s in view_spans(self.b.buf, &b_view, self.shape.k, active_n) {
                acc.read(s);
            }
            // The epilogue only loads C when beta contributes to the result.
            if self.beta != C32::ZERO {
                for s in view_spans(self.c.buf, &c_view, active_m, active_n) {
                    acc.read(s);
                }
            }
            for s in view_spans(self.c.buf, &c_view, active_m, active_n) {
                acc.write(block_id, s);
            }
        }
        Some(acc)
    }

    fn fingerprint(&self) -> Option<u64> {
        // BufferId is absent by design; views/strides/shapes cover the
        // access pattern. `BatchedOperand` hashes its view + batch stride.
        let hash_operand = |op: &BatchedOperand, h: &mut std::collections::hash_map::DefaultHasher| {
            op.view.hash(h);
            op.batch_stride.hash(h);
            op.batch_group.hash(h);
        };
        Some(structural_fingerprint("cgemm.batched", |h| {
            self.tile.hash(h);
            self.shape.hash(h);
            hash_operand(&self.a, h);
            hash_operand(&self.b, h);
            hash_operand(&self.c, h);
            self.alpha.re.to_bits().hash(h);
            self.alpha.im.to_bits().hash(h);
            self.beta.re.to_bits().hash(h);
            self.beta.im.to_bits().hash(h);
        }))
    }

    fn block_classes(&self) -> Vec<(usize, u64)> {
        // Classes keyed by (partial_m, partial_n) within one batch entry.
        let mt = self.m_tiles();
        let nt = self.n_tiles();
        let edge_m = !self.shape.m.is_multiple_of(self.tile.m_tb);
        let edge_n = !self.shape.n.is_multiple_of(self.tile.n_tb);
        let mut tiles: Vec<(usize, u64)> = Vec::new();
        let full_m = if edge_m { mt - 1 } else { mt };
        let full_n = if edge_n { nt - 1 } else { nt };
        // representative ids within batch 0: block = mtile + ntile * mt
        if full_m > 0 && full_n > 0 {
            tiles.push((0, (full_m * full_n) as u64));
        }
        if edge_m && full_n > 0 {
            tiles.push((mt - 1, full_n as u64));
        }
        if edge_n && full_m > 0 {
            tiles.push(((nt - 1) * mt, full_m as u64));
        }
        if edge_m && edge_n {
            tiles.push(((nt - 1) * mt + (mt - 1), 1));
        }
        // Batches share a class only when every operand base lands on the
        // same sector-alignment phase (plain strided/shared layouts always
        // do; grouped weight slices with a stride that is not a multiple of
        // the 4-element sector can differ per batch group).
        const SECTOR_ELEMS: usize = 4;
        let phases = |b: usize| {
            let op_phase = |op: &BatchedOperand| op.at_batch(b).base % SECTOR_ELEMS;
            (op_phase(&self.a), op_phase(&self.b), op_phase(&self.c))
        };
        let mut batch_groups: Vec<((usize, usize, usize), usize, u64)> = Vec::new();
        for b in 0..self.shape.batch {
            let ph = phases(b);
            match batch_groups.iter_mut().find(|(p, _, _)| *p == ph) {
                Some((_, _, count)) => *count += 1,
                None => batch_groups.push((ph, b, 1)),
            }
        }
        let per_batch = mt * nt;
        let mut classes = Vec::with_capacity(batch_groups.len() * tiles.len());
        for &(_, rep_b, count_b) in &batch_groups {
            for &(rep_t, count_t) in &tiles {
                classes.push((rep_b * per_batch + rep_t, count_b * count_t));
            }
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_gpu_sim::{ExecMode, GpuDevice};
    use tfno_num::error::{assert_close, gemm_tolerance};
    use tfno_num::reference;

    fn data(n: usize, seed: f32) -> Vec<C32> {
        (0..n)
            .map(|i| {
                C32::new(
                    ((i as f32) * 0.7 + seed).sin(),
                    ((i as f32) * 0.3 - seed).cos(),
                )
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn run_gemm(
        tile: TileConfig,
        batch: usize,
        m: usize,
        n: usize,
        k: usize,
        alpha: C32,
        beta: C32,
        functional: bool,
    ) -> (Vec<C32>, tfno_gpu_sim::LaunchRecord, Vec<C32>, Vec<C32>, Vec<C32>) {
        let mut dev = GpuDevice::a100();
        let a_buf = dev.alloc("A", batch * m * k);
        let b_buf = dev.alloc("B", k * n);
        let c_buf = dev.alloc("C", batch * m * n);
        let a_data = data(batch * m * k, 1.0);
        let b_data = data(k * n, 2.0);
        let c_init = data(batch * m * n, 3.0);
        dev.upload(a_buf, &a_data);
        dev.upload(b_buf, &b_data);
        dev.upload(c_buf, &c_init);

        let kernel = BatchedCgemmKernel::new(
            "cgemm",
            tile,
            GemmShape { batch, m, n, k },
            BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
            BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
            BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
            alpha,
            beta,
        );
        let mode = if functional {
            ExecMode::Functional
        } else {
            ExecMode::Analytical
        };
        let rec = dev.launch(&kernel, mode);
        let out = dev.download(c_buf);
        (out, rec, a_data, b_data, c_init)
    }

    fn check_against_reference(
        batch: usize,
        m: usize,
        n: usize,
        k: usize,
        out: &[C32],
        a: &[C32],
        b: &[C32],
        c_init: &[C32],
        alpha: C32,
        beta: C32,
    ) {
        for bi in 0..batch {
            let mut want = c_init[bi * m * n..(bi + 1) * m * n].to_vec();
            reference::cgemm(m, n, k, alpha, &a[bi * m * k..(bi + 1) * m * k], b, beta, &mut want);
            assert_close(
                &out[bi * m * n..(bi + 1) * m * n],
                &want,
                gemm_tolerance(k, 2.0),
                &format!("batch {bi}"),
            );
        }
    }

    #[test]
    fn exact_tile_multiple() {
        let (out, _, a, b, c) = run_gemm(
            TileConfig::table1(),
            1,
            64,
            64,
            32,
            C32::ONE,
            C32::ZERO,
            true,
        );
        check_against_reference(1, 64, 64, 32, &out, &a, &b, &c, C32::ONE, C32::ZERO);
    }

    #[test]
    fn partial_tiles_all_edges() {
        let (m, n, k) = (45, 37, 13);
        let (out, rec, a, b, c) = run_gemm(
            TileConfig::table1(),
            1,
            m,
            n,
            k,
            C32::ONE,
            C32::ZERO,
            true,
        );
        assert_eq!(rec.stats.blocks, 4); // 2x2 tiles
        check_against_reference(1, m, n, k, &out, &a, &b, &c, C32::ONE, C32::ZERO);
    }

    #[test]
    fn alpha_beta_epilogue() {
        let alpha = C32::new(0.5, 0.25);
        let beta = C32::new(-1.0, 0.5);
        let (out, _, a, b, c) = run_gemm(TileConfig::table1(), 1, 32, 32, 8, alpha, beta, true);
        check_against_reference(1, 32, 32, 8, &out, &a, &b, &c, alpha, beta);
    }

    #[test]
    fn batched_shares_weights() {
        let (out, rec, a, b, c) = run_gemm(
            TileConfig::table1(),
            3,
            32,
            32,
            16,
            C32::ONE,
            C32::ZERO,
            true,
        );
        assert_eq!(rec.stats.blocks, 3);
        check_against_reference(3, 32, 32, 16, &out, &a, &b, &c, C32::ONE, C32::ZERO);
    }

    #[test]
    fn larger_tile_config() {
        let (out, _, a, b, c) = run_gemm(
            TileConfig::large64(),
            1,
            128,
            64,
            24,
            C32::ONE,
            C32::ZERO,
            true,
        );
        check_against_reference(1, 128, 64, 24, &out, &a, &b, &c, C32::ONE, C32::ZERO);
    }

    #[test]
    fn analytical_matches_functional() {
        for (m, n, k) in [(64, 64, 32), (45, 37, 13), (96, 32, 8)] {
            let (_, rec_f, ..) = run_gemm(
                TileConfig::table1(),
                2,
                m,
                n,
                k,
                C32::ONE,
                C32::ZERO,
                true,
            );
            let (_, rec_a, ..) = run_gemm(
                TileConfig::table1(),
                2,
                m,
                n,
                k,
                C32::ONE,
                C32::ZERO,
                false,
            );
            assert_eq!(rec_f.stats, rec_a.stats, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn flops_match_formula() {
        let (m, n, k) = (64usize, 64usize, 32usize);
        let (_, rec, ..) = run_gemm(TileConfig::table1(), 1, m, n, k, C32::ONE, C32::ZERO, true);
        assert_eq!(
            rec.stats.flops,
            (m * n * k) as u64 * tfno_num::FLOPS_PER_CMAC
        );
    }

    #[test]
    fn fragment_loads_are_conflict_free() {
        // the shared-memory fragment traffic of the main loop must not
        // serialize: utilization should be high (broadcast-friendly).
        let (_, rec, ..) = run_gemm(TileConfig::table1(), 1, 64, 64, 32, C32::ONE, C32::ZERO, true);
        assert!(
            rec.stats.bank_utilization() > 0.9,
            "bank utilization {:.3}",
            rec.stats.bank_utilization()
        );
    }

    /// A grouped weight operand (one slice per stacked sub-batch) must
    /// compute, for each batch entry `b`, `C_b = A_b * W_{b/group}` — the
    /// mixed-weight serving stack collapsed into one launch.
    #[test]
    fn grouped_weight_operand_selects_slice_per_sub_batch() {
        let (requests, per_batch, m, n, k) = (3usize, 2usize, 32usize, 32usize, 8usize);
        let batch = requests * per_batch;
        let mut dev = GpuDevice::a100();
        let a_buf = dev.alloc("A", batch * m * k);
        let b_buf = dev.alloc("B", requests * k * n);
        let c_buf = dev.alloc("C", batch * m * n);
        let a_data = data(batch * m * k, 1.0);
        let b_data = data(requests * k * n, 2.0);
        dev.upload(a_buf, &a_data);
        dev.upload(b_buf, &b_data);
        let kernel = BatchedCgemmKernel::new(
            "cgemm.stacked",
            TileConfig::table1(),
            GemmShape { batch, m, n, k },
            BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
            BatchedOperand::stacked(
                b_buf,
                MatView::row_major(0, n),
                crate::WeightStacking::strided(k * n, per_batch),
            ),
            BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
            C32::ONE,
            C32::ZERO,
        );
        dev.launch(&kernel, ExecMode::Functional);
        let out = dev.download(c_buf);
        for bi in 0..batch {
            let w_slice = &b_data[(bi / per_batch) * k * n..(bi / per_batch + 1) * k * n];
            let mut want = vec![C32::ZERO; m * n];
            reference::cgemm(
                m,
                n,
                k,
                C32::ONE,
                &a_data[bi * m * k..(bi + 1) * m * k],
                w_slice,
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
        // More distinct weight data in flight -> lower reuse estimate than
        // the shared-weight launch of the same shape.
        let shared = BatchedCgemmKernel::new(
            "cgemm.shared",
            TileConfig::table1(),
            GemmShape { batch, m, n, k },
            BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
            BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
            BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
            C32::ONE,
            C32::ZERO,
        );
        assert!(kernel.dims().l1_hit_rate <= shared.dims().l1_hit_rate);
    }

    /// [`BatchedCgemmKernel`] with its `A` tile staged by a custom
    /// provider (the hook the fused FFT→CGEMM kernel fills `As` through)
    /// that loads the same global elements and charges them itself, warp
    /// by warp. It forwards `block_classes`, so its analytical launch
    /// scales edge tiles correctly, and has no fingerprint, so it never
    /// shares launch-memo entries with the kernel it wraps. It keeps its
    /// own main-loop bank cache: the single-buffered `As` layout counts
    /// differently.
    struct CustomA<'k>(&'k BatchedCgemmKernel, MainloopBankCache);

    impl Kernel for CustomA<'_> {
        fn name(&self) -> String {
            format!("{}.custom_a", self.0.name)
        }

        fn dims(&self) -> LaunchDims {
            self.0.dims()
        }

        fn block_classes(&self) -> Vec<(usize, u64)> {
            self.0.block_classes()
        }

        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_>) {
            use tfno_gpu_sim::{warp_bank_cycles, BankStats, WarpIdx, WARP_SIZE};
            let k = self.0;
            let (b, mt, nt) = k.decode(block_id);
            let (m0, n0) = (mt * k.tile.m_tb, nt * k.tile.n_tb);
            let active_m = k.tile.m_tb.min(k.shape.m - m0);
            let active_n = k.tile.n_tb.min(k.shape.n - n0);
            let c_view = k.c.at_batch(b).tile(m0, n0);
            let a_view = k.a.at_batch(b).tile(m0, 0);
            let engine = CgemmBlockEngine {
                tile: k.tile,
                k_total: k.shape.k,
            };
            let (ms, ks, a_buf) = (k.tile.m_tb, k.tile.k_tb, k.a.buf);
            let k_total = k.shape.k;
            let mut fill = |ctx: &mut BlockCtx<'_>, k0: usize, as_buf: usize| {
                for kt in 0..ks.min(k_total - k0) {
                    for e0 in (0..active_m).step_by(WARP_SIZE) {
                        let lanes = |l: usize| (e0 + l < active_m).then_some(e0 + l);
                        let g = WarpIdx::from_fn(|l| lanes(l).map(|m| a_view.at(m, k0 + kt)));
                        let s = WarpIdx::from_fn(|l| lanes(l).map(|m| as_buf + kt * ms + m));
                        ctx.charge_global_load(a_buf, &g);
                        if ctx.is_metered() {
                            ctx.charge_shared(BankStats::default(), warp_bank_cycles(&s));
                        }
                        let src = ctx.global(a_buf);
                        for l in 0..WARP_SIZE {
                            if let (Some(gi), Some(si)) = (g.lanes[l], s.lanes[l]) {
                                ctx.shared_mut()[si] = src.get(gi);
                            }
                        }
                    }
                }
            };
            let mut a = AProvider::Custom(&mut fill);
            let bop = BOperand {
                buf: k.b.buf,
                view: k.b.at_batch(b).tile(0, n0),
            };
            let frags = engine.run_mainloop(ctx, &mut a, &bop, active_m, active_n, &self.1);
            store_c_global(ctx, &frags, k.c.buf, &c_view, active_m, active_n, k.alpha, k.beta);
        }
    }

    /// The one main loop must behave identically whichever source fills
    /// `As`: staged from global memory by the loop itself (double-buffered)
    /// or by a custom provider (single-buffered) that moves and charges
    /// the same elements — identical bytes moved, flops, bank behavior and
    /// bitwise results, edge tiles included so partial-lane predication is
    /// exercised. Both launches meter every block (`validate_writes`), so
    /// each is also cross-checked against its own analytical counts.
    #[test]
    fn custom_a_provider_matches_global_a_bitwise() {
        for (batch, m, n, k) in [(1usize, 64usize, 64usize, 32usize), (2, 45, 37, 13)] {
            let run = |custom: bool| {
                let mut dev = GpuDevice::a100();
                dev.validate_writes = true;
                let a_buf = dev.alloc("A", batch * m * k);
                let b_buf = dev.alloc("B", k * n);
                let c_buf = dev.alloc("C", batch * m * n);
                dev.upload(a_buf, &data(batch * m * k, 1.0));
                dev.upload(b_buf, &data(k * n, 2.0));
                dev.upload(c_buf, &data(batch * m * n, 3.0));
                let kernel = BatchedCgemmKernel::new(
                    "cgemm",
                    TileConfig::table1(),
                    GemmShape { batch, m, n, k },
                    BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
                    BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
                    BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
                    C32::new(0.5, 0.25),
                    C32::new(-1.0, 0.5),
                );
                let rec = if custom {
                    let custom_a = CustomA(&kernel, MainloopBankCache::new());
                    dev.launch(&custom_a, ExecMode::Functional)
                } else {
                    dev.launch(&kernel, ExecMode::Functional)
                };
                (rec.stats, dev.download(c_buf))
            };
            let (stats_custom, out_custom) = run(true);
            let (stats_global, out_global) = run(false);
            assert_eq!(stats_custom, stats_global, "m={m} n={n} k={k}");
            assert_eq!(out_custom.len(), out_global.len());
            for (i, (a, b)) in out_custom.iter().zip(&out_global).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "element {i} differs: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// The declared access set must cover exactly the elements `run_block`
    /// touches: every C element written once, partitioned disjointly across
    /// blocks, A/B read sets matching the operand footprints, and the C
    /// read set present only when `beta != 0`.
    #[test]
    fn declared_access_matches_footprint() {
        use std::collections::HashSet;
        for (batch, m, n, k, beta) in [
            (1usize, 64usize, 64usize, 32usize, C32::ZERO),
            (2, 45, 37, 13, C32::new(-1.0, 0.5)),
        ] {
            let mut dev = GpuDevice::a100();
            let a_buf = dev.alloc("A", batch * m * k);
            let b_buf = dev.alloc("B", k * n);
            let c_buf = dev.alloc("C", batch * m * n);
            let kernel = BatchedCgemmKernel::new(
                "cgemm",
                TileConfig::table1(),
                GemmShape { batch, m, n, k },
                BatchedOperand::strided(a_buf, MatView::row_major(0, k), m * k),
                BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
                BatchedOperand::strided(c_buf, MatView::row_major(0, n), m * n),
                C32::ONE,
                beta,
            );
            let acc = kernel.access().expect("cgemm declares access");
            assert_eq!(acc.block_writes.len(), kernel.dims().grid_blocks);

            // Writes: exactly C, each element exactly once across blocks.
            let mut written = HashSet::new();
            for (_, spans) in &acc.block_writes {
                for span in spans {
                    assert_eq!(span.buf, c_buf);
                    for (lo, hi) in span.runs() {
                        for e in lo..hi {
                            assert!(written.insert(e), "element {e} written twice");
                        }
                    }
                }
            }
            assert_eq!(written.len(), batch * m * n);

            // Reads: full A and B footprints; C only under a beta epilogue.
            let mut read: HashSet<(tfno_gpu_sim::BufferId, usize)> = HashSet::new();
            for span in &acc.reads {
                for (lo, hi) in span.runs() {
                    read.extend((lo..hi).map(|e| (span.buf, e)));
                }
            }
            assert_eq!(
                read.iter().filter(|(b, _)| *b == a_buf).count(),
                batch * m * k
            );
            assert_eq!(read.iter().filter(|(b, _)| *b == b_buf).count(), k * n);
            let c_reads = read.iter().filter(|(b, _)| *b == c_buf).count();
            if beta == C32::ZERO {
                assert_eq!(c_reads, 0);
            } else {
                assert_eq!(c_reads, batch * m * n);
            }
        }
    }

    #[test]
    fn weight_reuse_raises_l1_estimate() {
        // many m-tiles re-reading the same weights -> high hit estimate
        let mut dev = GpuDevice::a100();
        let a_buf = dev.alloc("A", 4096 * 16);
        let b_buf = dev.alloc("B", 16 * 32);
        let c_buf = dev.alloc("C", 4096 * 32);
        let kernel = BatchedCgemmKernel::new(
            "cgemm",
            TileConfig::table1(),
            GemmShape {
                batch: 1,
                m: 4096,
                n: 32,
                k: 16,
            },
            BatchedOperand::shared(a_buf, MatView::row_major(0, 16)),
            BatchedOperand::shared(b_buf, MatView::row_major(0, 32)),
            BatchedOperand::shared(c_buf, MatView::row_major(0, 32)),
            C32::ONE,
            C32::ZERO,
        );
        let dims = kernel.dims();
        assert!(dims.l1_hit_rate > 0.3, "hit rate {}", dims.l1_hit_rate);
    }
}
