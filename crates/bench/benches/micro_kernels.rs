//! Criterion microbenchmarks of the simulator itself: functional-execution
//! throughput of the core kernels and the host-side reference transforms.
//!
//! These measure *wall-clock of the simulation*, not modeled GPU time —
//! they exist to keep the simulator fast enough for the figure sweeps and
//! to catch accidental complexity regressions in the hot engines.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfno_cgemm::{BatchedCgemmKernel, BatchedOperand, GemmShape, MatView, TileConfig};
use tfno_fft::{
    host, BatchedFftKernel, FftBlockConfig, FftDirection, FftKernelConfig, FftPlan, RowPencils,
    StridedPencils,
};
use tfno_gpu_sim::{ExecMode, GpuDevice};
use tfno_model::add_gelu;
use tfno_num::{reference, CTensor, C32};
use turbofno::{LayerSpec, Session, SpectralShape, Variant};

fn signals(n: usize) -> Vec<C32> {
    (0..n)
        .map(|i| C32::new((i as f32 * 0.17).sin(), (i as f32 * 0.39).cos()))
        .collect()
}

fn bench_host_fft(c: &mut Criterion) {
    let x = signals(1024);
    c.bench_function("host_stockham_1024", |b| {
        b.iter(|| host::stockham(black_box(&x), FftDirection::Forward))
    });
    let y = signals(128);
    c.bench_function("reference_dft_128", |b| {
        b.iter(|| reference::dft_full(black_box(&y)))
    });
}

fn bench_sim_fft_kernel(c: &mut Criterion) {
    let (n, pencils) = (128usize, 64usize);
    let mut dev = GpuDevice::a100();
    let input = dev.alloc("in", pencils * n);
    let output = dev.alloc("out", pencils * 32);
    dev.upload(input, &signals(pencils * n));
    let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n));
    let plan = FftPlan::new(n, FftDirection::Forward, n, 32);
    let addr = RowPencils {
        count: pencils,
        in_row_len: n,
        out_row_len: 32,
    };
    let k = BatchedFftKernel::new("bench.fft", cfg, plan, addr, input, output);
    c.bench_function("sim_fft_64x128pt_functional", |b| {
        b.iter(|| dev.launch(black_box(&k), ExecMode::Functional))
    });
    c.bench_function("sim_fft_64x128pt_analytical", |b| {
        b.iter(|| dev.launch(black_box(&k), ExecMode::Analytical))
    });
}

/// The 8-point strided outer-axis stage of a rank-3 layer (`turbo.fft3_x`
/// of a `[4, 8, 8, 8, 8]` input truncated to 4 modes): 2048 pencils in
/// blocks of 8 adjacent ones, each `idx` 512 elements apart.
fn bench_sim_strided_fft_kernel(c: &mut Criterion) {
    let (slabs, n, keep, inner) = (4usize, 8usize, 4usize, 512usize);
    let mut dev = GpuDevice::a100();
    let input = dev.alloc("in", slabs * n * inner);
    let output = dev.alloc("out", slabs * keep * inner);
    dev.upload(input, &signals(slabs * n * inner));
    let cfg = FftKernelConfig::new(FftBlockConfig::for_len(n));
    let plan = FftPlan::new(n, FftDirection::Forward, n, keep);
    let addr = StridedPencils::along_axis(slabs, n, keep, inner);
    let k = BatchedFftKernel::new("bench.fft3_x", cfg, plan, addr, input, output);
    c.bench_function("sim_fft3_x_2048x8pt_strided", |b| {
        b.iter(|| dev.launch(black_box(&k), ExecMode::Functional))
    });
}

fn bench_sim_cgemm_kernel(c: &mut Criterion) {
    let (m, n, kk) = (64usize, 64usize, 32usize);
    let mut dev = GpuDevice::a100();
    let a = dev.alloc("A", m * kk);
    let b_buf = dev.alloc("B", kk * n);
    let c_buf = dev.alloc("C", m * n);
    dev.upload(a, &signals(m * kk));
    dev.upload(b_buf, &signals(kk * n));
    let kernel = BatchedCgemmKernel::new(
        "bench.cgemm",
        TileConfig::table1(),
        GemmShape {
            batch: 1,
            m,
            n,
            k: kk,
        },
        BatchedOperand::shared(a, MatView::row_major(0, kk)),
        BatchedOperand::shared(b_buf, MatView::row_major(0, n)),
        BatchedOperand::shared(c_buf, MatView::row_major(0, n)),
        C32::ONE,
        C32::ZERO,
    );
    c.bench_function("sim_cgemm_64x64x32_functional", |b| {
        b.iter(|| dev.launch(black_box(&kernel), ExecMode::Functional))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let p = SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]);
    let spec = LayerSpec::from_shape(p).variant(Variant::FullyFused);
    c.bench_function("pipeline_1d_fully_fused_functional", |b| {
        b.iter(|| {
            let mut sess = Session::a100();
            let x = sess.alloc("x", p.input_len());
            let w = sess.alloc("w", p.weight_len());
            let y = sess.alloc("y", p.output_len());
            sess.run(black_box(&spec), x, w, y)
        })
    });
}

/// Time `spec` on one session that persists across iterations.
fn bench_warm_layer(c: &mut Criterion, name: &str, spec: LayerSpec) {
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &signals(spec.input_len()));
    sess.upload(w, &signals(spec.weight_len()));
    c.bench_function(name, |b| b.iter(|| sess.run(black_box(&spec), x, w, y)));
}

/// Warm `FullyFused` layers: batch-2d's rank-2 layer (outer FFT, fused
/// kernel, outer iFFT: three launches) and serve-varied's `(k 32, n 128,
/// nf 32)` rank-1 layer (one fused launch).
fn bench_fused_layers(c: &mut Criterion) {
    let fused = Variant::FullyFused;
    let layer_2d = LayerSpec::d2(8, 8, 8, 16, 32).modes_xy(8, 32).variant(fused);
    bench_warm_layer(c, "layer_2d_fully_fused_warm", layer_2d);
    let layer_1d = LayerSpec::d1(1, 32, 32, 128).modes(32).variant(fused);
    bench_warm_layer(c, "layer_1d_fully_fused_k32_warm", layer_1d);
}

/// Host `add_gelu` on rollout-3d's `[1, 4, 8, 16, 32]` layer activations:
/// sums in the workloads' `|u| <= 0.17` range, so every chunk takes the
/// lane kernel; and on sums of magnitude 1.5 to 2.5, so every lane takes
/// the scalar `tanhf` with `|u| > 1`.
fn bench_add_gelu(c: &mut Criterion) {
    let shape = [1, 4, 8, 16, 32];
    let len = shape.iter().product();
    let tensor = |f: &dyn Fn(C32) -> C32| {
        CTensor::from_vec(signals(len).into_iter().map(f).collect(), &shape)
    };
    let small = tensor(&|v| v.scale(0.1));
    c.bench_function("add_gelu_rollout_layer", |b| {
        b.iter(|| add_gelu(black_box(&small), black_box(&small)))
    });
    let large = tensor(&|v| C32::new(1.0 + 0.25 * v.re, -1.0 + 0.25 * v.im));
    c.bench_function("add_gelu_large_args", |b| {
        b.iter(|| add_gelu(black_box(&large), black_box(&large)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_host_fft, bench_sim_fft_kernel, bench_sim_strided_fft_kernel,
        bench_sim_cgemm_kernel, bench_pipeline, bench_fused_layers, bench_add_gelu
}
criterion_main!(benches);
