//! Integration tests of the PyTorch baseline's structural properties —
//! the cost structure the paper attributes to PyTorch must actually hold
//! in the emulation. The baseline runs through `Session` like every other
//! variant.

use turbofno_suite::core::{PipelineRun, SpectralShape};
use turbofno_suite::num::C32;
use turbofno_suite::{LayerSpec, Session, SimBackend, Variant};

fn data(n: usize) -> Vec<C32> {
    (0..n)
        .map(|i| C32::new((i as f32 * 0.19).sin(), (i as f32 * 0.41).cos()))
        .collect()
}

/// Run the baseline functionally on fresh operands for `s`.
fn run_baseline(s: &SpectralShape) -> (Session<SimBackend>, PipelineRun) {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", s.input_len());
    let w = sess.alloc("w", s.weight_len());
    let y = sess.alloc("y", s.output_len());
    sess.upload(x, &data(s.input_len()));
    sess.upload(w, &data(s.weight_len()));
    let spec = LayerSpec::from_shape(*s).variant(Variant::Pytorch);
    let run = sess.try_run(&spec, x, w, y).expect("fault-free baseline run");
    (sess, run)
}

/// One small shape per rank, with the baseline's launch names in order:
/// a full FFT per axis (innermost first), truncate, CGEMM, pad, a full
/// iFFT per axis (outermost first).
fn shapes_and_chains() -> Vec<(SpectralShape, Vec<&'static str>)> {
    vec![
        (
            SpectralShape::d1(3, 4, 4, 64).with_modes(&[16]),
            vec!["pt.fft", "pt.truncate", "pt.cgemm", "pt.pad", "pt.ifft"],
        ),
        (
            SpectralShape::d2(2, 3, 5, 16, 32).with_modes(&[4, 8]),
            vec![
                "pt2.fft_y",
                "pt2.fft_x",
                "pt2.truncate",
                "pt2.cgemm",
                "pt2.pad",
                "pt2.ifft_x",
                "pt2.ifft_y",
            ],
        ),
        (
            SpectralShape::d3(1, 2, 3, 4, 8, 16).with_modes(&[2, 3, 5]),
            vec![
                "pt3.fft_z",
                "pt3.fft_y",
                "pt3.fft_x",
                "pt3.truncate",
                "pt3.cgemm",
                "pt3.pad",
                "pt3.ifft_x",
                "pt3.ifft_y",
                "pt3.ifft_z",
            ],
        ),
    ]
}

/// The 5/7/9-kernel chains, in order, at ranks 1-3.
#[test]
fn baseline_1d_has_five_stages_in_order() {
    for (s, chain) in shapes_and_chains() {
        let (_, run) = run_baseline(&s);
        let names: Vec<&str> = run.launches.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, chain, "rank {}", s.rank);
        assert_eq!(run.kernel_count(), 2 * s.rank + 3);
    }
}

#[test]
fn baseline_ffts_never_truncate() {
    // cuFFT cannot filter: both transforms move full-length rows.
    let s = SpectralShape::d1(2, 8, 8, 128).with_modes(&[16]);
    let (_, run) = run_baseline(&s);
    let full_rows = (s.batch * s.k_in * s.dims[0] * 8) as u64;
    let fft = &run.launches[0];
    assert_eq!(fft.stats.global_load_bytes, full_rows);
    assert_eq!(fft.stats.global_store_bytes, full_rows);
    let ifft = &run.launches[4];
    assert_eq!(ifft.stats.global_load_bytes, full_rows);
    assert_eq!(ifft.stats.global_store_bytes, full_rows);
}

/// At every rank the truncate moves exactly the retained corner
/// (`b * k_in * prod(modes) * 8` bytes in and out) and the pad writes the
/// full padded tensor, zeros included (`b * k_out * prod(dims) * 8`).
#[test]
fn baseline_copies_move_exactly_the_filter_tensors() {
    for (s, _) in shapes_and_chains() {
        let (_, run) = run_baseline(&s);
        let r = s.rank;
        let trunc = &run.launches[r];
        let corner_bytes = (s.batch * s.k_in * s.modes_total() * 8) as u64;
        assert_eq!(trunc.stats.global_load_bytes, corner_bytes, "rank {r}");
        assert_eq!(trunc.stats.global_store_bytes, corner_bytes, "rank {r}");
        let pad = &run.launches[r + 2];
        assert_eq!(
            pad.stats.global_store_bytes,
            (s.batch * s.k_out * s.spatial_len() * 8) as u64,
            "rank {r}"
        );
    }
}

#[test]
fn baseline_2d_has_seven_stages() {
    let s = SpectralShape::d2(1, 4, 4, 16, 16).with_modes(&[4, 4]);
    let (sess, run) = run_baseline(&s);
    assert_eq!(run.kernel_count(), 7);
    // every stage pays a launch
    let overhead = sess.device().config.kernel_launch_overhead_us;
    assert!(run.total_us() >= 7.0 * overhead);
}

#[test]
fn pipeline_run_accumulates() {
    let s = SpectralShape::d1(1, 4, 4, 64).with_modes(&[16]);
    let (_, run) = run_baseline(&s);
    let sum: f64 = run.launches.iter().map(|l| l.time_us).sum();
    assert!((run.total_us() - sum).abs() < 1e-9);
    let stats = run.total_stats();
    assert_eq!(
        stats.flops,
        run.launches.iter().map(|l| l.stats.flops).sum::<u64>()
    );
}
