//! Rank parity: the rank-generic spectral engine must reproduce the
//! seed (pre-refactor) twin-pipeline results bit for bit, and the rank-3
//! path it opens must agree with the host reference DFT on every backend.
//!
//! The `GOLDEN_*` hashes below were captured from the seed repo state
//! (commit cd0a1b4, separate `run_1d`/`run_2d` engine bodies) by hashing
//! the bit patterns of every output element of every concrete variant on
//! the pinned simulator. The rank-generic engine assembles the exact same
//! kernel sequence, so the outputs must stay bitwise-identical — any hash
//! drift means the refactor changed numerics, not just structure.
//!
//! The `STATS_PINS` hashes pin the other half of a launch: every
//! [`LaunchRecord`] (name, grid, all ten `KernelStats` fields and the
//! modeled time) of the same shapes on `SimBackend`, solo and as stacked
//! mixed-weight queues. They were captured with every functional launch
//! metering each block access directly, and a launch that attaches
//! memoized analytical counts must reproduce them exactly.

use proptest::prelude::*;
use tfno_gpu_sim::LaunchRecord;
use tfno_num::error::rel_l2_error;
use tfno_num::{reference, C32, CTensor};
use turbofno::{
    Backend, LayerSpec, NativeBackend, Request, Session, SimBackend, SpectralShape, Variant,
};

fn rand_vec(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.137 + seed).sin(),
                ((i as f32) * 0.291 - seed).cos(),
            )
        })
        .collect()
}

/// FNV-1a over the exact f32 bit patterns of the output.
fn bits_hash(out: &[C32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for v in out {
        eat(v.re.to_bits());
        eat(v.im.to_bits());
    }
    h
}

fn run_1d(p: &SpectralShape, v: Variant) -> u64 {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.4));
    sess.upload(w, &rand_vec(p.weight_len(), 0.9));
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    bits_hash(&sess.download(y))
}

fn run_2d(p: &SpectralShape, v: Variant) -> u64 {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    sess.upload(x, &rand_vec(p.input_len(), 0.2));
    sess.upload(w, &rand_vec(p.weight_len(), 0.7));
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    bits_hash(&sess.download(y))
}

/// Seed-path output hashes for the two pinned 1D shapes. Every concrete
/// variant of a shape produced identical bits on the seed engine, so one
/// hash covers all five.
#[allow(clippy::type_complexity)]
const GOLDEN_1D: [((usize, usize, usize, usize, usize), u64); 2] = [
    ((2, 12, 16, 128, 32), 0xdc26bf66df5c3c4c),
    ((1, 9, 8, 64, 64), 0x9f026cc54a9b2171),
];

/// Seed-path output hashes for the two pinned 2D shapes: `(shape,
/// pytorch_hash, turbo_hash)`. The PyTorch baseline's cuFFT-style stages
/// round differently from the turbo stages, so it hashes apart; the four
/// turbo variants agree with each other.
#[allow(clippy::type_complexity)]
const GOLDEN_2D: [((usize, usize, usize, usize, usize, usize, usize), u64, u64); 2] = [
    ((1, 10, 8, 32, 64, 8, 32), 0x69e231a4623839d2, 0x2e3c5c232d3b8cd1),
    ((2, 8, 12, 16, 32, 16, 32), 0xb0dcda2117b530bc, 0x9efdb9fa7f1b2ee5),
];

#[test]
fn rank_generic_engine_preserves_1d_bits() {
    for ((batch, k_in, k_out, n, nf), want) in GOLDEN_1D {
        let p = SpectralShape::d1(batch, k_in, k_out, n).with_modes(&[nf]);
        for v in Variant::CONCRETE {
            let got = run_1d(&p, v);
            assert_eq!(
                got, want,
                "1D {p:?} {v:?}: 0x{got:016x} != seed 0x{want:016x}"
            );
        }
    }
}

#[test]
fn rank_generic_engine_preserves_2d_bits() {
    for ((batch, k_in, k_out, nx, ny, nfx, nfy), want_pt, want_turbo) in GOLDEN_2D {
        let p = SpectralShape::d2(batch, k_in, k_out, nx, ny).with_modes(&[nfx, nfy]);
        for v in Variant::CONCRETE {
            let got = run_2d(&p, v);
            let want = if v == Variant::Pytorch { want_pt } else { want_turbo };
            assert_eq!(
                got, want,
                "2D {p:?} {v:?}: 0x{got:016x} != seed 0x{want:016x}"
            );
        }
    }
}

/// A rank-3 spec whose innermost mode count satisfies the fused kernels'
/// warp M-tile (multiple of 32), so every concrete variant can run it.
fn spec_3d_fusable(v: Variant) -> LayerSpec {
    LayerSpec::d3(1, 6, 4, 8, 16, 32).modes_xyz(4, 8, 32).variant(v)
}

/// Upload deterministic operands for `spec`, run it, return (output,
/// host-reference output).
fn run_3d_against_reference<B: Backend>(
    sess: &mut Session<B>,
    spec: &LayerSpec,
) -> (Vec<C32>, CTensor) {
    let s = spec.shape();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    let xd = rand_vec(spec.input_len(), 0.3);
    let wd = rand_vec(spec.weight_len(), 0.8);
    sess.upload(x, &xd);
    sess.upload(w, &wd);
    sess.run(spec, x, w, y);
    let xt = CTensor::from_vec(xd, &[s.batch, s.k_in, s.dims[0], s.dims[1], s.dims[2]]);
    let wt = CTensor::from_vec(wd, &[s.k_in, s.k_out]);
    let want = reference::fno_layer_3d(&xt, &wt, s.modes[0], s.modes[1], s.modes[2]);
    (sess.download(y), want)
}

/// The new rank-3 path agrees with the naive O(N^2) host DFT on the
/// simulator, for every concrete variant and the planner.
#[test]
fn rank3_matches_host_reference_on_sim() {
    let mut variants = Variant::CONCRETE.to_vec();
    variants.push(Variant::TurboBest);
    for v in variants {
        let mut sess = Session::new(SimBackend::a100());
        let (got, want) = run_3d_against_reference(&mut sess, &spec_3d_fusable(v));
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-5, "{v:?}: rel l2 error {err}");
    }
}

/// The same rank-3 specs on the native backend (the simulator's release
/// configuration: unmetered blocks with attached counts).
#[test]
fn rank3_matches_host_reference_on_native() {
    for v in Variant::CONCRETE {
        let mut sess = Session::with_backend(NativeBackend::a100());
        let (got, want) = run_3d_against_reference(&mut sess, &spec_3d_fusable(v));
        let err = rel_l2_error(&got, want.data());
        assert!(err < 1e-5, "{v:?}: rel l2 error {err}");
    }
}

/// Repeated calls cover rank 3: the second identical call allocates no
/// scratch, repeats the launch counts and stays bitwise-equal.
#[test]
fn rank3_warm_replay_is_bitwise_equal() {
    for v in [Variant::FftOpt, Variant::FullyFused, Variant::Pytorch] {
        let spec = spec_3d_fusable(v);
        let mut sess = Session::new(SimBackend::a100());
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &rand_vec(spec.input_len(), 0.4));
        sess.upload(w, &rand_vec(spec.weight_len(), 0.9));
        let cold = sess.run(&spec, x, w, y);
        let cold_out = sess.download(y);
        // Clobber the output so a warm call that failed to re-execute
        // would be caught bitwise.
        sess.upload(y, &vec![C32::ZERO; spec.output_len()]);
        let misses = sess.pool_stats().misses;
        let warm = sess.run(&spec, x, w, y);
        assert_eq!(sess.download(y), cold_out, "{v:?}: warm rank-3 run diverged");
        assert_eq!(warm.kernel_count(), cold.kernel_count());
        assert_eq!(
            warm.total_stats(),
            cold.total_stats(),
            "{v:?}: warm rank-3 stats"
        );
        assert_eq!(
            sess.pool_stats().misses,
            misses,
            "{v:?}: warm rank-3 run allocated"
        );
    }
}

/// Stacked serving covers rank 3: a queue of same-shape mixed-weight
/// requests coalesces and stays bitwise-equal to solo runs.
#[test]
fn rank3_stacked_queue_matches_solo_runs() {
    let spec = spec_3d_fusable(Variant::FftOpt);
    let mut solo_outs = Vec::new();
    for i in 0..3 {
        let mut sess = Session::new(SimBackend::a100());
        let x = sess.alloc("x", spec.input_len());
        let w = sess.alloc("w", spec.weight_len());
        let y = sess.alloc("y", spec.output_len());
        sess.upload(x, &rand_vec(spec.input_len(), 0.1 + i as f32));
        sess.upload(w, &rand_vec(spec.weight_len(), 0.6 + i as f32));
        sess.run(&spec, x, w, y);
        solo_outs.push(sess.download(y));
    }

    let mut sess = Session::new(SimBackend::a100());
    let reqs: Vec<Request> = (0..3)
        .map(|i| {
            let x = sess.alloc("qx", spec.input_len());
            let w = sess.alloc("qw", spec.weight_len());
            let y = sess.alloc("qy", spec.output_len());
            sess.upload(x, &rand_vec(spec.input_len(), 0.1 + i as f32));
            sess.upload(w, &rand_vec(spec.weight_len(), 0.6 + i as f32));
            Request { spec, x, w, y }
        })
        .collect();
    let runs = sess.run_many(&reqs);
    // Coalesced: launches reported on the first request only.
    assert!(runs[0].kernel_count() > 0);
    assert_eq!(runs[1].kernel_count() + runs[2].kernel_count(), 0);
    for (i, (req, want)) in reqs.iter().zip(&solo_outs).enumerate() {
        assert_eq!(
            sess.download(req.y),
            *want,
            "stacked rank-3 request {i} diverged from its solo run"
        );
    }
}

/// FNV-1a over every launch record: name, grid, all ten `KernelStats`
/// fields and the bit pattern of the modeled time.
fn records_hash(recs: &[LaunchRecord]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for r in recs {
        let s = &r.stats;
        eat(r.name.as_bytes());
        for v in [
            r.dims_grid as u64,
            s.blocks,
            s.warps,
            s.flops,
            s.global_load_bytes,
            s.global_store_bytes,
            s.global_load_sectors,
            s.global_store_sectors,
            s.shared_ideal_cycles,
            s.shared_actual_cycles,
            s.syncthreads,
            r.time_us.to_bits(),
        ] {
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// The shapes the stats pins cover: the two 1D and two 2D golden shapes
/// above, then [`spec_3d_fusable`]. The variant is set per case.
fn stats_pin_specs() -> Vec<LayerSpec> {
    let d1 = GOLDEN_1D.map(|((b, ki, ko, n, nf), _)| LayerSpec::d1(b, ki, ko, n).modes(nf));
    let d2 = GOLDEN_2D.map(|((b, ki, ko, nx, ny, nfx, nfy), _, _)| {
        LayerSpec::d2(b, ki, ko, nx, ny).modes_xy(nfx, nfy)
    });
    let mut specs = d1.to_vec();
    specs.extend(d2);
    specs.push(spec_3d_fusable(Variant::TurboBest));
    specs
}

/// Variants whose stacked queues the stats pins cover. A queue is the only
/// path that launches the `serve.gather`/`serve.scatter` copies.
const QUEUE_VARIANTS: [Variant; 3] = [Variant::Pytorch, Variant::FftOpt, Variant::FullyFused];

/// Launch records of `spec` run once on a fresh simulator session.
fn solo_records(spec: &LayerSpec) -> Vec<LaunchRecord> {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &rand_vec(spec.input_len(), 0.4));
    sess.upload(w, &rand_vec(spec.weight_len(), 0.9));
    sess.run(spec, x, w, y);
    sess.device().launches().to_vec()
}

/// Launch records of a 3-request `run_many` queue of `spec` with distinct
/// inputs and weights, on a fresh simulator session.
fn queue_records(spec: &LayerSpec) -> Vec<LaunchRecord> {
    let mut sess = Session::new(SimBackend::a100());
    let reqs: Vec<Request> = (0..3)
        .map(|i| {
            let x = sess.alloc("qx", spec.input_len());
            let w = sess.alloc("qw", spec.weight_len());
            let y = sess.alloc("qy", spec.output_len());
            sess.upload(x, &rand_vec(spec.input_len(), 0.1 + i as f32));
            sess.upload(w, &rand_vec(spec.weight_len(), 0.6 + i as f32));
            Request {
                spec: *spec,
                x,
                w,
                y,
            }
        })
        .collect();
    sess.run_many(&reqs);
    sess.device().launches().to_vec()
}

/// Every stats-pin case in `STATS_PINS` order: per shape, one solo run per
/// concrete variant, then one queue per [`QUEUE_VARIANTS`] entry.
fn stats_pin_cases() -> Vec<(String, Vec<LaunchRecord>)> {
    let mut cases = Vec::new();
    for spec in stats_pin_specs() {
        for v in Variant::CONCRETE {
            let spec = spec.variant(v);
            cases.push((
                format!("solo {:?} {v:?}", spec.shape()),
                solo_records(&spec),
            ));
        }
        for v in QUEUE_VARIANTS {
            let spec = spec.variant(v);
            cases.push((
                format!("queue {:?} {v:?}", spec.shape()),
                queue_records(&spec),
            ));
        }
    }
    cases
}

/// Per-launch stats pins, one row per [`stats_pin_specs`] shape:
/// `(solo hashes in Variant::CONCRETE order, queue hashes in
/// QUEUE_VARIANTS order)`.
#[allow(clippy::type_complexity)]
const STATS_PINS: [([u64; 5], [u64; 3]); 5] = [
    (
        [
            0x90858bbc17149537,
            0x0639ad3c35d14c04,
            0x612b5655e480e584,
            0x0ce4b57ab529d633,
            0x0b78393c8f9e1e57,
        ],
        [0x83c253522d15cc83, 0xed2bde56531c7d31, 0xa27b8147b33e4270],
    ),
    (
        [
            0x19a5ca54d009a769,
            0xc81f75e0010639ea,
            0xef824cdee240fbf3,
            0x7827a4fe864f4e69,
            0xbb852f20436bf18a,
        ],
        [0x70bb0073d58a48ae, 0x945816ccff6ac513, 0x02a7d393658dfc23],
    ),
    (
        [
            0x77e6816181492df9,
            0x46d2889adfd0d094,
            0x1abca8893555b1c1,
            0xee4aef4140e2d36c,
            0xa878a2f4d924d297,
        ],
        [0xb6d5fed71aa6c0fb, 0x72789e38ae2580fc, 0x0bcb8b5314ef8fbb],
    ),
    (
        [
            0xdbb015a78dda6a01,
            0x7610356060aafcfc,
            0x65bed0a3a2e8d00c,
            0x671835d9437413be,
            0x9eb6808fb4a23fe4,
        ],
        [0x12a0a2fd1b6f2f8f, 0xcba1e05390392343, 0x98f9fad6ab33e56e],
    ),
    (
        [
            0xdbf8026a4ba799db,
            0xaee01b03d70d8426,
            0xf07dfc72c12f9d1e,
            0xb5fba74bdad685d1,
            0x8cb71a69c5bb76bc,
        ],
        [0xfd46b0dbe0a3143c, 0x80387e5b954733d3, 0xd8a48b7689a1d1a0],
    ),
];

#[test]
fn launch_records_match_stats_pins() {
    let want = STATS_PINS
        .iter()
        .flat_map(|(solo, queue)| solo.iter().chain(queue));
    let cases = stats_pin_cases();
    assert_eq!(cases.len(), 40);
    let mut failed = 0;
    for ((label, recs), &want) in cases.iter().zip(want) {
        let got = records_hash(recs);
        if got != want {
            failed += 1;
            eprintln!("{label}: 0x{got:016x} != pinned 0x{want:016x}");
            for r in recs {
                eprintln!(
                    "    {} grid={} {:?} time_us={}",
                    r.name, r.dims_grid, r.stats, r.time_us
                );
            }
        }
    }
    assert_eq!(failed, 0, "{failed} of {} stats pins drifted", cases.len());
}

/// Edge shapes of the block engines, each run solo through every
/// concrete variant:
/// * 15 inner pencils (a remainder FFT block of 7), `k_in = 5 < 8` (one
///   partial fused FFT k-chunk) and one partial fused n-tile (20 of 32
///   channels);
/// * two fused n-tiles, the second 8 of 128 channels wide;
/// * odd outer modes in 2D (30 inner pencils);
/// * rank 3 with odd outer modes.
fn edge_pin_specs() -> [LayerSpec; 4] {
    [
        LayerSpec::d1(3, 5, 20, 64).modes(32),
        LayerSpec::d1(1, 3, 136, 64).modes(32),
        LayerSpec::d2(2, 3, 7, 16, 64).modes_xy(5, 32),
        LayerSpec::d3(1, 3, 5, 8, 4, 32).modes_xyz(3, 3, 32),
    ]
}

/// `(output bits hash, launch records hash)` of `spec` run once on a
/// fresh simulator session.
fn edge_pin_case(spec: &LayerSpec) -> (u64, u64) {
    let mut sess = Session::new(SimBackend::a100());
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y = sess.alloc("y", spec.output_len());
    sess.upload(x, &rand_vec(spec.input_len(), 0.45));
    sess.upload(w, &rand_vec(spec.weight_len(), 0.85));
    sess.run(spec, x, w, y);
    (
        bits_hash(&sess.download(y)),
        records_hash(sess.device().launches()),
    )
}

/// Output and launch-record pins of [`edge_pin_specs`], per shape in
/// `Variant::CONCRETE` order.
const EDGE_PINS: [[(u64, u64); 5]; 4] = [
    [
        (0xb0c3d8ab0ccc8a9e, 0x35a861eb09318acd),
        (0xb0c3d8ab0ccc8a9e, 0x351f30f98b500df0),
        (0xb0c3d8ab0ccc8a9e, 0xbcd442a55e5122b3),
        (0xb0c3d8ab0ccc8a9e, 0x804f64bfd0be15b6),
        (0xb0c3d8ab0ccc8a9e, 0x981748e896a7fc09),
    ],
    [
        (0xe59dee11788e9c77, 0xe4c764cc0702e400),
        (0xe59dee11788e9c77, 0xf11852c649bb41a9),
        (0xe59dee11788e9c77, 0x0792a77910205d18),
        (0xe59dee11788e9c77, 0x9d2a0c1c85041381),
        (0xe59dee11788e9c77, 0xf74c0d106deea5d0),
    ],
    [
        (0x21e8590b1751e4a1, 0x3e2096649234508a),
        (0x5c2427abbaba96c0, 0x0e961fffd7488da0),
        (0x5c2427abbaba96c0, 0xf08f22bcc1100553),
        (0x5c2427abbaba96c0, 0x0056308dc28538ea),
        (0x5c2427abbaba96c0, 0x35e881d852f7d0f9),
    ],
    [
        (0x2e1eb0c09929aa60, 0x635fbce5423e8e90),
        (0x1ee37e641f389a01, 0x14448db3e1284bac),
        (0x1ee37e641f389a01, 0x45a912c67bcb7e1f),
        (0x1ee37e641f389a01, 0xa2941d585e2603b4),
        (0x1ee37e641f389a01, 0x32bce084c346a154),
    ],
];

#[test]
fn edge_shapes_match_output_and_record_pins() {
    let mut failed = 0;
    for (spec, pins) in edge_pin_specs().iter().zip(EDGE_PINS) {
        for (v, want) in Variant::CONCRETE.into_iter().zip(pins) {
            let got = edge_pin_case(&spec.variant(v));
            if got != want {
                failed += 1;
                eprintln!(
                    "{:?} {v:?}: (0x{:016x}, 0x{:016x}) != pinned (0x{:016x}, 0x{:016x})",
                    spec.shape(),
                    got.0,
                    got.1,
                    want.0,
                    want.1
                );
            }
        }
    }
    assert_eq!(failed, 0, "{failed} edge pins drifted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random rank-3 shapes against the host reference DFT (non-fused
    /// variants, so the innermost mode count is unconstrained).
    #[test]
    fn prop_rank3_matches_host_reference(
        batch in 1usize..3,
        k in 1usize..5,
        mx in 1usize..5,
        my in 1usize..9,
        mz in 1usize..17,
        variant_sel in 0usize..2,
    ) {
        let v = [Variant::Pytorch, Variant::FftOpt][variant_sel];
        let spec = LayerSpec::d3(batch, k, k, 4, 8, 16).modes_xyz(mx, my, mz).variant(v);
        let mut sess = Session::new(SimBackend::a100());
        let (got, want) = run_3d_against_reference(&mut sess, &spec);
        let err = rel_l2_error(&got, want.data());
        prop_assert!(err < 1e-5, "{v:?}: rel l2 error {err}");
    }
}

/// Re-capture helper kept for the next engine change: prints the hashes
/// the constants above pin.
#[test]
#[ignore = "golden capture helper: prints seed-path, stats-pin and edge-pin hashes"]
fn capture_golden_hashes() {
    for (label, recs) in stats_pin_cases() {
        println!("stats {label}: 0x{:016x}", records_hash(&recs));
    }
    for spec in edge_pin_specs() {
        for v in Variant::CONCRETE {
            let (out, recs) = edge_pin_case(&spec.variant(v));
            println!(
                "edge {:?} {v:?}: (0x{out:016x}, 0x{recs:016x})",
                spec.shape()
            );
        }
    }
    for (s, _) in GOLDEN_1D {
        let p = SpectralShape::d1(s.0, s.1, s.2, s.3).with_modes(&[s.4]);
        for v in Variant::CONCRETE {
            println!("1d {p:?} {:?}: 0x{:016x}", v, run_1d(&p, v));
        }
    }
    for (s, _, _) in GOLDEN_2D {
        let p = SpectralShape::d2(s.0, s.1, s.2, s.3, s.4).with_modes(&[s.5, s.6]);
        for v in Variant::CONCRETE {
            println!("2d {p:?} {:?}: 0x{:016x}", v, run_2d(&p, v));
        }
    }
}
