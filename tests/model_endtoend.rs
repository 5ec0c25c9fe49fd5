//! End-to-end model tests: full FNO networks across execution paths, the
//! lockstep batch forward, the heat-equation exact-operator validation,
//! and the per-mode extension.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::{pde, FnoNd, PerModeSpectralConv1d};
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::{Session, TfnoError, TurboOptions, Variant};

#[test]
fn fno1d_all_variants_agree_with_host() {
    let mut rng = StdRng::seed_from_u64(31);
    let model = FnoNd::random(&mut rng, 2, 16, 3, 2, &[128], &[32]);
    let x = CTensor::random(&mut rng, &[2, 2, 128]);
    let host = model.forward_host(&x);
    let mut sess = Session::a100();
    for v in Variant::CONCRETE {
        let (got, run) = model.forward_device(&mut sess, v, &TurboOptions::default(), &x);
        let err = rel_l2_error(got.data(), host.data());
        assert!(err < 1e-3, "{v:?}: rel l2 {err}");
        assert!(run.total_us() > 0.0);
    }
}

#[test]
fn fno2d_fused_agrees_with_host() {
    let mut rng = StdRng::seed_from_u64(32);
    let model = FnoNd::random(&mut rng, 1, 8, 1, 2, &[32, 64], &[8, 32]);
    let x = CTensor::random(&mut rng, &[1, 1, 32, 64]);
    let host = model.forward_host(&x);
    let mut sess = Session::a100();
    let (got, run) =
        model.forward_device(&mut sess, Variant::FullyFused, &TurboOptions::default(), &x);
    let err = rel_l2_error(got.data(), host.data());
    assert!(err < 1e-3, "rel l2 {err}");
    // 2 layers x 3 kernels (fused middle + two x-stage kernels)
    assert_eq!(run.kernel_count(), 6);
}

/// Regression: the typed model and layer forwards panicked when a request
/// failed admission (here an explicit fused variant on a shape whose
/// innermost retained modes, 16, do not fill a 32-row warp tile). At ranks
/// 1-3 they return `Validation`, hold no lease afterwards, and the session
/// then serves a `TurboBest` forward of the same model.
#[test]
fn typed_forwards_return_validation_errors() {
    let cases: [(&[usize], &[usize]); 3] = [
        (&[64], &[16]),
        (&[8, 32], &[4, 16]),
        (&[4, 8, 32], &[2, 4, 16]),
    ];
    let opts = TurboOptions::default();
    for (dims, modes) in cases {
        let mut rng = StdRng::seed_from_u64(36);
        let model = FnoNd::random(&mut rng, 2, 4, 1, 2, dims, modes);
        let input = |rng: &mut StdRng, ch: usize| {
            let mut shape = vec![1, ch];
            shape.extend_from_slice(dims);
            CTensor::random(rng, &shape)
        };
        let x = input(&mut rng, 2);
        let h = input(&mut rng, 4);
        let mut sess = Session::a100();

        let err = model
            .try_forward_device(&mut sess, Variant::FullyFused, &opts, &x)
            .unwrap_err();
        assert!(
            matches!(err, TfnoError::Validation(_)),
            "{dims:?} model: {err}"
        );
        let err = model.layers[0]
            .try_forward_device(&mut sess, Variant::FullyFused, &opts, &h)
            .unwrap_err();
        assert!(
            matches!(err, TfnoError::Validation(_)),
            "{dims:?} layer: {err}"
        );
        assert_eq!(
            sess.pool_stats().leased,
            0,
            "{dims:?}: a rejected forward leaked leases"
        );

        let (got, _) = model
            .try_forward_device(&mut sess, Variant::TurboBest, &opts, &x)
            .expect("TurboBest forward after a rejection");
        let err = rel_l2_error(got.data(), model.forward_host(&x).data());
        assert!(err < 1e-3, "{dims:?}: rel l2 {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The lockstep batch queue (stacked spectral launches per layer)
    /// reproduces each solo forward bitwise, for any queue length.
    #[test]
    fn prop_batch_forward_matches_solo_forwards(
        seed in 0u64..1000,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = FnoNd::random(&mut rng, 1, 8, 1, 2, &[128], &[32]);
        let xs: Vec<CTensor> = (0..k).map(|_| CTensor::random(&mut rng, &[1, 1, 128])).collect();
        let opts = TurboOptions::default();
        let mut sess = Session::a100();
        let solo: Vec<CTensor> = xs
            .iter()
            .map(|x| model.forward_device(&mut sess, Variant::TurboBest, &opts, x).0)
            .collect();
        let batch = model.forward_device_batch(&mut sess, Variant::TurboBest, &opts, &xs);
        prop_assert_eq!(batch.len(), k);
        for (j, ((got, _), want)) in batch.iter().zip(&solo).enumerate() {
            prop_assert_eq!(got.data(), want.data(), "batched forward {} diverged", j);
        }
        prop_assert_eq!(sess.pool_stats().leased, 0, "batch forward leaked leases");
    }
}

/// The 2D batch path gets one pinned (non-property) equality check — its
/// request shapes exercise the 2D stacking geometry.
#[test]
fn batch_forward_2d_matches_solo_forwards() {
    let mut rng = StdRng::seed_from_u64(77);
    let model = FnoNd::random(&mut rng, 1, 8, 1, 2, &[32, 64], &[8, 32]);
    let xs: Vec<CTensor> = (0..3).map(|_| CTensor::random(&mut rng, &[1, 1, 32, 64])).collect();
    let opts = TurboOptions::default();
    let mut sess = Session::a100();
    let solo: Vec<CTensor> = xs
        .iter()
        .map(|x| model.forward_device(&mut sess, Variant::TurboBest, &opts, x).0)
        .collect();
    let batch = model.forward_device_batch(&mut sess, Variant::TurboBest, &opts, &xs);
    for (j, ((got, _), want)) in batch.iter().zip(&solo).enumerate() {
        assert_eq!(got.data(), want.data(), "2D batched forward {j} diverged");
    }
    assert_eq!(sess.pool_stats().leased, 0);
}

#[test]
fn heat_operator_is_exact_on_analytic_fields() {
    let n = 128;
    let l = 2.0 * std::f64::consts::PI;
    let (nu, t) = (0.1, 0.5);
    let nf = 32;
    let layer = PerModeSpectralConv1d::diagonal(1, n, &pde::heat_multipliers(nf, nu, t, l));

    let mut rng = StdRng::seed_from_u64(33);
    let u0 = pde::random_analytic_field_1d(&mut rng, n, 10, 1.0);
    let x = pde::batch_1d(std::slice::from_ref(&u0));

    let mut sess = Session::a100();
    let (y, run) = layer.forward_device(&mut sess, &x);
    let exact = pde::heat_exact(&u0, nu, t, l);
    let err = rel_l2_error(&y.data()[..n], &exact);
    assert!(err < 1e-4, "heat operator error {err}");
    assert_eq!(run.kernel_count(), 3);
}

#[test]
fn permode_reduces_to_shared_weights() {
    use tfno_model::SpectralConvNd;
    use tfno_num::C32;
    let mut rng = StdRng::seed_from_u64(34);
    let shared = SpectralConvNd::random(&mut rng, 6, 6, &[64], &[32]);
    let mut w = CTensor::zeros(&[32, 6, 6]);
    for f in 0..32 {
        for i in 0..6 {
            for o in 0..6 {
                w.set(&[f, i, o], shared.weight.get(&[i, o]));
            }
        }
    }
    let pm = PerModeSpectralConv1d::new(6, 6, 64, 32, w);
    let x = CTensor::random(&mut rng, &[2, 6, 64]);

    // device paths of both layers must agree (and can share one session)
    let mut sess = Session::a100();
    let (y_shared, _) =
        shared.forward_device(&mut sess, Variant::FullyFused, &TurboOptions::default(), &x);
    let (y_pm, _) = pm.forward_device(&mut sess, &x);
    let err = rel_l2_error(y_pm.data(), y_shared.data());
    assert!(err < 1e-4, "per-mode vs shared: {err}");
    // and the outputs must be non-trivial
    assert!(y_pm.data().iter().any(|c| c.abs() > 1e-6));
    let _ = C32::ZERO;
}

#[test]
fn spectral_layer_is_linear() {
    // FNO spectral conv is linear: f(a*x1 + x2) == a*f(x1) + f(x2).
    use tfno_model::SpectralConvNd;
    use tfno_num::C32;
    let mut rng = StdRng::seed_from_u64(35);
    let layer = SpectralConvNd::random(&mut rng, 4, 4, &[64], &[16]);
    let x1 = CTensor::random(&mut rng, &[1, 4, 64]);
    let x2 = CTensor::random(&mut rng, &[1, 4, 64]);
    let a = C32::new(0.5, -1.5);

    let combo_data: Vec<C32> = x1
        .data()
        .iter()
        .zip(x2.data())
        .map(|(p, q)| a * *p + *q)
        .collect();
    let combo = CTensor::from_vec(combo_data, &[1, 4, 64]);

    let y1 = layer.forward_host(&x1);
    let y2 = layer.forward_host(&x2);
    let yc = layer.forward_host(&combo);
    let want: Vec<C32> = y1
        .data()
        .iter()
        .zip(y2.data())
        .map(|(p, q)| a * *p + *q)
        .collect();
    let err = rel_l2_error(yc.data(), &want);
    assert!(err < 1e-4, "linearity violated: {err}");
}

/// FNV-1a over the bit patterns of `out`, as `tests/rank_equivalence.rs`
/// hashes launch outputs.
fn bits_hash(out: &[tfno_num::C32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for bits in out.iter().flat_map(|v| [v.re.to_bits(), v.im.to_bits()]) {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Output bits of `forward_device` (`TurboBest`) and `forward_host` at
/// each fnobench geometry: rollout-3d's rank-3 model, batch-2d's rank-2
/// model at batch 8, a rank-1 `(n 128, nf 32)` serving model, and the
/// rank-2 model again on inputs scaled by 40, so that large activations
/// reach GELU. Any change to a host stage (lift, bypass, `add_gelu`,
/// projection) or a launch that moves a bit fails here.
#[test]
fn model_output_bits_are_pinned_at_the_benchmark_geometries() {
    #[allow(clippy::type_complexity)]
    let cases: [(&[usize], &[usize], [usize; 5], f32, (u64, u64)); 4] = [
        // dims, modes, [in_ch, width, out_ch, layers, batch], input scale
        (
            &[8, 16, 32],
            &[4, 8, 32],
            [2, 4, 2, 4, 1],
            1.0,
            (0xcba362a4ca4b1d6d, 0x80cbd5575771c736),
        ),
        (
            &[16, 32],
            &[8, 32],
            [3, 8, 1, 4, 8],
            1.0,
            (0xedd4f37f32a5a966, 0xa3791340ed5f350f),
        ),
        (
            &[128],
            &[32],
            [1, 16, 1, 1, 1],
            1.0,
            (0x276c9fc596a480f1, 0x276c9fc596a480f1),
        ),
        (
            &[16, 32],
            &[8, 32],
            [3, 8, 1, 4, 8],
            40.0,
            (0xe8c7c1736a59b0e4, 0xe20b3c560e5839e7),
        ),
    ];
    let mut got = Vec::new();
    for (dims, modes, [in_ch, width, out_ch, layers, batch], scale, _) in cases {
        let mut rng = StdRng::seed_from_u64(38);
        let model = FnoNd::random(&mut rng, in_ch, width, out_ch, layers, dims, modes);
        let mut shape = vec![batch, in_ch];
        shape.extend_from_slice(dims);
        let x = CTensor::random(&mut rng, &shape);
        let x = CTensor::from_vec(x.data().iter().map(|v| v.scale(scale)).collect(), &shape);
        let mut sess = Session::a100();
        let (dev, _) =
            model.forward_device(&mut sess, Variant::TurboBest, &TurboOptions::default(), &x);
        got.push((
            bits_hash(dev.data()),
            bits_hash(model.forward_host(&x).data()),
        ));
    }
    let want: Vec<(u64, u64)> = cases.iter().map(|c| c.4).collect();
    assert_eq!(got, want);
}
