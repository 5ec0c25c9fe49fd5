//! Workspace integration tests: every pipeline variant must compute the
//! same Fourier layer as the reference, across a matrix of problem shapes,
//! including property-based random configurations.
//!
//! The reference here is the host Stockham path
//! (`SpectralConvNd::forward_host`, O(N log N)) rather than the naive O(N^2) DFT layer: the
//! host path itself is pinned against `tfno_num::reference` by the
//! `tfno-model` unit tests, and these are the hottest cross-checks in the
//! suite — the swap cuts most of their wall clock at equal coverage.

use proptest::prelude::*;
use tfno_model::SpectralConvNd;
use tfno_num::error::rel_l2_error;
use tfno_num::{C32, CTensor};
use turbofno::{LayerSpec, Session, SpectralShape, Variant};

/// O(N log N) reference layer via the host Stockham path.
fn reference_layer(x: &CTensor, w: &CTensor, p: &SpectralShape) -> CTensor {
    let r = p.rank;
    SpectralConvNd::new(
        p.k_in,
        p.k_out,
        p.dims[..r].to_vec(),
        p.modes[..r].to_vec(),
        w.clone(),
    )
    .forward_host(x)
}

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

fn check_1d(p: &SpectralShape, v: Variant) {
    let mut sess = Session::a100();
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    let xd = rand_vec(p.input_len(), 0.4);
    let wd = rand_vec(p.weight_len(), 0.9);
    sess.upload(x, &xd);
    sess.upload(w, &wd);
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    let xt = CTensor::from_vec(xd, &[p.batch, p.k_in, p.dims[0]]);
    let wt = CTensor::from_vec(wd, &[p.k_in, p.k_out]);
    let want = reference_layer(&xt, &wt, p);
    let got = sess.download(y);
    let err = rel_l2_error(&got, want.data());
    assert!(err < 2e-4, "{v:?} {p:?}: rel l2 {err}");
}

#[test]
fn variant_matrix_1d() {
    // shapes chosen to hit: uneven hidden dims, k tails (k % 8 != 0),
    // partial n-tiles, different mode counts
    let shapes = [
        SpectralShape::d1(1, 8, 8, 64).with_modes(&[32]),
        SpectralShape::d1(3, 12, 20, 128).with_modes(&[32]),
        SpectralShape::d1(2, 9, 16, 128).with_modes(&[64]),
        SpectralShape::d1(2, 33, 40, 64).with_modes(&[32]),
    ];
    for p in &shapes {
        for v in Variant::CONCRETE {
            check_1d(p, v);
        }
    }
}

fn check_2d(p: &SpectralShape, v: Variant) {
    let mut sess = Session::a100();
    let x = sess.alloc("x", p.input_len());
    let w = sess.alloc("w", p.weight_len());
    let y = sess.alloc("y", p.output_len());
    let xd = rand_vec(p.input_len(), 0.2);
    let wd = rand_vec(p.weight_len(), 0.7);
    sess.upload(x, &xd);
    sess.upload(w, &wd);
    sess.run(&LayerSpec::from_shape(*p).variant(v), x, w, y);
    let xt = CTensor::from_vec(xd, &[p.batch, p.k_in, p.dims[0], p.dims[1]]);
    let wt = CTensor::from_vec(wd, &[p.k_in, p.k_out]);
    let want = reference_layer(&xt, &wt, p);
    let got = sess.download(y);
    let err = rel_l2_error(&got, want.data());
    assert!(err < 2e-4, "{v:?} {p:?}: rel l2 {err}");
}

#[test]
fn variant_matrix_2d() {
    let shapes = [
        SpectralShape::d2(1, 8, 8, 32, 64).with_modes(&[8, 32]),
        SpectralShape::d2(2, 10, 12, 32, 32).with_modes(&[16, 32]),
        SpectralShape::d2(1, 17, 8, 64, 64).with_modes(&[8, 32]),
    ];
    for p in &shapes {
        for v in Variant::CONCRETE {
            check_2d(p, v);
        }
    }
}

#[test]
fn turbo_best_equivalence() {
    check_1d(
        &SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]),
        Variant::TurboBest,
    );
    check_2d(
        &SpectralShape::d2(1, 8, 8, 32, 64).with_modes(&[8, 32]),
        Variant::TurboBest,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 1D shapes: fused variants must agree with the reference.
    #[test]
    fn prop_fused_1d_matches_reference(
        batch in 1usize..4,
        k_in in 1usize..24,
        k_out in 1usize..24,
        n_pow in 6u32..8,
        nf_sel in 0usize..2,
    ) {
        let n = 1usize << n_pow;
        let nf = [32usize, 64][nf_sel].min(n);
        let p = SpectralShape::d1(batch, k_in, k_out, n).with_modes(&[nf]);
        check_1d(&p, Variant::FullyFused);
    }

    /// Random 1D shapes through the PyTorch baseline.
    #[test]
    fn prop_pytorch_1d_matches_reference(
        batch in 1usize..4,
        k in 1usize..16,
        n_pow in 5u32..8,
        nf_div in 1usize..4,
    ) {
        let n = 1usize << n_pow;
        let nf = (n / (1 << nf_div)).max(1);
        let p = SpectralShape::d1(batch, k, k, n).with_modes(&[nf]);
        check_1d(&p, Variant::Pytorch);
    }
}
