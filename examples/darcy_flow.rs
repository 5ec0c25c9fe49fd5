//! Darcy-flow-style 2D workload sweep: every pipeline variant on a
//! coefficient-field input, across batch sizes.
//!
//! ```text
//! cargo run --release --example darcy_flow
//! ```
//!
//! Uses the Gaussian-random-field generator that standard Darcy benchmarks
//! use for permeability fields, runs a single wide Fourier layer (the
//! shape the paper evaluates), and prints the variant comparison across
//! batch sizes — a miniature of the paper's Fig. 17/18 sweeps with real
//! (functional) execution rather than the analytical model.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::{pde, SpectralConvNd};
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::{Session, TurboOptions, Variant};

fn main() {
    let (nx, ny) = (64usize, 64usize);
    let (nfx, nfy) = (16usize, 32usize);
    let width = 32usize;

    let mut rng = StdRng::seed_from_u64(11);
    let layer = SpectralConvNd::random(&mut rng, width, width, &[nx, ny], &[nfx, nfy]);

    // One session for the whole sweep: every variant of every batch size
    // shares the planner cache and the buffer pool.
    let mut sess = Session::a100();

    println!("Darcy-style spectral layer: width {width}, grid {nx}x{ny}, modes {nfx}x{nfy}\n");
    println!(
        "{:<8} {:<24} {:>9} {:>10} {:>12}",
        "batch", "variant", "kernels", "time(us)", "vs PyTorch"
    );

    for batch in [1usize, 2, 4] {
        // Build a batch of permeability-like fields lifted to `width`
        // channels by replication + noise.
        let mut data = Vec::with_capacity(batch * width * nx * ny);
        for _ in 0..batch {
            let base = pde::gaussian_random_field_2d(&mut rng, nx, ny, 3.0, 5.0);
            for c in 0..width {
                let scale = 1.0 + 0.05 * c as f32;
                data.extend(base.iter().map(|v| v.scale(scale)));
            }
        }
        let x = CTensor::from_vec(data, &[batch, width, nx, ny]);

        let mut reference: Option<CTensor> = None;
        let mut pt_us = None;
        for variant in [
            Variant::Pytorch,
            Variant::FftOpt,
            Variant::FusedFftGemm,
            Variant::FusedGemmIfft,
            Variant::FullyFused,
        ] {
            let (y, run) = layer.forward_device(&mut sess, variant, &TurboOptions::default(), &x);
            match &reference {
                None => reference = Some(y),
                Some(r) => {
                    let err = rel_l2_error(y.data(), r.data());
                    assert!(err < 1e-3, "{variant:?} diverged at batch {batch}: {err}");
                }
            }
            let t = run.total_us();
            let pt = *pt_us.get_or_insert(t);
            println!(
                "{batch:<8} {:<24} {:>9} {:>10.1} {:>11.1}%",
                variant.label(),
                run.kernel_count(),
                t,
                100.0 * pt / t
            );
        }
        println!();
    }
    let pool = sess.pool_stats();
    println!(
        "all variants produced identical fields (checked per batch size); \
         pooled buffers recycled {} times across the sweep",
        pool.hits
    );
}
