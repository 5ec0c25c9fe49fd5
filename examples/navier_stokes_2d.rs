//! 2D FNO on a turbulence-like workload (the Navier–Stokes setting that
//! motivates the paper's 2D evaluation).
//!
//! ```text
//! cargo run --release --example navier_stokes_2d
//! ```
//!
//! Builds a multi-layer 2D FNO, feeds it Gaussian-random-field vorticity
//! inputs (the standard FNO-NS input distribution), and compares the
//! baseline and fully fused execution paths: numerics must agree, and the
//! per-stage timing breakdown shows where fusion removes work (the paper's
//! Fig. 1c, in 2D).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::{pde, FnoNd};
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::{Session, TurboOptions, Variant};

fn main() {
    let (nx, ny) = (64usize, 64usize);
    let (nfx, nfy) = (16usize, 32usize);
    let (width, layers, batch) = (16usize, 3usize, 2usize);

    println!("2D FNO: {layers} Fourier layers, width {width}, grid {nx}x{ny}, modes {nfx}x{nfy}");

    let mut rng = StdRng::seed_from_u64(42);
    let model = FnoNd::random(&mut rng, 1, width, 1, layers, &[nx, ny], &[nfx, nfy]);

    // Vorticity-like inputs: power-law Gaussian random fields.
    let mut data = Vec::with_capacity(batch * nx * ny);
    for _ in 0..batch {
        data.extend(pde::gaussian_random_field_2d(&mut rng, nx, ny, 2.5, 3.0));
    }
    let x = CTensor::from_vec(data, &[batch, 1, nx, ny]);

    // Both paths share one session (device + planner + buffer pool).
    let mut sess = Session::a100();
    let (y_pt, run_pt) =
        model.forward_device(&mut sess, Variant::Pytorch, &TurboOptions::default(), &x);
    let (y_tf, run_tf) =
        model.forward_device(&mut sess, Variant::FullyFused, &TurboOptions::default(), &x);

    let err = rel_l2_error(y_tf.data(), y_pt.data());
    assert!(err < 1e-3, "paths diverged: {err}");

    println!("\nper-stage spectral-layer breakdown (all {layers} layers):");
    println!("  PyTorch baseline ({} kernels):", run_pt.kernel_count());
    for l in &run_pt.launches {
        println!("    {:<16} {:>8.1} us", l.name, l.time_us);
    }
    println!("  TurboFNO fully fused ({} kernels):", run_tf.kernel_count());
    for l in &run_tf.launches {
        println!("    {:<28} {:>8.1} us", l.name, l.time_us);
    }
    println!(
        "\nspectral time: baseline {:.1} us vs fused {:.1} us ({:+.1}% speedup); outputs agree (rel L2 {err:.2e})",
        run_pt.total_us(),
        run_tf.total_us(),
        100.0 * (run_pt.total_us() / run_tf.total_us() - 1.0)
    );

    // sanity: the output field should stay bounded and non-trivial
    let energy: f32 = y_tf.data().iter().map(|c| c.norm_sqr()).sum();
    assert!(energy.is_finite() && energy > 0.0);
    println!("output field energy: {energy:.3e}");
}
