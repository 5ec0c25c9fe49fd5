//! Wave rollout: autoregressive inference on the rank-3 spectral path —
//! a 3D spectral surrogate stepped in time, each step's output fed back
//! as the next step's input through the async `submit`/`finish` API.
//!
//! ```text
//! cargo run --release --example wave_rollout
//! ```
//!
//! This is the serving pattern FNO surrogates run in production: one
//! learned operator applied T times to its own output. The spec is
//! identical every step, so after the cold first step the session's
//! planner answers from its cache and the buffer pool recycles the same
//! leases: a warm step plans nothing and allocates nothing. The device
//! trajectory must stay within float tolerance of the host-reference
//! trajectory at every step.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_model::SpectralConvNd;
use tfno_num::error::rel_l2_error;
use tfno_num::CTensor;
use turbofno::Variant;

fn main() {
    // A 3D wave-field surrogate: 4 channels on an 8x16x32 grid, keeping
    // (4, 8, 32) modes — the innermost count is a multiple of the fused
    // kernels' warp M-tile, so the planner may pick any fusion level.
    let (batch, width) = (1usize, 4usize);
    let (nx, ny, nz) = (8usize, 16usize, 32usize);
    let (nfx, nfy, nfz) = (4usize, 8usize, 32usize);
    let steps = 6usize;

    let mut rng = StdRng::seed_from_u64(2026);
    let op = SpectralConvNd::random(&mut rng, width, width, &[nx, ny, nz], &[nfx, nfy, nfz]);
    let x0 = CTensor::random(&mut rng, &[batch, width, nx, ny, nz]);

    println!("wave rollout: [batch={batch}, k={width}, {nx}x{ny}x{nz}], modes ({nfx},{nfy},{nfz})");
    println!("{steps} autoregressive steps, device (TurboBest) vs host reference\n");

    let mut sess = turbofno::Session::a100();
    let opts = Default::default();

    println!(
        "{:<6} {:>9} {:>9} {:>12} {:>12}",
        "step", "kernels", "time(us)", "field l2", "rel L2 err"
    );
    let mut host = x0.clone();
    let mut dev = x0;
    // (pool misses, simulated planning launches) after the cold step.
    let mut cold = (0, 0);
    for step in 0..steps {
        // Issue the device step, overlap the host-reference step with it,
        // then finish and swap the output in as the next input.
        let pending = op.submit_device(&mut sess, Variant::TurboBest, &opts, &dev);
        host = op.forward_host(&host);
        let (y, run) = pending.finish(&mut sess);
        dev = y;

        let err = rel_l2_error(dev.data(), host.data());
        let energy: f32 = dev.data().iter().map(|c| c.norm_sqr()).sum::<f32>().sqrt();
        println!(
            "{:<6} {:>9} {:>9.1} {:>12.4} {:>12.2e}",
            step,
            run.kernel_count(),
            run.total_us(),
            energy,
            err
        );
        assert!(err < 1e-3, "step {step}: device trajectory diverged ({err})");
        if step == 0 {
            cold = (
                sess.pool_stats().misses,
                sess.planner_stats().simulated_launches,
            );
        }
    }

    let (pool, plans) = (sess.pool_stats(), sess.planner_stats());
    println!(
        "\nsession caches: pool {} hits / {} misses, planner {} hits / {} misses",
        pool.hits, pool.misses, plans.hits, plans.misses
    );
    assert_eq!(
        pool.misses, cold.0,
        "warm rollout steps must allocate nothing new"
    );
    assert_eq!(
        plans.simulated_launches, cold.1,
        "warm rollout steps must plan nothing"
    );
    assert!(pool.hits >= 1, "warm rollout steps must recycle pooled buffers");

    println!("\nEvery warm step reused the cold step's plan and pooled buffers;");
    println!("the {steps}-step device trajectory tracks the host reference.");
}
