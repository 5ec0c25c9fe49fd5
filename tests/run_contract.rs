//! The run contract: `Session::run` does its work on the caller's thread
//! and leaves no thread behind.
//!
//! This binary holds a single test, so no concurrently running test
//! changes the process's thread count while it is read. CI also runs it
//! under `TFNO_THREADS=1`, where every host-parallel loop is serial.

use std::time::{Duration, Instant};

use tfno_num::C32;
use turbofno::{LayerSpec, Session, Variant};

fn seeded(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| {
            C32::new(
                ((i as f32) * 0.131 + seed).sin(),
                ((i as f32) * 0.229 - seed).cos(),
            )
        })
        .collect()
}

/// Entries of `/proc/self/task` (Linux only; `None` elsewhere).
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// A second `run` of a spec leaves the process with as many threads as
/// before, writes the first run's output and returns its records.
#[test]
fn run_leaves_no_thread_behind() {
    let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y_first = sess.alloc("y_first", spec.output_len());
    let y_second = sess.alloc("y_second", spec.output_len());
    sess.upload(x, &seeded(spec.input_len(), 0.4));
    sess.upload(w, &seeded(spec.weight_len(), 0.7));
    let first = sess.run(&spec, x, w, y_first);
    let want = sess.download(y_first);

    let before = live_threads();
    let second = sess.run(&spec, x, w, y_second);
    assert_eq!(sess.download(y_second), want, "the output is written when run returns");

    // Pool threads start on first use (here during the first run, so
    // `before` counts them) and never exit; a run of the same spec starts
    // none. An exited thread can stay listed for a moment, so only a
    // thread that is still alive keeps the count up past the deadline.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_threads(), before, "run left a thread behind");

    assert_eq!(second.launches.len(), first.launches.len());
    for (got, want) in second.launches.iter().zip(&first.launches) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.dims_grid, want.dims_grid);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.time_us.to_bits(), want.time_us.to_bits());
    }
}
