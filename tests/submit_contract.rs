//! The submit contract: `Session::submit` runs its work on the caller's
//! thread before it returns, and leaves no thread behind.
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

/// Right after `submit`, before any wait, the output already holds what
/// `run` writes; submit + wait leaves the process with as many threads as
/// before; and the wait hands back the records `run` returns.
#[test]
fn submit_runs_on_the_callers_thread() {
    let spec = LayerSpec::d1(2, 8, 8, 128).modes(32).variant(Variant::FftOpt);
    let mut sess = Session::a100();
    let x = sess.alloc("x", spec.input_len());
    let w = sess.alloc("w", spec.weight_len());
    let y_run = sess.alloc("y_run", spec.output_len());
    let y_submit = sess.alloc("y_submit", spec.output_len());
    sess.upload(x, &seeded(spec.input_len(), 0.4));
    sess.upload(w, &seeded(spec.weight_len(), 0.7));
    let run = sess.run(&spec, x, w, y_run);
    let want = sess.download(y_run);

    let before = live_threads();
    let handle = sess.submit(&spec, x, w, y_submit);
    assert_eq!(sess.download(y_submit), want, "the output is written before the wait");
    let waited = sess.wait(handle);

    // Pool threads start on first use (here during the `run` above, so
    // `before` counts them) and never exit; a submit of the same spec
    // starts none. An exited thread can stay listed for a moment, so only
    // a thread that is still alive keeps the count up past the deadline.
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_threads(), before, "submit + wait left a thread behind");

    assert_eq!(waited.launches.len(), run.launches.len());
    for (got, want) in waited.launches.iter().zip(&run.launches) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.dims_grid, want.dims_grid);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.time_us.to_bits(), want.time_us.to_bits());
    }
}
