//! A long-lived session has bounded memory: once a layer is warm,
//! repeating it allocates no device buffer, for every concrete variant.
//!
//! The simulated global memory never frees, so any per-call allocation
//! grows the process without bound. The PyTorch baseline leases its
//! `2r + 2` temporaries from the session pool like every Turbo variant, so
//! a warm call takes all of them (and the three operand leases) as pool
//! hits.
//!
//! This file holds a single test so that the resident-set reading is not
//! shared with other tests running on parallel threads. It runs on the
//! release device, whose unmetered blocks keep a debug run short; the
//! pool and the engine are the same on both backends.

use turbofno_suite::core::SpectralShape;
use turbofno_suite::num::C32;
use turbofno_suite::{LayerSpec, NativeBackend, Session, Variant};

/// Calls that warm the planner, the pool and the process-wide caches.
const WARMUP: usize = 2;
/// Warm calls measured per variant.
const CALLS: usize = 16;
/// Allowed resident-set growth over the warm calls of one variant. A
/// baseline that allocated its four temporaries per call (two of
/// `8 * 16 * 256` and two of `8 * 16 * 32` complex values) would grow by
/// 576 KiB a call, 9 MiB over `CALLS`: six times this bound.
const RSS_BOUND_KB: u64 = 1536;

/// The process's resident set in KiB (`VmRSS` in `/proc/self/status`).
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmRSS in kB")
}

fn values(len: usize, seed: f32) -> Vec<C32> {
    (0..len)
        .map(|i| C32::new((i as f32 * 0.13 + seed).sin(), (i as f32 * 0.29 - seed).cos()))
        .collect()
}

/// One serving-style call: lease the operands, run the layer, download
/// the output, return the leases.
fn call(sess: &mut Session<NativeBackend>, spec: &LayerSpec, x: &[C32], w: &[C32]) -> Vec<C32> {
    let xb = sess.acquire(spec.input_len());
    let wb = sess.acquire(spec.weight_len());
    let yb = sess.acquire(spec.output_len());
    sess.upload(xb, x);
    sess.upload(wb, w);
    sess.run(spec, xb, wb, yb);
    let y = sess.download(yb);
    for id in [xb, wb, yb] {
        sess.release(id);
    }
    y
}

#[test]
fn warm_calls_allocate_nothing_for_every_variant() {
    let shape = SpectralShape::d1(8, 16, 16, 256).with_modes(&[32]);
    let x = values(shape.input_len(), 0.4);
    let w = values(shape.weight_len(), 0.8);
    let mut sess = Session::new(NativeBackend::a100());
    for v in Variant::CONCRETE {
        let spec = LayerSpec::from_shape(shape).variant(v);
        let mut want = Vec::new();
        for _ in 0..WARMUP {
            want = call(&mut sess, &spec, &x, &w);
        }
        let (pool0, rss0) = (sess.pool_stats(), vm_rss_kb());
        for i in 0..CALLS {
            let hits = sess.pool_stats().hits;
            assert_eq!(call(&mut sess, &spec, &x, &w), want, "{v:?}: call {i} changed the output");
            if v == Variant::Pytorch {
                let temporaries = 2 * shape.rank as u64 + 2;
                assert_eq!(
                    sess.pool_stats().hits - hits,
                    temporaries + 3,
                    "{v:?}: a warm call must lease its {temporaries} temporaries and 3 operands \
                     from the pool"
                );
            }
        }
        let (pool1, rss1) = (sess.pool_stats(), vm_rss_kb());
        assert_eq!(pool1.misses, pool0.misses, "{v:?}: a warm call allocated a device buffer");
        assert_eq!(pool1.leased, 0, "{v:?}: a lease outlived its call");
        let grown = rss1.saturating_sub(rss0);
        assert!(
            grown < RSS_BOUND_KB,
            "{v:?}: {CALLS} warm calls grew the resident set by {grown} KiB \
             (bound {RSS_BOUND_KB} KiB)"
        );
    }
}
