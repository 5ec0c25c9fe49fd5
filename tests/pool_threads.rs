//! The worker pool's thread contract: forwards start the pool's threads
//! once, on first use, and no more after that; every thread they add is
//! one of the pool's own (`tfno-pool-*`); and with one worker configured
//! (`TFNO_THREADS=1`) a default session starts no thread at all.
//!
//! This binary holds a single test, so no concurrently running test
//! changes the process's thread count while it is read. CI also runs it
//! under `TFNO_THREADS=1`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tfno_gpu_sim::configured_workers;
use tfno_model::FnoNd;
use tfno_num::CTensor;
use turbofno::{Session, SimBackend, TurboOptions, Variant};

/// The name (`comm`) of every thread of this process, sorted (Linux only;
/// `None` elsewhere).
fn thread_names() -> Option<Vec<String>> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .map(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .map(|comm| comm.trim_end().to_string())
                .unwrap_or_default()
        })
        .collect();
    names.sort();
    Some(names)
}

/// Names in `after` that `before` does not account for (multiset
/// difference).
fn added(before: &[String], after: &[String]) -> Vec<String> {
    let mut left = before.to_vec();
    after
        .iter()
        .filter(|name| match left.iter().position(|b| b == *name) {
            Some(i) => {
                left.swap_remove(i);
                false
            }
            None => true,
        })
        .cloned()
        .collect()
}

/// Every host fan-out runs in these forwards: the executor and the
/// journal apply on every launch, the `TurboBest` planner on the first,
/// and `pointwise` and `add_gelu` in every layer.
#[test]
fn forwards_start_the_pool_once_and_nothing_else() {
    let Some(before) = thread_names() else {
        return;
    };
    let parallel = configured_workers() > 1;
    let mut sess = if parallel {
        Session::new(SimBackend::a100().with_workers(3))
    } else {
        Session::new(SimBackend::a100())
    };
    let mut rng = StdRng::seed_from_u64(28);
    let model = FnoNd::random(&mut rng, 1, 8, 1, 2, &[32, 64], &[8, 32]);
    let x = CTensor::random(&mut rng, &[1, 1, 32, 64]);
    let opts = TurboOptions::default();
    let (first, _) = model.forward_device(&mut sess, Variant::TurboBest, &opts, &x);

    let after_first = thread_names().expect("/proc/self/task was readable before");
    let started = added(&before, &after_first);
    if parallel {
        assert!(
            !started.is_empty(),
            "a 3-worker session ran without the pool"
        );
        assert!(
            started.iter().all(|name| name.starts_with("tfno-pool-")),
            "the first forward started threads that are not the pool's: {started:?}"
        );
    } else {
        assert!(
            started.is_empty(),
            "one configured worker, yet threads started: {started:?}"
        );
    }

    for i in 1..=20 {
        let (y, _) = model.forward_device(&mut sess, Variant::TurboBest, &opts, &x);
        assert_eq!(y.data(), first.data(), "forward {i} changed its output");
        let now = thread_names().expect("/proc/self/task was readable before");
        assert_eq!(
            now.len(),
            after_first.len(),
            "forward {i} changed the thread count: {:?}",
            added(&after_first, &now)
        );
    }
}
