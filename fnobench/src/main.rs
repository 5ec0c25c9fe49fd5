//! `fnobench` — the repository's end-to-end FNO inference benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path fnobench/Cargo.toml -- \
//!     --workload rollout-3d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client drives a closed loop of seeded ops (see `workload.rs`)
//! through the public `Session`/`FnoNd` API. With `--trace 0` the run
//! reports the end-to-end metrics: wall-clock throughput and latency on
//! `SimBackend` and `NativeBackend`, modeled device cost per op from the
//! sim's launch records, set-up time and peak memory. With `--trace 1` it
//! records spans around the calls into each layer and reports per-layer
//! self times, session counters and per-stage device cost instead, and
//! writes the spans to `.bench_out/` as Chrome trace-event JSON.
//!
//! Every op is checked: before timing, outputs are held to the host
//! reference (`forward_host`); while timing, each op must reproduce its
//! precomputed device output bitwise. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod counters;
mod ledger;
mod stats;
mod trace;
mod workload;

use counters::{hit_ratio, Counters};
use ledger::{Ledger, Stage};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use tfno_num::error::rel_l2_error;
use tfno_num::C32;
use trace::Tracer;
use turbofno::backend::{DeviceConfig, LaunchRecord};
use turbofno::{
    Backend, LayerSpec, NativeBackend, Planner, Session, SimBackend, SpectralShape, TurboOptions,
    Variant,
};
use workload::{Batch, Rollout, Serve, Workload, VARIANT};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Length of one measured round. Each round runs both sides being
/// compared (sim then native, or untraced then traced, swapping the order
/// every round), so slow phases of a shared host hit both sides alike;
/// throughput is the median over rounds.
const ROUND_SECS: f64 = 1.0;
/// Share of `--seconds` spent on the sim side of the untraced run.
const SIM_SHARE: f64 = 0.6;
/// Relative L2 error allowed against the host reference.
const GATE_TOL: f32 = 1e-4;
/// Latency percentile reported beside the median.
const TAIL_P: f64 = 0.9;
/// Spans written to the Chrome trace file (the rest stay in the metrics).
const TRACE_FILE_SPANS: usize = 20_000;

const USAGE: &str = "usage: fnobench --workload <rollout-3d|serve-varied|batch-2d> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !["rollout-3d", "serve-varied", "batch-2d"].contains(&value.as_str()) {
                    return Err(bad("a known workload"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn json(&self) -> Result<String, String> {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if !x.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", x.name, x.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        ))
    }
}

fn bits_eq(a: &[C32], b: &[C32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

fn sim_session(workers: usize) -> Session<SimBackend> {
    Session::new(SimBackend::a100().with_workers(workers))
}

fn native_session(workers: usize) -> Session<NativeBackend> {
    Session::new(NativeBackend::a100().with_workers(workers))
}

/// One unit's outcome in a stream.
struct Step {
    ops: usize,
    ok: bool,
    launches: Vec<LaunchRecord>,
}

/// A session running a workload's op stream, with the device output of
/// every unit of the cycle as the bitwise reference.
struct Stream<B: Backend> {
    sess: Session<B>,
    refs: Vec<Vec<C32>>,
    j: usize,
    last: Option<Vec<C32>>,
}

impl<B: Backend> Stream<B> {
    /// Run one cold cycle (held to the host reference on the workload's
    /// gated prefix) to record the references, then one warm cycle that
    /// must reproduce them bitwise; the warm cycle's launch records go to
    /// `ledger`.
    fn prepare<W: Workload>(
        mut sess: Session<B>,
        w: &W,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Self, String> {
        let n = w.cycle();
        let mut refs: Vec<Vec<C32>> = Vec::with_capacity(n);
        for j in 0..n {
            let prev = j.checked_sub(1).map(|p| refs[p].as_slice());
            let done = w
                .run(&mut sess, j, prev, None)
                .map_err(|e| format!("{} unit {j} (cold): {e}", W::NAME))?;
            if j < w.gated() {
                let host = w.host(j, prev);
                if host.len() != done.out.len() {
                    return Err(format!(
                        "{} unit {j}: output length differs from host",
                        W::NAME
                    ));
                }
                let err = rel_l2_error(&done.out, &host);
                if err.is_nan() || err > GATE_TOL {
                    return Err(format!(
                        "{} unit {j}: rel L2 {err:.3e} against forward_host exceeds {GATE_TOL:e}",
                        W::NAME
                    ));
                }
            }
            refs.push(done.out);
        }
        let mut stream = Stream {
            sess,
            refs,
            j: 0,
            last: None,
        };
        for j in 0..n {
            let step = stream.step(w, None);
            if !step.ok {
                return Err(format!(
                    "{} unit {j}: warm output differs from cold",
                    W::NAME
                ));
            }
            if let Some(l) = ledger.as_deref_mut() {
                for rec in &step.launches {
                    l.record(rec)?;
                }
            }
        }
        Ok(stream)
    }

    fn step<W: Workload>(&mut self, w: &W, tr: Option<&mut Tracer>) -> Step {
        let j = self.j;
        let ops = w.ops_in(j);
        let prev = if j > 0 { self.last.as_deref() } else { None };
        match w.run(&mut self.sess, j, prev, tr) {
            Ok(done) => {
                let ok = bits_eq(&done.out, &self.refs[j]);
                self.last = Some(done.out);
                self.j = (j + 1) % self.refs.len();
                Step {
                    ops,
                    ok,
                    launches: done.launches,
                }
            }
            Err(e) => {
                eprintln!("fnobench: {} unit {j} failed: {e}", W::NAME);
                self.j = 0;
                self.last = None;
                Step {
                    ops,
                    ok: false,
                    launches: Vec::new(),
                }
            }
        }
    }

    /// Run units for at least `secs` seconds; returns ops per second.
    /// Each op's latency (its unit's wall time) goes to `lat_ms`; with a
    /// tracer, each unit is one root span.
    fn round<W: Workload>(
        &mut self,
        w: &W,
        secs: f64,
        tally: &mut Tally,
        lat_ms: &mut Vec<f64>,
        mut tr: Option<&mut Tracer>,
    ) -> f64 {
        let start = Instant::now();
        let mut ops = 0;
        loop {
            let t0 = Instant::now();
            let step = match tr.as_deref_mut() {
                Some(t) => {
                    let id = t.begin(W::UNIT);
                    let step = self.step(w, Some(&mut *t));
                    t.end(id);
                    step
                }
                None => self.step(w, None),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            lat_ms.extend(std::iter::repeat_n(ms, step.ops));
            ops += step.ops;
            tally.attempted += step.ops as u64;
            if !step.ok {
                tally.failed += step.ops as u64;
            }
            if start.elapsed().as_secs_f64() >= secs {
                return ops as f64 / start.elapsed().as_secs_f64();
            }
        }
    }
}

/// Rounds in a run of `seconds` (at least two, so each side goes first
/// once).
fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_SECS).round() as usize).max(2)
}

/// Ops in one cycle.
fn cycle_ops<W: Workload>(w: &W) -> usize {
    (0..w.cycle()).map(|j| w.ops_in(j)).sum()
}

fn distinct_shapes<W: Workload>(w: &W) -> Vec<SpectralShape> {
    let mut shapes: Vec<SpectralShape> = Vec::new();
    for j in 0..w.cycle() {
        for s in w.layer_shapes(j) {
            if !shapes.contains(&s) {
                shapes.push(s);
            }
        }
    }
    shapes
}

/// Modeled time of the cycle's layer shapes under the PyTorch chain over
/// the same under `TurboBest`, both from `Session::measure`.
fn modeled_speedup<W: Workload>(w: &W, sess: &mut Session<SimBackend>) -> f64 {
    let mut memo: HashMap<SpectralShape, (f64, f64)> = HashMap::new();
    let (mut pytorch, mut turbo) = (0.0, 0.0);
    for j in 0..w.cycle() {
        for s in w.layer_shapes(j) {
            let (p, t) = *memo.entry(s).or_insert_with(|| {
                let spec = LayerSpec::from_shape(s);
                (
                    sess.measure(&spec.variant(Variant::Pytorch)).total_us(),
                    sess.measure(&spec.variant(VARIANT)).total_us(),
                )
            });
            pytorch += p;
            turbo += t;
        }
    }
    pytorch / turbo
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    if let Some(rev) = read(r) {
        return rev.trim().into();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The untraced run: every end-to-end metric.
fn end_to_end<W: Workload>(args: &Args, workers: usize) -> Result<Report, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = W::build(args.seed);
        let mut sess = sim_session(workers);
        w.run(&mut sess, 0, None, None)
            .map_err(|e| format!("{} first op: {e}", W::NAME))?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    let w = W::build(args.seed);
    let mut ledger = Ledger::default();
    let mut sim = Stream::prepare(sim_session(workers), &w, Some(&mut ledger))?;
    let mut native = Stream::prepare(native_session(workers), &w, None)?;

    let mut tally = Tally::default();
    let (mut sim_lat, mut native_lat) = (Vec::new(), Vec::new());
    let (mut sim_rate, mut native_rate) = (Vec::new(), Vec::new());
    let rounds = rounds(args.seconds);
    let slice = args.seconds / rounds as f64;
    for r in 0..rounds {
        let sim_secs = slice * SIM_SHARE;
        let native_secs = slice * (1.0 - SIM_SHARE);
        if r % 2 == 0 {
            sim_rate.push(sim.round(&w, sim_secs, &mut tally, &mut sim_lat, None));
            native_rate.push(native.round(&w, native_secs, &mut tally, &mut native_lat, None));
        } else {
            native_rate.push(native.round(&w, native_secs, &mut tally, &mut native_lat, None));
            sim_rate.push(sim.round(&w, sim_secs, &mut tally, &mut sim_lat, None));
        }
    }
    let min_samples = stats::min_samples_for(TAIL_P);
    while sim_lat.len() < min_samples {
        sim.round(&w, 0.0, &mut tally, &mut sim_lat, None);
    }

    let ops = cycle_ops(&w) as f64;
    let total = ledger.total();
    let speedup = modeled_speedup(&w, &mut sim.sess);
    let p50 = stats::median(&sim_lat);
    let p90 = stats::percentile(&sim_lat, TAIL_P).ok_or("too few latency samples for p90")?;
    let failed_frac = tally.failed as f64 / tally.attempted as f64;
    eprintln!(
        "fnobench: {} sim latency over {} ops: p50 {p50:.4} ms, p90 {p90:.4} ms; \
         native p50 {:.4} ms over {} ops; failed_frac {failed_frac}",
        W::NAME,
        sim_lat.len(),
        stats::median(&native_lat),
        native_lat.len(),
    );

    let mut rep = Report {
        tally,
        metrics: Vec::new(),
    };
    rep.push("ops_per_s", "1/s", stats::median(&sim_rate));
    rep.push("op_ms_p50", "ms", p50);
    rep.push("op_ms_p90", "ms", p90);
    rep.push("native_ops_per_s", "1/s", stats::median(&native_rate));
    rep.push(
        "modeled_device_us_per_op",
        "modeled_us",
        total.modeled_us / ops,
    );
    rep.push("modeled_speedup_vs_pytorch", "x", speedup);
    rep.push("launches_per_op", "count", total.launches as f64 / ops);
    rep.push(
        "modeled_global_mb_per_op",
        "MB",
        total.global_bytes as f64 / 1e6 / ops,
    );
    rep.push("setup_s", "s", stats::median(&setup));
    rep.push("peak_rss_mb", "MB", peak_rss_mb()?);
    Ok(rep)
}

/// The traced run: per-layer metrics.
fn traced<W: Workload>(args: &Args, workers: usize) -> Result<Report, String> {
    let w = W::build(args.seed);
    let mut ledger = Ledger::default();
    let mut sim = Stream::prepare(sim_session(workers), &w, Some(&mut ledger))?;

    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut counts = Counters::default();
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let (mut plain_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let rounds = rounds(args.seconds);
    let slice = args.seconds / rounds as f64 / 2.0;
    for r in 0..rounds {
        for traced_side in [r % 2 == 1, r % 2 == 0] {
            if traced_side {
                let before = counters::read(&mut sim.sess);
                traced_rate.push(sim.round(
                    &w,
                    slice,
                    &mut tally,
                    &mut traced_lat,
                    Some(&mut tracer),
                ));
                counts = counts.plus(&counters::read(&mut sim.sess).since(&before));
            } else {
                plain_rate.push(sim.round(&w, slice, &mut tally, &mut plain_lat, None));
            }
        }
    }

    let spans = tracer.spans();
    let traced_ops = traced_lat.len() as f64;
    let self_ns = trace::self_ns_by_name(spans);
    let ms_per_op = |names: &[&str]| {
        names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
            / traced_ops
    };
    let unit_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    // From staging the spectral operands to reading the result back: the
    // FNO `submit`..`finish` pair, the serving `stage`..`collect` pair.
    let in_flight_ns =
        trace::between_ns(spans, "submit", "finish") + trace::between_ns(spans, "stage", "collect");

    let opts = TurboOptions::default();
    let cfg = DeviceConfig::a100();
    let plan_ms: Vec<f64> = distinct_shapes(&w)
        .iter()
        .map(|s| {
            let t0 = Instant::now();
            std::hint::black_box(Planner::pick_best_shape(&cfg, s, &opts));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let path = format!(".bench_out/{}-seed{}.trace.json", W::NAME, args.seed);
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("create .bench_out: {e}"))?;
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?,
    );
    tracer
        .write_chrome(&mut file, TRACE_FILE_SPANS)
        .and_then(|()| std::io::Write::flush(&mut file))
        .map_err(|e| format!("write {path}: {e}"))?;

    let plain = stats::median(&plain_rate);
    let traced = stats::median(&traced_rate);
    eprintln!(
        "fnobench: {} traced {} ops ({} spans, first {} in {path}); \
         untraced {plain:.2} ops/s, traced {traced:.2} ops/s",
        W::NAME,
        traced_ops,
        spans.len(),
        spans.len().min(TRACE_FILE_SPANS),
    );

    let ops = cycle_ops(&w) as f64;
    let mut rep = Report {
        tally,
        metrics: Vec::new(),
    };
    rep.push("fno.lift_ms", "ms", ms_per_op(&["lift"]));
    rep.push("fno.bypass_ms", "ms", ms_per_op(&["bypass"]));
    rep.push("fno.add_gelu_ms", "ms", ms_per_op(&["add_gelu"]));
    rep.push("fno.proj_ms", "ms", ms_per_op(&["proj"]));
    rep.push(
        "fno.wait_ms",
        "ms",
        ms_per_op(&["finish", "wait_many", "collect"]),
    );
    rep.push(
        "fno.spectral_share",
        "ratio",
        in_flight_ns as f64 / unit_ns as f64,
    );
    rep.push(
        "session.submit_ms",
        "ms",
        ms_per_op(&["submit", "stage", "submit_many"]),
    );
    rep.push(
        "session.replay_hit_ratio",
        "ratio",
        hit_ratio(counts.replay_hits, counts.replay_misses),
    );
    rep.push(
        "session.pool_hit_ratio",
        "ratio",
        hit_ratio(counts.pool_hits, counts.pool_misses),
    );
    rep.push(
        "session.dispatch_jobs",
        "count",
        counts.dispatch_jobs as f64 / traced_ops,
    );
    rep.push(
        "session.max_in_flight",
        "count",
        counts.max_in_flight as f64,
    );
    rep.push(
        "session.planner_hit_ratio",
        "ratio",
        hit_ratio(counts.planner_hits, counts.planner_misses),
    );
    rep.push(
        "session.planner_cold_evals",
        "count",
        counts.planner_misses as f64,
    );
    rep.push("planner.cold_plan_ms", "ms", stats::median(&plan_ms));
    rep.push("session.retries", "count", counts.retries as f64);
    for s in Stage::ALL {
        let t = ledger.stage(s);
        let name = s.name();
        rep.push(
            format!("device.{name}.launches"),
            "count",
            t.launches as f64 / ops,
        );
        rep.push(
            format!("device.{name}.modeled_us"),
            "modeled_us",
            t.modeled_us / ops,
        );
        rep.push(
            format!("device.{name}.global_mb"),
            "MB",
            t.global_bytes as f64 / 1e6 / ops,
        );
        rep.push(
            format!("device.{name}.gflop"),
            "GFLOP",
            t.flops as f64 / 1e9 / ops,
        );
        rep.push(
            format!("device.{name}.bank_replay"),
            "ratio",
            t.bank_replay(),
        );
    }
    rep.push("trace.overhead_pct", "%", 100.0 * (plain - traced) / plain);
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fnobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc;
    println!(
        "{{\"fnobench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"sim_workers\": {workers}, \"native_workers\": {workers}, \
         \"git_rev\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    let report = match (args.workload.as_str(), args.trace) {
        ("rollout-3d", false) => end_to_end::<Rollout>(&args, workers),
        ("rollout-3d", true) => traced::<Rollout>(&args, workers),
        ("serve-varied", false) => end_to_end::<Serve>(&args, workers),
        ("serve-varied", true) => traced::<Serve>(&args, workers),
        ("batch-2d", false) => end_to_end::<Batch>(&args, workers),
        ("batch-2d", true) => traced::<Batch>(&args, workers),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    match report.and_then(|r| r.json().map(|j| (r.correct(), j))) {
        Ok((correct, json)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fnobench: {e}");
            ExitCode::FAILURE
        }
    }
}
