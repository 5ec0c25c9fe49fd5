//! The three seeded inference workloads.
//!
//! Each workload is a repeating cycle of *units*: one rollout step, one
//! served queue, or one batch forward. A unit holds one or more *ops*
//! (a rollout step, a served request, a batch forward), the unit every
//! end-to-end metric is normalised by. Everything runs through the public
//! `Session`/`FnoNd` API with the planner's `TurboBest` choice.
//!
//! * `rollout-3d` — an autoregressive rank-3 `FnoNd` on the
//!   `wave_rollout` geometry. Every warm step replays the recorded launch
//!   sequence with recycled leases: it exercises the warm path (replay,
//!   dispatch, the fused kernel) and leaves the planner and stacking idle.
//! * `serve-varied` — queues of 1–8 batch-1 requests, each a one-layer
//!   FNO over one of 40 rank-1/2 shapes, more than the replay cache holds:
//!   it exercises the cold serving path (planner lookups, pool churn,
//!   kernel assembly, gather/scatter stacking) and bypasses replay.
//! * `batch-2d` — a fat-batch rank-2 `FnoNd` forward, tens of ms per op on
//!   the sim: the compute-bound regime where kernel bodies, the executor
//!   and the host pointwise work dominate and replay/planning amortise.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tfno_model::{add_gelu, pointwise, FnoNd};
use tfno_num::{CTensor, C32};
use turbofno::backend::LaunchRecord;
use turbofno::{
    Backend, LayerSpec, Request, Session, SpectralShape, TfnoError, TurboOptions, Variant,
};

/// The variant every workload runs: the planner's best-of choice.
pub const VARIANT: Variant = Variant::TurboBest;

/// The result of one unit.
pub struct Done {
    /// Every output value the unit produced, in request order.
    pub out: Vec<C32>,
    /// The unit's launch records.
    pub launches: Vec<LaunchRecord>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Name of the root span of one traced unit.
    const UNIT: &'static str;
    /// Build the workload's model and inputs from `seed`.
    fn build(seed: u64) -> Self;
    /// Units in one cycle of the op stream.
    fn cycle(&self) -> usize;
    /// Ops in unit `j`.
    fn ops_in(&self, j: usize) -> usize;
    /// Units at the start of the cycle held to the host reference.
    fn gated(&self) -> usize;
    /// Run unit `j` of the cycle; `prev` is the previous unit's output
    /// (`None` for `j == 0`). With a tracer, spans are recorded around the
    /// calls into each layer.
    fn run<B: Backend>(
        &self,
        sess: &mut Session<B>,
        j: usize,
        prev: Option<&[C32]>,
        tr: Option<&mut Tracer>,
    ) -> Result<Done, TfnoError>;
    /// Unit `j`'s output by the host reference path (`forward_host`).
    fn host(&self, j: usize, prev: Option<&[C32]>) -> Vec<C32>;
    /// The spectral-layer shapes unit `j` executes.
    fn layer_shapes(&self, j: usize) -> Vec<SpectralShape>;
}

/// One FNO forward. Untraced, this is the public `try_forward_device`;
/// traced, it is the same sequence of public calls with a span around
/// each, so both produce bitwise-equal outputs.
fn fno_forward<B: Backend>(
    model: &FnoNd,
    sess: &mut Session<B>,
    x: &CTensor,
    tr: Option<&mut Tracer>,
) -> Result<Done, TfnoError> {
    let opts = TurboOptions::default();
    let Some(tr) = tr else {
        let (y, run) = model.try_forward_device(sess, VARIANT, &opts, x)?;
        return Ok(Done {
            out: y.into_vec(),
            launches: run.launches,
        });
    };
    let s = tr.begin("lift");
    let mut h = pointwise(x, &model.lift);
    tr.end(s);
    let mut launches = Vec::new();
    for layer in &model.layers {
        let l = tr.begin("layer");
        let s = tr.begin("submit");
        let pending = layer.spectral.submit_device(sess, VARIANT, &opts, &h);
        tr.end(s);
        let s = tr.begin("bypass");
        let p = pointwise(&h, &layer.bypass);
        tr.end(s);
        let s = tr.begin("finish");
        let (spec, run) = pending.try_finish(sess)?;
        tr.end(s);
        let s = tr.begin("add_gelu");
        h = add_gelu(&spec, &p);
        tr.end(s);
        tr.end(l);
        launches.extend(run.launches);
    }
    let s = tr.begin("proj");
    let y = pointwise(&h, &model.proj);
    tr.end(s);
    Ok(Done {
        out: y.into_vec(),
        launches,
    })
}

fn fno_shapes(model: &FnoNd, batch: usize) -> Vec<SpectralShape> {
    model
        .layers
        .iter()
        .map(|l| l.spectral.shape(batch))
        .collect()
}

// ---------------------------------------------------------------- rollout-3d

/// `wave_rollout` geometry: batch 1, 8×16×32 grid, modes (4, 8, 32).
const ROLLOUT_DIMS: [usize; 3] = [8, 16, 32];
const ROLLOUT_MODES: [usize; 3] = [4, 8, 32];
const ROLLOUT_WIDTH: usize = 4;
const ROLLOUT_CH: usize = 2;
const ROLLOUT_LAYERS: usize = 4;
/// Steps per episode; the rollout restarts from the initial field after.
const ROLLOUT_STEPS: usize = 16;

pub struct Rollout {
    model: FnoNd,
    x0: CTensor,
}

impl Rollout {
    /// Step `j`'s input: the initial field, or the previous step's output
    /// rescaled to unit RMS (so the trajectory neither blows up nor dies).
    fn input(&self, j: usize, prev: Option<&[C32]>) -> CTensor {
        match (j, prev) {
            (0, _) | (_, None) => self.x0.clone(),
            (_, Some(y)) => {
                let rms = (y.iter().map(|c| c.norm_sqr()).sum::<f32>() / y.len() as f32).sqrt();
                let inv = if rms > 0.0 { 1.0 / rms } else { 1.0 };
                let data = y.iter().map(|c| c.scale(inv)).collect();
                CTensor::from_vec(data, self.x0.shape())
            }
        }
    }
}

impl Workload for Rollout {
    const NAME: &'static str = "rollout-3d";
    const UNIT: &'static str = "op";

    fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = FnoNd::random(
            &mut rng,
            ROLLOUT_CH,
            ROLLOUT_WIDTH,
            ROLLOUT_CH,
            ROLLOUT_LAYERS,
            &ROLLOUT_DIMS,
            &ROLLOUT_MODES,
        );
        let mut shape = vec![1, ROLLOUT_CH];
        shape.extend_from_slice(&ROLLOUT_DIMS);
        let x0 = CTensor::random(&mut rng, &shape);
        Rollout { model, x0 }
    }

    fn cycle(&self) -> usize {
        ROLLOUT_STEPS
    }

    fn ops_in(&self, _j: usize) -> usize {
        1
    }

    fn gated(&self) -> usize {
        ROLLOUT_STEPS
    }

    fn run<B: Backend>(
        &self,
        sess: &mut Session<B>,
        j: usize,
        prev: Option<&[C32]>,
        tr: Option<&mut Tracer>,
    ) -> Result<Done, TfnoError> {
        fno_forward(&self.model, sess, &self.input(j, prev), tr)
    }

    fn host(&self, j: usize, prev: Option<&[C32]>) -> Vec<C32> {
        self.model.forward_host(&self.input(j, prev)).into_vec()
    }

    fn layer_shapes(&self, _j: usize) -> Vec<SpectralShape> {
        fno_shapes(&self.model, 1)
    }
}

// -------------------------------------------------------------- serve-varied

/// Requests per layer shape in one cycle.
const SERVE_REPEATS: usize = 5;
const SERVE_MAX_QUEUE: usize = 8;
/// Seed of the request plan (which shapes share a queue, in what order).
/// The plan is the same for every workload seed, which draws only the
/// weights and inputs: how requests group decides how they stack, and so
/// the device work per request, and every seed should measure the same
/// work.
const SERVE_PLAN_SEED: u64 = 0x5e12e;

/// The 40 layer shapes `(k, dims, modes)` of the serving mix — more than
/// the session's replay cache holds, so replay mostly misses. Every
/// innermost mode count is a multiple of 32, the fused kernels' warp
/// M-tile, since the planner's best-of evaluation builds them.
fn serve_shapes() -> Vec<(usize, Vec<usize>, Vec<usize>)> {
    let mut out = Vec::new();
    for k in [8, 16] {
        for n in [64, 128, 256, 512] {
            for nf in [32, 64] {
                out.push((k, vec![n], vec![nf]));
            }
        }
        for (nx, ny) in [(16, 32), (32, 32), (32, 64)] {
            for (fx, fy) in [(4, 32), (8, 32)] {
                out.push((k, vec![nx, ny], vec![fx, fy]));
            }
        }
    }
    // 2 widths x (8 rank-1 + 6 rank-2) = 28; widen the rank-1 set with
    // other channel counts to reach 40.
    for (k, n, nf) in [
        (12, 64, 32),
        (12, 128, 32),
        (12, 256, 64),
        (24, 64, 32),
        (24, 128, 64),
        (24, 256, 32),
        (32, 64, 32),
        (32, 128, 32),
        (6, 512, 64),
        (6, 1024, 128),
        (10, 32, 32),
        (20, 32, 32),
    ] {
        out.push((k, vec![n], vec![nf]));
    }
    out
}

/// Channels of a served request's input and output fields.
const SERVE_CH: usize = 1;

pub struct Serve {
    /// One single-layer FNO per shape of the mix.
    models: Vec<FnoNd>,
    /// Per queue: `(model index, input)` for each request.
    queues: Vec<Vec<(usize, CTensor)>>,
}

/// Run `f` inside a span named `name` when tracing.
fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tr.as_deref_mut().map(|t| t.begin(name));
    let out = f();
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
        t.end(id);
    }
    out
}

impl Serve {
    /// One queue, each request a single-layer FNO of its own shape. The
    /// schedule is `FnoNd::forward_device_batch`'s, over heterogeneous
    /// models: host lifts, then all spectral convs as one `submit_many`
    /// while the host runs the bypasses, then `wait_many`, add+GELU and
    /// projections.
    fn serve_queue<B: Backend>(
        &self,
        sess: &mut Session<B>,
        j: usize,
        mut tr: Option<&mut Tracer>,
    ) -> Result<Done, TfnoError> {
        let queue = &self.queues[j];
        let layer = |i: usize| &self.models[queue[i].0].layers[0];
        let hs: Vec<CTensor> = span(&mut tr, "lift", || {
            queue
                .iter()
                .map(|(m, x)| pointwise(x, &self.models[*m].lift))
                .collect()
        });
        let reqs: Vec<Request> = span(&mut tr, "stage", || {
            (0..queue.len())
                .map(|i| {
                    let sc = &layer(i).spectral;
                    let spec = LayerSpec::from_shape(sc.shape(1)).variant(VARIANT);
                    let x = sess.acquire(spec.input_len());
                    sess.upload(x, hs[i].data());
                    let w = sess.acquire(spec.weight_len());
                    sess.upload(w, sc.weight.data());
                    let y = sess.acquire(spec.output_len());
                    Request { spec, x, w, y }
                })
                .collect()
        });
        let handle = span(&mut tr, "submit_many", || sess.try_submit_many(&reqs));
        let ps: Vec<CTensor> = span(&mut tr, "bypass", || {
            (0..queue.len())
                .map(|i| pointwise(&hs[i], &layer(i).bypass))
                .collect()
        });
        let runs = handle.and_then(|h| span(&mut tr, "wait_many", || sess.try_wait_many(h)));
        let spectral: Vec<Vec<C32>> = span(&mut tr, "collect", || {
            let out = match &runs {
                Ok(_) => reqs.iter().map(|r| sess.download(r.y)).collect(),
                Err(_) => Vec::new(),
            };
            for r in &reqs {
                sess.release(r.x);
                sess.release(r.w);
                sess.release(r.y);
            }
            out
        });
        let launches = runs?.into_iter().flat_map(|r| r.launches).collect();
        let hs: Vec<CTensor> = span(&mut tr, "add_gelu", || {
            spectral
                .into_iter()
                .zip(&ps)
                .map(|(s, p)| add_gelu(&CTensor::from_vec(s, p.shape()), p))
                .collect()
        });
        let out = span(&mut tr, "proj", || {
            hs.iter()
                .zip(queue)
                .flat_map(|(h, (m, _))| pointwise(h, &self.models[*m].proj).into_vec())
                .collect()
        });
        Ok(Done { out, launches })
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve-varied";
    const UNIT: &'static str = "queue";

    fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let models: Vec<FnoNd> = serve_shapes()
            .into_iter()
            .map(|(k, dims, modes)| {
                FnoNd::random(&mut rng, SERVE_CH, k, SERVE_CH, 1, &dims, &modes)
            })
            .collect();
        // Every shape SERVE_REPEATS times, shuffled (Fisher–Yates), then
        // cut into queues of 1..=SERVE_MAX_QUEUE requests.
        let mut plan = StdRng::seed_from_u64(SERVE_PLAN_SEED);
        let mut order: Vec<usize> = (0..models.len())
            .flat_map(|i| std::iter::repeat_n(i, SERVE_REPEATS))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, plan.gen_range(0..i + 1));
        }
        let mut queues = Vec::new();
        let mut rest = order.as_slice();
        while !rest.is_empty() {
            let n = plan.gen_range(1..SERVE_MAX_QUEUE + 1).min(rest.len());
            let (head, tail) = rest.split_at(n);
            queues.push(
                head.iter()
                    .map(|&m| {
                        let mut shape = vec![1, SERVE_CH];
                        shape.extend_from_slice(&models[m].layers[0].spectral.dims);
                        (m, CTensor::random(&mut rng, &shape))
                    })
                    .collect(),
            );
            rest = tail;
        }
        Serve { models, queues }
    }

    fn cycle(&self) -> usize {
        self.queues.len()
    }

    fn ops_in(&self, j: usize) -> usize {
        self.queues[j].len()
    }

    fn gated(&self) -> usize {
        self.queues.len()
    }

    fn run<B: Backend>(
        &self,
        sess: &mut Session<B>,
        j: usize,
        _prev: Option<&[C32]>,
        tr: Option<&mut Tracer>,
    ) -> Result<Done, TfnoError> {
        self.serve_queue(sess, j, tr)
    }

    fn host(&self, j: usize, _prev: Option<&[C32]>) -> Vec<C32> {
        let mut out = Vec::new();
        for (m, x) in &self.queues[j] {
            out.extend(self.models[*m].forward_host(x).into_vec());
        }
        out
    }

    fn layer_shapes(&self, j: usize) -> Vec<SpectralShape> {
        self.queues[j]
            .iter()
            .map(|(m, _)| self.models[*m].layers[0].spectral.shape(1))
            .collect()
    }
}

// ------------------------------------------------------------------ batch-2d

const BATCH: usize = 8;
const BATCH_DIMS: [usize; 2] = [16, 32];
const BATCH_MODES: [usize; 2] = [8, 32];
const BATCH_WIDTH: usize = 8;
const BATCH_IN: usize = 3;
const BATCH_OUT: usize = 1;
const BATCH_LAYERS: usize = 4;
/// Distinct input batches in one cycle.
const BATCH_INPUTS: usize = 2;

pub struct Batch {
    model: FnoNd,
    inputs: Vec<CTensor>,
}

impl Workload for Batch {
    const NAME: &'static str = "batch-2d";
    const UNIT: &'static str = "op";

    fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = FnoNd::random(
            &mut rng,
            BATCH_IN,
            BATCH_WIDTH,
            BATCH_OUT,
            BATCH_LAYERS,
            &BATCH_DIMS,
            &BATCH_MODES,
        );
        let mut shape = vec![BATCH, BATCH_IN];
        shape.extend_from_slice(&BATCH_DIMS);
        let inputs = (0..BATCH_INPUTS)
            .map(|_| CTensor::random(&mut rng, &shape))
            .collect();
        Batch { model, inputs }
    }

    fn cycle(&self) -> usize {
        BATCH_INPUTS
    }

    fn ops_in(&self, _j: usize) -> usize {
        1
    }

    fn gated(&self) -> usize {
        1
    }

    fn run<B: Backend>(
        &self,
        sess: &mut Session<B>,
        j: usize,
        _prev: Option<&[C32]>,
        tr: Option<&mut Tracer>,
    ) -> Result<Done, TfnoError> {
        fno_forward(&self.model, sess, &self.inputs[j], tr)
    }

    fn host(&self, j: usize, _prev: Option<&[C32]>) -> Vec<C32> {
        self.model.forward_host(&self.inputs[j]).into_vec()
    }

    fn layer_shapes(&self, _j: usize) -> Vec<SpectralShape> {
        fno_shapes(&self.model, BATCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_model::SpectralConvNd;

    /// The traced forward makes the same public calls as
    /// `try_forward_device`, so its output is bitwise equal.
    #[test]
    fn traced_forward_is_bitwise_equal_to_untraced() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = FnoNd::random(&mut rng, 2, 4, 2, 2, &[8, 32], &[4, 32]);
        let x = CTensor::random(&mut rng, &[1, 2, 8, 32]);
        let mut sess = Session::new(turbofno::SimBackend::a100());
        let plain = fno_forward(&model, &mut sess, &x, None).unwrap();
        let mut tr = Tracer::new();
        let traced = fno_forward(&model, &mut sess, &x, Some(&mut tr)).unwrap();
        assert_eq!(plain.out, traced.out);
        assert_eq!(plain.launches.len(), traced.launches.len());
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|n| **n == "layer").count(), 2);
        assert_eq!(names.first(), Some(&"lift"));
        assert_eq!(names.last(), Some(&"proj"));
    }

    #[test]
    fn serve_mix_has_forty_valid_shapes() {
        let shapes = serve_shapes();
        assert_eq!(shapes.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for (k, dims, modes) in &shapes {
            assert!(
                seen.insert((*k, dims.clone(), modes.clone())),
                "duplicate shape"
            );
            let conv = SpectralConvNd::random(&mut StdRng::seed_from_u64(0), *k, *k, dims, modes);
            conv.shape(1).validate();
        }
    }

    /// The seed draws the values; the request plan is the same for every
    /// seed.
    #[test]
    fn serve_cycle_is_seeded_and_balanced() {
        let a = Serve::build(7);
        let b = Serve::build(7);
        let c = Serve::build(8);
        let plan = |s: &Serve| -> Vec<Vec<usize>> {
            s.queues
                .iter()
                .map(|q| q.iter().map(|(li, _)| *li).collect())
                .collect()
        };
        let data = |s: &Serve| s.queues[0][0].1.data().to_vec();
        assert_eq!(plan(&a), plan(&c));
        assert_eq!(data(&a), data(&b));
        assert_ne!(data(&a), data(&c));
        let total: usize = (0..a.cycle()).map(|j| a.ops_in(j)).sum();
        assert_eq!(total, 40 * SERVE_REPEATS);
        assert!(a
            .queues
            .iter()
            .all(|q| (1..=SERVE_MAX_QUEUE).contains(&q.len())));
    }
}
