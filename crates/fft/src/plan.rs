//! Radix-2 Stockham butterfly plans with truncation/zero-padding pruning.
//!
//! A [`FftPlan`] is the complete, *pruned* dataflow graph of one FFT pencil:
//! per stage, the list of value-producing operations that are actually
//! required given
//!
//! * **output truncation** — only the first `n_out_keep` natural-order
//!   outputs are wanted (the paper's frequency filter, Fig. 1 step 2), and
//! * **input zero-padding** — only the first `n_in_valid` inputs are
//!   non-zero (the paper's Fig. 1 step 4 feeding the iFFT).
//!
//! Pruning is computed structurally: backward reachability from the kept
//! outputs kills operations nobody consumes, and forward zero-propagation
//! from the padded inputs degrades binary butterflies into copies /
//! single-operand multiplies. The per-value op-counting convention matches
//! the paper's Fig. 5 exactly (one op per produced value): a 4-point FFT
//! costs 8 ops in full, 3 ops when keeping 1 output (37.5%), and 6 ops when
//! keeping 2 (75%) — asserted in the unit tests below.
//!
//! The Stockham formulation is the same one the paper's kernel uses
//! (coalesced reads, natural-order output, no bit-reversal pass).

use crate::cache::{shared_plan, PlanKey};
use std::sync::Arc;
use tfno_num::C32;

/// Direction of the transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FftDirection {
    Forward,
    Inverse,
}

/// One value-producing operation inside a stage.
///
/// Semantics: `dst = (a + b)` for [`FftOpKind::Sum`],
/// `dst = (a - b) * w` for [`FftOpKind::Diff`] (with `w = None` meaning 1).
/// `a`/`b` are `None` when the corresponding source is structurally zero
/// (from input zero-padding), which degrades the op into a copy, negation
/// or single multiply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FftOp {
    pub kind: FftOpKind,
    pub dst: u32,
    pub a: Option<u32>,
    pub b: Option<u32>,
    /// Twiddle factor for `Diff` ops; `None` encodes W^0 = 1.
    pub w: Option<C32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftOpKind {
    /// `dst = a + b`
    Sum,
    /// `dst = (a - b) * w`
    Diff,
}

impl FftOp {
    /// Real flops this op performs (complex add = 2, complex mul = 6).
    pub fn flops(&self) -> u64 {
        let both = self.a.is_some() && self.b.is_some();
        match self.kind {
            FftOpKind::Sum => {
                if both {
                    2
                } else {
                    0 // copy
                }
            }
            FftOpKind::Diff => {
                let mul = if self.w.is_some() { 6 } else { 0 };
                if both {
                    2 + mul
                } else {
                    mul // single-source: negate and/or multiply
                }
            }
        }
    }

    /// Evaluate the op against a value array (host execution).
    pub fn eval(&self, src: &[C32]) -> C32 {
        let a = self.a.map(|i| src[i as usize]).unwrap_or(C32::ZERO);
        let b = self.b.map(|i| src[i as usize]).unwrap_or(C32::ZERO);
        let v = match self.kind {
            FftOpKind::Sum => a + b,
            FftOpKind::Diff => a - b,
        };
        match self.w {
            Some(w) => v * w,
            None => v,
        }
    }
}

/// One Stockham stage: the pruned op list plus geometry for diagnostics.
#[derive(Clone, Debug)]
pub struct FftStage {
    /// Current sub-transform length `n_t = n >> t`.
    pub n_t: usize,
    /// Stride `s_t = 1 << t`.
    pub s_t: usize,
    /// Pruned operations producing this stage's outputs.
    pub ops: Vec<FftOp>,
    /// Ops the unpruned stage would contain.
    pub full_ops: usize,
}

/// A complete pruned FFT plan for one pencil.
///
/// ```
/// use tfno_fft::{FftDirection, FftPlan};
/// // the paper's Fig. 5: a 4-point FFT keeping 1 output needs 3 of 8 ops
/// let plan = FftPlan::new(4, FftDirection::Forward, 4, 1);
/// assert_eq!(plan.paper_ops(), 3);
/// assert_eq!(plan.full_paper_ops(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct FftPlan {
    pub n: usize,
    pub direction: FftDirection,
    pub n_in_valid: usize,
    pub n_out_keep: usize,
    pub stages: Vec<FftStage>,
    /// `1/n` for inverse transforms, 1 otherwise (applied at writeback).
    pub scale: f32,
}

impl FftPlan {
    /// Build a pruned plan.
    ///
    /// * `n` — FFT length (power of two, >= 2)
    /// * `n_in_valid` — inputs `>= n_in_valid` are structurally zero
    /// * `n_out_keep` — outputs `>= n_out_keep` are discarded
    pub fn new(n: usize, direction: FftDirection, n_in_valid: usize, n_out_keep: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "FFT length must be a power of two >= 2");
        assert!((1..=n).contains(&n_in_valid), "n_in_valid out of range");
        assert!((1..=n).contains(&n_out_keep), "n_out_keep out of range");
        let stages_count = n.trailing_zeros() as usize;

        // ---- enumerate the full network ----
        // raw[t] = ops of stage t (unpruned), with source/dst indices in 0..n
        let mut raw: Vec<Vec<FftOp>> = Vec::with_capacity(stages_count);
        for t in 0..stages_count {
            let n_t = n >> t;
            let m_t = n_t / 2;
            let s_t = 1 << t;
            let mut ops = Vec::with_capacity(n);
            for p in 0..m_t {
                // Twiddle W_{n_t}^p (conjugated for the inverse transform).
                let w = if p == 0 {
                    None
                } else {
                    Some(match direction {
                        FftDirection::Forward => C32::twiddle(p, n_t),
                        FftDirection::Inverse => C32::twiddle_inv(p, n_t),
                    })
                };
                for q in 0..s_t {
                    let a = (q + s_t * p) as u32;
                    let b = (q + s_t * (p + m_t)) as u32;
                    ops.push(FftOp {
                        kind: FftOpKind::Sum,
                        dst: (q + s_t * (2 * p)) as u32,
                        a: Some(a),
                        b: Some(b),
                        w: None,
                    });
                    ops.push(FftOp {
                        kind: FftOpKind::Diff,
                        dst: (q + s_t * (2 * p + 1)) as u32,
                        a: Some(a),
                        b: Some(b),
                        w,
                    });
                }
            }
            raw.push(ops);
        }

        // ---- backward reachability from the kept outputs ----
        // needed[t][i]: is value i of the array *entering* stage t needed?
        // needed[stages][i]: is output i needed?
        let mut needed = vec![vec![false; n]; stages_count + 1];
        needed[stages_count][..n_out_keep].fill(true);
        for t in (0..stages_count).rev() {
            for op in &raw[t] {
                if needed[t + 1][op.dst as usize] {
                    needed[t][op.a.unwrap() as usize] = true;
                    needed[t][op.b.unwrap() as usize] = true;
                }
            }
        }

        // ---- forward zero propagation from the padded inputs ----
        // zero[t][i]: is value i entering stage t structurally zero?
        let mut zero = vec![vec![false; n]; stages_count + 1];
        zero[0][n_in_valid..].fill(true);
        for t in 0..stages_count {
            // values not written by any surviving op default to zero as
            // well, but reachability guarantees they are never read; only
            // propagate through the raw network for soundness.
            zero[t + 1].fill(true);
            for op in &raw[t] {
                let za = zero[t][op.a.unwrap() as usize];
                let zb = zero[t][op.b.unwrap() as usize];
                zero[t + 1][op.dst as usize] = za && zb;
            }
        }

        // ---- emit pruned stages ----
        let mut stages = Vec::with_capacity(stages_count);
        for (t, ops) in raw.iter().enumerate() {
            let full_ops = ops.len();
            let pruned: Vec<FftOp> = ops
                .iter()
                .filter(|op| needed[t + 1][op.dst as usize])
                .filter(|op| !zero[t + 1][op.dst as usize])
                .map(|op| {
                    let mut op = *op;
                    if zero[t][op.a.unwrap() as usize] {
                        op.a = None;
                    }
                    if zero[t][op.b.unwrap() as usize] {
                        op.b = None;
                    }
                    op
                })
                .collect();
            stages.push(FftStage {
                n_t: n >> t,
                s_t: 1 << t,
                ops: pruned,
                full_ops,
            });
        }

        let scale = match direction {
            FftDirection::Forward => 1.0,
            FftDirection::Inverse => 1.0 / n as f32,
        };
        FftPlan {
            n,
            direction,
            n_in_valid,
            n_out_keep,
            stages,
            scale,
        }
    }

    /// Full (unpruned) forward plan.
    pub fn full(n: usize, direction: FftDirection) -> Self {
        Self::new(n, direction, n, n)
    }

    /// The process-wide plan for these parameters: [`FftPlan::new`]'s
    /// result, built on first use and shared by every kernel that asks
    /// (see [`crate::cache`]).
    pub fn shared(
        n: usize,
        direction: FftDirection,
        n_in_valid: usize,
        n_out_keep: usize,
    ) -> Arc<FftPlan> {
        shared_plan(PlanKey {
            n,
            direction,
            n_in_valid,
            n_out_keep,
        })
    }

    /// Heap plus inline bytes this plan occupies.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .stages
                .iter()
                .map(|s| {
                    std::mem::size_of::<FftStage>()
                        + s.ops.capacity() * std::mem::size_of::<FftOp>()
                })
                .sum::<usize>()
    }

    /// Ops in the paper's Fig. 5 counting convention: one per produced value.
    pub fn paper_ops(&self) -> usize {
        self.stages.iter().map(|s| s.ops.len()).sum()
    }

    /// Ops of the unpruned network under the same convention.
    pub fn full_paper_ops(&self) -> usize {
        self.stages.iter().map(|s| s.full_ops).sum()
    }

    /// Fraction of butterfly work surviving pruning (Fig. 5 reports 37.5%
    /// and 75% for the 4-point cases).
    pub fn surviving_fraction(&self) -> f64 {
        self.paper_ops() as f64 / self.full_paper_ops() as f64
    }

    /// Real flops per pencil, including the inverse-scale multiplies at
    /// writeback (2 flops per kept output when `scale != 1`).
    pub fn flops_per_pencil(&self) -> u64 {
        let body: u64 = self
            .stages
            .iter()
            .flat_map(|s| s.ops.iter())
            .map(|op| op.flops())
            .sum();
        let scale_flops = if self.scale != 1.0 {
            2 * self.n_out_keep as u64
        } else {
            0
        };
        body + scale_flops
    }

    /// Execute the plan on the host (no simulation): `input` has
    /// `n_in_valid` meaningful elements (the rest are ignored), returns the
    /// `n_out_keep` kept outputs.
    pub fn execute_host(&self, input: &[C32]) -> Vec<C32> {
        assert!(input.len() >= self.n_in_valid, "input too short");
        let mut src = vec![C32::ZERO; self.n];
        src[..self.n_in_valid].copy_from_slice(&input[..self.n_in_valid]);
        let mut dst = vec![C32::ZERO; self.n];
        for stage in &self.stages {
            dst.fill(C32::ZERO);
            for op in &stage.ops {
                dst[op.dst as usize] = op.eval(&src);
            }
            std::mem::swap(&mut src, &mut dst);
        }
        src[..self.n_out_keep]
            .iter()
            .map(|v| v.scale(self.scale))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfno_num::error::{assert_close, fft_tolerance};
    use tfno_num::reference;

    fn rand_signal(n: usize, seed: u64) -> Vec<C32> {
        // lightweight deterministic pseudo-random data without pulling rng in
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed)) >> 33;
                let re = ((x % 2000) as f32 / 1000.0) - 1.0;
                let im = (((x / 2000) % 2000) as f32 / 1000.0) - 1.0;
                C32::new(re, im)
            })
            .collect()
    }

    #[test]
    fn full_plan_matches_reference_dft() {
        for n in [2usize, 4, 8, 16, 64, 128, 256] {
            let plan = FftPlan::full(n, FftDirection::Forward);
            let x = rand_signal(n, 42);
            let got = plan.execute_host(&x);
            let want = reference::dft_full(&x);
            assert_close(&got, &want, fft_tolerance(n, 2.0), &format!("fft n={n}"));
        }
    }

    #[test]
    fn inverse_plan_matches_reference_idft() {
        for n in [4usize, 16, 128] {
            let plan = FftPlan::full(n, FftDirection::Inverse);
            let x = rand_signal(n, 7);
            let got = plan.execute_host(&x);
            let mut want = vec![C32::ZERO; n];
            reference::idft(&x, &mut want);
            assert_close(&got, &want, fft_tolerance(n, 2.0), &format!("ifft n={n}"));
        }
    }

    #[test]
    fn roundtrip_with_truncation_and_padding() {
        // forward keep nf, then inverse from nf padded back to n: acts as a
        // low-pass projector; applying it twice equals applying it once.
        let n = 64;
        let nf = 16;
        let fwd = FftPlan::new(n, FftDirection::Forward, n, nf);
        let inv = FftPlan::new(n, FftDirection::Inverse, nf, n);
        let x = rand_signal(n, 3);
        let modes = fwd.execute_host(&x);
        let low = inv.execute_host(&modes);
        let modes2 = fwd.execute_host(&low);
        let low2 = inv.execute_host(&modes2);
        assert_close(&low2, &low, fft_tolerance(n, 4.0), "projector idempotence");
    }

    #[test]
    fn truncated_plan_matches_reference_prefix() {
        let n = 128;
        for nf in [1usize, 2, 16, 32, 64, 128] {
            let plan = FftPlan::new(n, FftDirection::Forward, n, nf);
            let x = rand_signal(n, 11);
            let got = plan.execute_host(&x);
            let mut want = vec![C32::ZERO; nf];
            reference::dft(&x, &mut want);
            assert_close(&got, &want, fft_tolerance(n, 2.0), &format!("nf={nf}"));
        }
    }

    #[test]
    fn padded_plan_matches_reference() {
        let n = 128;
        for nv in [1usize, 4, 32, 128] {
            let plan = FftPlan::new(n, FftDirection::Inverse, nv, n);
            let x = rand_signal(nv, 13);
            let got = plan.execute_host(&x);
            let mut want = vec![C32::ZERO; n];
            reference::idft(&x[..nv], &mut want);
            assert_close(&got, &want, fft_tolerance(n, 2.0), &format!("nv={nv}"));
        }
    }

    /// The paper's Fig. 5: 4-point FFT costs 8 ops; keeping 1 output -> 3
    /// ops (37.5%); keeping 2 -> 6 ops (75%).
    #[test]
    fn fig5_op_counts() {
        let full = FftPlan::full(4, FftDirection::Forward);
        assert_eq!(full.paper_ops(), 8);

        let keep1 = FftPlan::new(4, FftDirection::Forward, 4, 1);
        assert_eq!(keep1.paper_ops(), 3);
        assert!((keep1.surviving_fraction() - 0.375).abs() < 1e-12);

        let keep2 = FftPlan::new(4, FftDirection::Forward, 4, 2);
        assert_eq!(keep2.paper_ops(), 6);
        assert!((keep2.surviving_fraction() - 0.75).abs() < 1e-12);
    }

    /// Graph-theoretic pruning limits at the paper's evaluation sizes.
    ///
    /// REPRODUCTION NOTE (`fig05_prune` reports it as a documented
    /// deviation): the paper's §5.1
    /// extrapolates Fig. 5's 4-point savings (62.5% at 25% truncation) to
    /// its 128/256-point FFTs ("reduces computation by 25%–67.5%"). On the
    /// actual radix-2 Cooley-Tukey network, backward reachability from a
    /// *contiguous prefix* of outputs is provably minimal and yields far
    /// less: the cone of 32 contiguous outputs of a 128-pt FFT already
    /// covers every value below the last two stages. Exact counts:
    ///
    /// * 128-pt keep 32 (25%): 736 of 896 ops survive -> 17.9% saved
    /// * 128-pt keep 64 (50%): 832 of 896 ops survive ->  7.1% saved
    ///
    /// The headline speedups survive regardless because they are memory-
    /// traffic-driven (the paper itself concludes "memory transaction
    /// reduction is the primary performance bottleneck").
    #[test]
    fn pruning_savings_graph_limits() {
        let p128_32 = FftPlan::new(128, FftDirection::Forward, 128, 32);
        assert_eq!(p128_32.full_paper_ops(), 896);
        assert_eq!(p128_32.paper_ops(), 736);

        let p128_64 = FftPlan::new(128, FftDirection::Forward, 128, 64);
        assert_eq!(p128_64.paper_ops(), 832);

        for n in [128usize, 256] {
            for keep_ratio in [4usize, 2] {
                let plan = FftPlan::new(n, FftDirection::Forward, n, n / keep_ratio);
                let saving = 1.0 - plan.surviving_fraction();
                assert!(
                    (0.04..=0.25).contains(&saving),
                    "n={n} keep=1/{keep_ratio}: saving {saving:.3} outside the structural band"
                );
            }
        }
    }

    #[test]
    fn zero_padding_prunes_ops() {
        let n = 128;
        let padded = FftPlan::new(n, FftDirection::Inverse, 32, n);
        let full = FftPlan::full(n, FftDirection::Inverse);
        assert!(padded.paper_ops() < full.paper_ops());
        assert!(padded.flops_per_pencil() < full.flops_per_pencil());
    }

    #[test]
    fn flops_decrease_with_truncation() {
        let n = 256;
        let f_full = FftPlan::full(n, FftDirection::Forward).flops_per_pencil();
        let f_half = FftPlan::new(n, FftDirection::Forward, n, 128).flops_per_pencil();
        let f_quarter = FftPlan::new(n, FftDirection::Forward, n, 64).flops_per_pencil();
        assert!(f_quarter < f_half && f_half < f_full);
    }

    #[test]
    fn degenerate_ops_are_copies() {
        // nv = 1: the first stage has a single valid input; its ops are all
        // single-source (copies / multiplies), i.e. zero or 6 flops.
        let plan = FftPlan::new(8, FftDirection::Forward, 1, 8);
        for op in &plan.stages[0].ops {
            assert!(op.a.is_none() || op.b.is_none());
        }
        // and the result still matches the reference: DFT of an impulse.
        let x = [C32::new(2.0, -1.0)];
        let got = plan.execute_host(&x);
        for v in &got {
            assert!((*v - x[0]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        FftPlan::full(12, FftDirection::Forward);
    }

    #[test]
    fn stage_geometry() {
        let plan = FftPlan::full(16, FftDirection::Forward);
        assert_eq!(plan.stages.len(), 4);
        assert_eq!(plan.stages[0].n_t, 16);
        assert_eq!(plan.stages[0].s_t, 1);
        assert_eq!(plan.stages[3].n_t, 2);
        assert_eq!(plan.stages[3].s_t, 8);
        // each full stage produces n values
        for s in &plan.stages {
            assert_eq!(s.full_ops, 16);
        }
    }
}
