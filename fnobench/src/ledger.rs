//! Stage ledger: every launched kernel, by name, mapped onto the
//! rfft → einsum → irfft split of an FNO spectral layer plus the copies
//! around it (the truncate/pad copies the unfused PyTorch chain needs and
//! fusion removes, and the gather/scatter copies of stacked serving
//! queues). A kernel name outside that vocabulary is an error: silently
//! filing it under "other" would hide a new kernel from every per-stage
//! number.

use turbofno::backend::LaunchRecord;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Fft,
    Trunc,
    Cgemm,
    Pad,
    Ifft,
    Fused,
    Gather,
    Scatter,
}

impl Stage {
    pub const ALL: [Stage; 8] = [
        Stage::Fft,
        Stage::Trunc,
        Stage::Cgemm,
        Stage::Pad,
        Stage::Ifft,
        Stage::Fused,
        Stage::Gather,
        Stage::Scatter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Fft => "fft",
            Stage::Trunc => "trunc",
            Stage::Cgemm => "cgemm",
            Stage::Pad => "pad",
            Stage::Ifft => "ifft",
            Stage::Fused => "fused",
            Stage::Gather => "gather",
            Stage::Scatter => "scatter",
        }
    }
}

/// `op` is `base`, or `base` with an axis suffix and/or a rank tag:
/// `fft`, `fft_x`, `fft3_z`, `cgemm2d`, ...
fn is_op(op: &str, base: &str) -> bool {
    op.strip_prefix(base).is_some_and(|rest| {
        matches!(
            rest,
            "" | "_x" | "_y" | "_z" | "2d" | "3d" | "3_x" | "3_y" | "3_z"
        )
    })
}

/// `op` is one of the fused kernels: `fused[2d|3d]_{fft_gemm, gemm_ifft,
/// fft_gemm_ifft}`.
fn is_fused(op: &str) -> bool {
    ["fused_", "fused2d_", "fused3d_"].iter().any(|p| {
        op.strip_prefix(p)
            .is_some_and(|r| matches!(r, "fft_gemm" | "gemm_ifft" | "fft_gemm_ifft"))
    })
}

/// The stage a launched kernel belongs to, from its launch-record name
/// (`<family>.<op>`).
pub fn classify(kernel: &str) -> Result<Stage, String> {
    let unknown = || Err(format!("kernel `{kernel}` is outside the stage vocabulary"));
    let Some((family, op)) = kernel.split_once('.') else {
        return unknown();
    };
    let stage = match family {
        "serve" => match op {
            "gather" => Stage::Gather,
            "scatter" => Stage::Scatter,
            _ => return unknown(),
        },
        "pt" | "pt2" | "pt3" | "turbo" => {
            if family == "turbo" && is_fused(op) {
                Stage::Fused
            } else if is_op(op, "ifft") {
                Stage::Ifft
            } else if is_op(op, "fft") {
                Stage::Fft
            } else if is_op(op, "cgemm") {
                Stage::Cgemm
            } else if op == "truncate" && family != "turbo" {
                Stage::Trunc
            } else if op == "pad" && family != "turbo" {
                Stage::Pad
            } else {
                return unknown();
            }
        }
        _ => return unknown(),
    };
    Ok(stage)
}

/// Per-stage totals over a set of launch records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTotals {
    pub launches: u64,
    /// Sum of the cost model's modeled time (sim launch records only).
    pub modeled_us: f64,
    pub global_bytes: u64,
    pub flops: u64,
    pub shared_ideal_cycles: u64,
    pub shared_actual_cycles: u64,
}

impl StageTotals {
    fn add(&mut self, rec: &LaunchRecord) {
        self.launches += 1;
        self.modeled_us += rec.time_us;
        self.global_bytes += rec.stats.global_bytes();
        self.flops += rec.stats.flops;
        self.shared_ideal_cycles += rec.stats.shared_ideal_cycles;
        self.shared_actual_cycles += rec.stats.shared_actual_cycles;
    }

    fn merge(&mut self, o: &StageTotals) {
        self.launches += o.launches;
        self.modeled_us += o.modeled_us;
        self.global_bytes += o.global_bytes;
        self.flops += o.flops;
        self.shared_ideal_cycles += o.shared_ideal_cycles;
        self.shared_actual_cycles += o.shared_actual_cycles;
    }

    /// Shared-memory bank replay: actual over conflict-free cycles (1.0
    /// when the stage makes no shared-memory accesses).
    pub fn bank_replay(&self) -> f64 {
        if self.shared_ideal_cycles == 0 {
            1.0
        } else {
            self.shared_actual_cycles as f64 / self.shared_ideal_cycles as f64
        }
    }
}

/// Launch records of simulated launches, filed by stage.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    stages: [StageTotals; 8],
}

impl Ledger {
    pub fn record(&mut self, rec: &LaunchRecord) -> Result<(), String> {
        let s = classify(&rec.name)?;
        self.stages[s as usize].add(rec);
        Ok(())
    }

    pub fn stage(&self, s: Stage) -> &StageTotals {
        &self.stages[s as usize]
    }

    pub fn total(&self) -> StageTotals {
        let mut t = StageTotals::default();
        for s in &self.stages {
            t.merge(s);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbofno::{LayerSpec, Session, SimBackend, SpectralShape, Variant};
    use Stage::*;

    /// Every kernel the five concrete variants launch at ranks 1–3 maps
    /// onto the stage vocabulary, in the pipeline order of each variant.
    #[test]
    fn classifies_every_concrete_variant_at_every_rank() {
        let shapes = [
            SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]),
            SpectralShape::d2(1, 16, 16, 32, 64).with_modes(&[8, 32]),
            SpectralShape::d3(1, 4, 4, 8, 16, 32).with_modes(&[4, 8, 32]),
        ];
        let want: [[&[Stage]; 5]; 3] = [
            [
                &[Fft, Trunc, Cgemm, Pad, Ifft],
                &[Fft, Cgemm, Ifft],
                &[Fused, Ifft],
                &[Fft, Fused],
                &[Fused],
            ],
            [
                &[Fft, Fft, Trunc, Cgemm, Pad, Ifft, Ifft],
                &[Fft, Fft, Cgemm, Ifft, Ifft],
                &[Fft, Fused, Ifft, Ifft],
                &[Fft, Fft, Fused, Ifft],
                &[Fft, Fused, Ifft],
            ],
            [
                &[Fft, Fft, Fft, Trunc, Cgemm, Pad, Ifft, Ifft, Ifft],
                &[Fft, Fft, Fft, Cgemm, Ifft, Ifft, Ifft],
                &[Fft, Fft, Fused, Ifft, Ifft, Ifft],
                &[Fft, Fft, Fft, Fused, Ifft, Ifft],
                &[Fft, Fft, Fused, Ifft, Ifft],
            ],
        ];
        let mut sess = Session::new(SimBackend::a100());
        for (shape, want) in shapes.iter().zip(want) {
            for (v, want) in Variant::CONCRETE.into_iter().zip(want) {
                let run = sess.measure(&LayerSpec::from_shape(*shape).variant(v));
                let got: Vec<Stage> = run
                    .launches
                    .iter()
                    .map(|l| classify(&l.name).unwrap())
                    .collect();
                assert_eq!(got, want, "rank {} {v:?}", shape.rank);
            }
        }
    }

    #[test]
    fn serving_copies_are_gather_and_scatter() {
        assert_eq!(classify("serve.gather"), Ok(Gather));
        assert_eq!(classify("serve.scatter"), Ok(Scatter));
    }

    #[test]
    fn unknown_kernels_are_errors() {
        for name in [
            "scale2",
            "serve.copy",
            "turbo.truncate",
            "pt.fused_fft_gemm",
            "turbo.fft_w",
            "turbo.fftshift",
            "turbo.fused_fft",
            "turbo.cgemm4d",
            "cufft.fft",
            "",
        ] {
            assert!(classify(name).is_err(), "`{name}` must not classify");
        }
    }

    #[test]
    fn ledger_files_records_by_stage() {
        let mut sess = Session::new(SimBackend::a100());
        let shape = SpectralShape::d1(2, 16, 16, 128).with_modes(&[32]);
        let run = sess.measure(&LayerSpec::from_shape(shape).variant(Variant::Pytorch));
        let mut ledger = Ledger::default();
        for rec in &run.launches {
            ledger.record(rec).unwrap();
        }
        let total = ledger.total();
        assert_eq!(total.launches, 5);
        assert_eq!(ledger.stage(Trunc).launches, 1);
        assert_eq!(ledger.stage(Fused).launches, 0);
        assert!((total.modeled_us - run.total_us()).abs() < 1e-9);
        assert_eq!(total.flops, run.total_stats().flops);
    }
}
