//! Per-launch event accounting.
//!
//! [`KernelStats`] is the contract between the functional simulator and the
//! analytical cost model: a kernel's `predict_stats()` must produce exactly
//! the counts the functional execution records (verified by property tests
//! in the kernel crates).

use std::ops::{Add, AddAssign};

/// Event counts for one kernel launch (or one block; they add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Warps launched (blocks x warps/block).
    pub warps: u64,
    /// Real floating-point operations (complex ops expanded; see
    /// `tfno_num::FLOPS_PER_CMAC` and friends).
    pub flops: u64,
    /// Bytes requested from global memory by loads.
    pub global_load_bytes: u64,
    /// Bytes written to global memory by stores.
    pub global_store_bytes: u64,
    /// 32-byte sectors touched by loads (the coalescing metric).
    pub global_load_sectors: u64,
    /// 32-byte sectors touched by stores.
    pub global_store_sectors: u64,
    /// Ideal (conflict-free) shared-memory access cycles.
    pub shared_ideal_cycles: u64,
    /// Actual shared-memory access cycles after bank-conflict replay.
    pub shared_actual_cycles: u64,
    /// Block-wide barriers executed (`__syncthreads`), summed over blocks.
    pub syncthreads: u64,
}

impl KernelStats {
    pub const ZERO: KernelStats = KernelStats {
        blocks: 0,
        warps: 0,
        flops: 0,
        global_load_bytes: 0,
        global_store_bytes: 0,
        global_load_sectors: 0,
        global_store_sectors: 0,
        shared_ideal_cycles: 0,
        shared_actual_cycles: 0,
        syncthreads: 0,
    };

    /// The counters an unmetered run still counts (blocks, warps, flops,
    /// barriers), every traffic counter zeroed.
    pub(crate) fn structural(&self) -> KernelStats {
        KernelStats {
            blocks: self.blocks,
            warps: self.warps,
            flops: self.flops,
            syncthreads: self.syncthreads,
            ..KernelStats::ZERO
        }
    }

    /// Total bytes moved through global memory.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Shared-memory bank utilization in `[0, 1]`
    /// (1.0 = conflict-free, 0.25 = the paper's 4-way-conflicted layouts).
    pub fn bank_utilization(&self) -> f64 {
        if self.shared_actual_cycles == 0 {
            1.0
        } else {
            self.shared_ideal_cycles as f64 / self.shared_actual_cycles as f64
        }
    }

    /// All counters multiplied by `k` — used when one representative block
    /// stands in for a class of `k` identical-pattern blocks.
    pub fn scaled(&self, k: u64) -> KernelStats {
        KernelStats {
            blocks: self.blocks * k,
            warps: self.warps * k,
            flops: self.flops * k,
            global_load_bytes: self.global_load_bytes * k,
            global_store_bytes: self.global_store_bytes * k,
            global_load_sectors: self.global_load_sectors * k,
            global_store_sectors: self.global_store_sectors * k,
            shared_ideal_cycles: self.shared_ideal_cycles * k,
            shared_actual_cycles: self.shared_actual_cycles * k,
            syncthreads: self.syncthreads * k,
        }
    }

    /// Global-load coalescing efficiency: requested bytes / sector bytes.
    pub fn load_coalescing(&self) -> f64 {
        if self.global_load_sectors == 0 {
            1.0
        } else {
            self.global_load_bytes as f64 / (self.global_load_sectors * 32) as f64
        }
    }
}

impl Add for KernelStats {
    type Output = KernelStats;
    fn add(self, rhs: KernelStats) -> KernelStats {
        KernelStats {
            blocks: self.blocks + rhs.blocks,
            warps: self.warps + rhs.warps,
            flops: self.flops + rhs.flops,
            global_load_bytes: self.global_load_bytes + rhs.global_load_bytes,
            global_store_bytes: self.global_store_bytes + rhs.global_store_bytes,
            global_load_sectors: self.global_load_sectors + rhs.global_load_sectors,
            global_store_sectors: self.global_store_sectors + rhs.global_store_sectors,
            shared_ideal_cycles: self.shared_ideal_cycles + rhs.shared_ideal_cycles,
            shared_actual_cycles: self.shared_actual_cycles + rhs.shared_actual_cycles,
            syncthreads: self.syncthreads + rhs.syncthreads,
        }
    }
}

impl AddAssign for KernelStats {
    fn add_assign(&mut self, rhs: KernelStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for KernelStats {
    fn sum<I: Iterator<Item = KernelStats>>(iter: I) -> KernelStats {
        iter.fold(KernelStats::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_fieldwise() {
        let a = KernelStats {
            blocks: 1,
            flops: 10,
            global_load_bytes: 64,
            ..KernelStats::ZERO
        };
        let b = KernelStats {
            blocks: 2,
            flops: 5,
            global_store_bytes: 32,
            ..KernelStats::ZERO
        };
        let c = a + b;
        assert_eq!(c.blocks, 3);
        assert_eq!(c.flops, 15);
        assert_eq!(c.global_bytes(), 96);
    }

    #[test]
    fn bank_utilization_bounds() {
        let mut s = KernelStats::ZERO;
        assert_eq!(s.bank_utilization(), 1.0);
        s.shared_ideal_cycles = 10;
        s.shared_actual_cycles = 40;
        assert!((s.bank_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn coalescing_efficiency() {
        let s = KernelStats {
            global_load_bytes: 256,
            global_load_sectors: 8,
            ..KernelStats::ZERO
        };
        assert!((s.load_coalescing() - 1.0).abs() < 1e-12);
        let sparse = KernelStats {
            global_load_bytes: 256,
            global_load_sectors: 32,
            ..KernelStats::ZERO
        };
        assert!((sparse.load_coalescing() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sum_over_blocks() {
        let per_block = KernelStats {
            blocks: 1,
            flops: 7,
            ..KernelStats::ZERO
        };
        let total: KernelStats = (0..9).map(|_| per_block).sum();
        assert_eq!(total.blocks, 9);
        assert_eq!(total.flops, 63);
    }
}
