//! Device configuration and the occupancy calculator.
//!
//! [`DeviceConfig::a100()`] carries the published A100-40GB (PCIe) numbers
//! the paper's evaluation platform has; every constant the cost model uses
//! is documented here so a reviewer can audit the substitution.

/// Static description of the simulated GPU.
///
/// ```
/// use tfno_gpu_sim::DeviceConfig;
/// let a100 = DeviceConfig::a100();
/// assert_eq!(a100.num_sms, 108);
/// // a 128-thread block using 16 KiB of shared memory:
/// let occ = a100.occupancy(128, 16 * 1024, 40);
/// assert!(occ.blocks_per_sm >= 8);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceConfig {
    pub name: &'static str,
    /// Number of streaming multiprocessors (A100: 108).
    pub num_sms: u32,
    /// Maximum resident threads per SM (A100: 2048).
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM (A100: 32).
    pub max_blocks_per_sm: u32,
    /// Usable shared memory per SM in bytes (A100: up to 164 KiB).
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory a single block may request.
    pub shared_mem_per_block_max: usize,
    /// 32-bit registers per SM (A100: 65536).
    pub regs_per_sm: u32,
    /// SIMT width (32 on every NVIDIA architecture to date).
    pub warp_size: u32,
    /// Number of shared-memory banks (32) and their width in bytes (4).
    pub shared_banks: u32,
    pub bank_width_bytes: u32,
    /// Boost clock in GHz (A100: 1.41).
    pub clock_ghz: f64,
    /// HBM2 bandwidth in GB/s (A100-40GB PCIe: 1555).
    pub dram_bw_gbps: f64,
    /// Peak FP32 CUDA-core throughput in GFLOP/s (A100: 19500).
    pub fp32_gflops: f64,
    /// Shared-memory bandwidth per SM in bytes/clock (A100: 128 B/clk).
    pub shared_bytes_per_clk_per_sm: f64,
    /// Fixed host-side kernel-launch overhead in microseconds. The paper's
    /// motivation (Fig. 1c) counts one launch per pipeline stage; 4 us is a
    /// representative CUDA launch + driver latency on a PCIe part.
    pub kernel_launch_overhead_us: f64,
    /// Cost of one block-wide `__syncthreads()` in cycles (barrier latency
    /// plus the average pipeline drain it forces).
    pub syncthreads_cycles: f64,
    /// Saturation constant for DRAM bandwidth utilization: with `a`
    /// resident blocks, effective bandwidth is `BW * a / (a + k)`.
    /// Calibrated so a full wave (108+ blocks) reaches >85% of peak while
    /// single-digit grids are severely launch/latency limited — the effect
    /// behind the paper's Fig. 14 "blue regions".
    pub bw_sat_blocks: f64,
    /// Saturation constant for compute-throughput utilization in resident
    /// *warps* per SM (A100 needs ~8 warps/SM to hide ALU latency).
    pub compute_sat_warps: f64,
}

impl DeviceConfig {
    /// The paper's evaluation platform: NVIDIA A100-PCIE-40GB, CUDA 12.4.
    pub fn a100() -> Self {
        DeviceConfig {
            name: "A100-PCIE-40GB (simulated)",
            num_sms: 108,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 164 * 1024,
            shared_mem_per_block_max: 160 * 1024,
            regs_per_sm: 65536,
            warp_size: 32,
            shared_banks: 32,
            bank_width_bytes: 4,
            clock_ghz: 1.41,
            dram_bw_gbps: 1555.0,
            fp32_gflops: 19500.0,
            shared_bytes_per_clk_per_sm: 128.0,
            kernel_launch_overhead_us: 4.0,
            syncthreads_cycles: 30.0,
            bw_sat_blocks: 48.0,
            compute_sat_warps: 8.0,
        }
    }

    /// A small test device (4 SMs) so occupancy edge cases are reachable in
    /// unit tests without astronomically sized grids.
    pub fn tiny() -> Self {
        DeviceConfig {
            name: "tiny-test-device",
            num_sms: 4,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 4,
            shared_mem_per_sm: 32 * 1024,
            shared_mem_per_block_max: 16 * 1024,
            regs_per_sm: 16384,
            ..Self::a100()
        }
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// DRAM bandwidth in bytes/us.
    pub fn dram_bytes_per_us(&self) -> f64 {
        self.dram_bw_gbps * 1e3
    }

    /// FP32 throughput in flop/us.
    pub fn fp32_flops_per_us(&self) -> f64 {
        self.fp32_gflops * 1e3
    }

    /// Compute the occupancy for a block shape.
    pub fn occupancy(
        &self,
        threads_per_block: u32,
        shared_bytes: usize,
        regs_per_thread: u32,
    ) -> Occupancy {
        assert!(threads_per_block > 0, "empty blocks are not launchable");
        assert!(
            shared_bytes <= self.shared_mem_per_block_max,
            "block requests {shared_bytes} B shared memory, device max is {}",
            self.shared_mem_per_block_max
        );
        let by_threads = self.max_threads_per_sm / threads_per_block.max(1);
        let by_blocks = self.max_blocks_per_sm;
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes)
            .map_or(u32::MAX, |b| b as u32);
        let regs_per_block = regs_per_thread.max(1) * threads_per_block;
        // INVARIANT: regs_per_block > 0 (both factors are clamped/asserted
        // above), so checked_div is Some; the unwrap_or arm only documents
        // "no register limit" and is unreachable for user inputs.
        let by_regs = self
            .regs_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(u32::MAX);
        let blocks_per_sm = by_threads.min(by_blocks).min(by_shared).min(by_regs);
        let limiter = if blocks_per_sm == by_threads {
            OccupancyLimiter::Threads
        } else if blocks_per_sm == by_shared {
            OccupancyLimiter::SharedMemory
        } else if blocks_per_sm == by_regs {
            OccupancyLimiter::Registers
        } else {
            OccupancyLimiter::BlockSlots
        };
        Occupancy {
            blocks_per_sm,
            limiter,
            warps_per_sm: blocks_per_sm * threads_per_block.div_ceil(self.warp_size),
        }
    }
}

/// What limits residency for a given block shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OccupancyLimiter {
    Threads,
    SharedMemory,
    Registers,
    BlockSlots,
}

/// Result of the occupancy calculation.
#[derive(Clone, Copy, Debug)]
pub struct Occupancy {
    /// How many blocks of this shape fit on one SM simultaneously.
    pub blocks_per_sm: u32,
    /// The binding resource.
    pub limiter: OccupancyLimiter,
    /// Resident warps per SM at that residency.
    pub warps_per_sm: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_headline_numbers() {
        let d = DeviceConfig::a100();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.shared_banks, 32);
        assert!((d.dram_bytes_per_us() - 1_555_000.0).abs() < 1.0);
        assert!((d.fp32_flops_per_us() - 19_500_000.0).abs() < 1.0);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let d = DeviceConfig::a100();
        let o = d.occupancy(1024, 0, 32);
        // 2048 / 1024 = 2 blocks by threads; registers allow 65536/(32*1024)=2
        assert_eq!(o.blocks_per_sm, 2);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let d = DeviceConfig::a100();
        let o = d.occupancy(128, 96 * 1024, 16);
        assert_eq!(o.blocks_per_sm, 1);
        assert_eq!(o.limiter, OccupancyLimiter::SharedMemory);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let d = DeviceConfig::a100();
        // 256 threads * 128 regs = 32768 regs/block -> 2 blocks; threads
        // would allow 8, blocks 32, shared unlimited.
        let o = d.occupancy(256, 0, 128);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.limiter, OccupancyLimiter::Registers);
    }

    #[test]
    fn occupancy_limited_by_block_slots() {
        let d = DeviceConfig::a100();
        let o = d.occupancy(32, 0, 16);
        // Tiny blocks: thread limit would be 64, but slot limit is 32.
        assert_eq!(o.blocks_per_sm, 32);
        assert_eq!(o.limiter, OccupancyLimiter::BlockSlots);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn oversized_shared_request_rejected() {
        let d = DeviceConfig::a100();
        d.occupancy(128, 200 * 1024, 16);
    }

    #[test]
    fn warps_per_sm_follows_blocks() {
        let d = DeviceConfig::a100();
        let o = d.occupancy(256, 0, 32);
        assert_eq!(o.warps_per_sm, o.blocks_per_sm * 8);
    }
}
