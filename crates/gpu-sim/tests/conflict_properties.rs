//! Property tests of the bank-conflict and coalescing models — the
//! accounting layer every swizzle claim rests on.

use proptest::prelude::*;
use tfno_gpu_sim::shared::{warp_bank_cycles, warp_bank_cycles_wide, LANES_PER_PHASE};
use tfno_gpu_sim::{GpuDevice, WarpIdx};

proptest! {
    /// Utilization is always in (0, 1]; actual >= ideal.
    #[test]
    fn prop_utilization_bounds(addrs in proptest::collection::vec(0usize..4096, 32)) {
        let idx = WarpIdx::from_fn(|l| Some(addrs[l]));
        let s = warp_bank_cycles(&idx);
        prop_assert!(s.actual_cycles >= s.ideal_cycles);
        prop_assert!(s.ideal_cycles >= 1);
        let u = s.utilization();
        prop_assert!(u > 0.0 && u <= 1.0);
    }

    /// Permuting lanes *within a phase* cannot change the replay count
    /// (banks do not care which lane asks).
    #[test]
    fn prop_phase_permutation_invariance(
        addrs in proptest::collection::vec(0usize..1024, 32),
        swap_a in 0usize..16,
        swap_b in 0usize..16,
    ) {
        let base = WarpIdx::from_fn(|l| Some(addrs[l]));
        let mut permuted = addrs.clone();
        permuted.swap(swap_a, swap_b); // both lanes in phase 0
        let perm = WarpIdx::from_fn(|l| Some(permuted[l]));
        prop_assert_eq!(warp_bank_cycles(&base).actual_cycles,
                        warp_bank_cycles(&perm).actual_cycles);
    }

    /// A uniform shift of all addresses by a multiple of the bank period
    /// (16 elements = 32 words) preserves conflict structure exactly.
    #[test]
    fn prop_bank_period_shift_invariance(
        addrs in proptest::collection::vec(0usize..512, 32),
        shift in 0usize..8,
    ) {
        let base = WarpIdx::from_fn(|l| Some(addrs[l]));
        let shifted = WarpIdx::from_fn(|l| Some(addrs[l] + shift * 16));
        prop_assert_eq!(warp_bank_cycles(&base).actual_cycles,
                        warp_bank_cycles(&shifted).actual_cycles);
    }

    /// Contiguous accesses are always conflict-free at any base.
    #[test]
    fn prop_contiguous_always_clean(base in 0usize..100_000) {
        let idx = WarpIdx::contiguous(base);
        let s = warp_bank_cycles(&idx);
        prop_assert_eq!(s.actual_cycles, s.ideal_cycles);
    }

    /// Wide (vectorized) accesses never produce more phases than scalar
    /// accesses of the same footprint would, and stay within bounds.
    #[test]
    fn prop_wide_access_sane(base in 0usize..4096, width_sel in 0usize..3) {
        let width = [1usize, 2, 4][width_sel];
        let lanes = LANES_PER_PHASE / width;
        let idx = WarpIdx::from_fn(|l| (l < lanes).then(|| base + l * width));
        let s = warp_bank_cycles_wide(&idx, width);
        // a dense block of 16 contiguous elements is one clean phase
        prop_assert_eq!(s.ideal_cycles, 1);
        prop_assert_eq!(s.actual_cycles, 1);
    }

    /// Global coalescing: a contiguous warp read costs exactly 8 sectors;
    /// any other pattern costs at least as many.
    #[test]
    fn prop_contiguous_coalescing_is_optimal(
        offsets in proptest::collection::vec(0usize..64, 32),
    ) {
        let mut dev = GpuDevice::a100();
        let buf = dev.alloc("p", 8192);
        let dense = dev.memory.access_cost(buf, &WarpIdx::contiguous(0));
        prop_assert_eq!(dense.sectors, 8);
        let scattered = WarpIdx::from_fn(|l| Some(l * 64 + offsets[l] % 32));
        let cost = dev.memory.access_cost(buf, &scattered);
        prop_assert!(cost.sectors >= 8);
        prop_assert!(cost.sectors <= 64, "an 8B element spans at most 2 sectors");
    }
}

/// Broadcast degenerates to a single conflict-free cycle per phase.
#[test]
fn broadcast_has_unit_cost() {
    for elem in [0usize, 7, 31, 1000] {
        let idx = WarpIdx::from_fn(|_| Some(elem));
        let s = warp_bank_cycles(&idx);
        assert_eq!(s.actual_cycles, s.ideal_cycles);
    }
}

// ---- fast accounting vs its reference oracles ------------------------------
//
// The metered executor charges every access through allocation-free
// implementations (stack buffers + a monotonic fast path). The plain
// heap-allocating formulations `warp_bank_cycles_wide_alloc` and
// `GlobalMemory::access_cost_alloc` are their oracles; these properties
// pin the two bitwise equal over arbitrary patterns.

use tfno_gpu_sim::shared::warp_bank_cycles_wide_alloc;

proptest! {
    /// Stack-buffer bank accounting == the allocating oracle, for
    /// every vector width and random (partially predicated) patterns.
    #[test]
    fn prop_fast_bank_accounting_matches_alloc(
        addrs in proptest::collection::vec(0usize..4096, 32),
        mask in proptest::collection::vec(0usize..2, 32),
        width_sel in 0usize..3,
    ) {
        let width = [1usize, 2, 4][width_sel];
        let idx = WarpIdx::from_fn(|l| (mask[l] == 1).then_some(addrs[l]));
        prop_assert_eq!(
            warp_bank_cycles_wide(&idx, width),
            warp_bank_cycles_wide_alloc(&idx, width)
        );
    }

    /// Sector accounting with the monotonic fast path == the allocating
    /// dedupe oracle, over random (non-monotonic included) patterns.
    #[test]
    fn prop_fast_sector_accounting_matches_alloc(
        addrs in proptest::collection::vec(0usize..2048, 32),
        mask in proptest::collection::vec(0usize..2, 32),
    ) {
        let mut dev = GpuDevice::a100();
        let buf = dev.alloc("b", 2048);
        let idx = WarpIdx::from_fn(|l| (mask[l] == 1).then_some(addrs[l]));
        let fast = dev.memory.access_cost(buf, &idx);
        let slow = dev.memory.access_cost_alloc(buf, &idx);
        prop_assert_eq!(fast.bytes, slow.bytes);
        prop_assert_eq!(fast.sectors, slow.sectors);
    }

    /// Strictly increasing strided patterns (the executor's common case)
    /// also agree — exercises the monotonic fast path specifically.
    #[test]
    fn prop_monotonic_sector_fast_path(
        base in 0usize..64,
        stride in 1usize..60,
    ) {
        let mut dev = GpuDevice::a100();
        let buf = dev.alloc("b", 64 + 32 * 60);
        let idx = WarpIdx::strided(base, stride);
        let fast = dev.memory.access_cost(buf, &idx);
        let slow = dev.memory.access_cost_alloc(buf, &idx);
        prop_assert_eq!(fast.sectors, slow.sectors);
    }
}
