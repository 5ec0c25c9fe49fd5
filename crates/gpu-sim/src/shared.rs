//! Shared-memory model: 32 banks x 4 bytes, with conflict replay.
//!
//! One `C32` element occupies two consecutive 4-byte words, i.e. two
//! neighboring banks — exactly the layout drawn in the paper's Figs. 7/8
//! ("each small square represents a single-precision complex number
//! (8 bytes, occupying two banks)").
//!
//! Hardware services an 8-byte-per-lane warp access as two 16-lane phases
//! of 128 bytes each. Within a phase the number of replays equals the
//! maximum, over banks, of the number of *distinct* words addressed in that
//! bank (identical words broadcast for free). Bank utilization therefore is
//! `ideal_cycles / actual_cycles`, which reproduces the paper's 6.25% / 25%
//! / 100% figures at address level (see the unit tests below).

use crate::warp::{WarpIdx, WARP_SIZE};
use tfno_num::C32;

/// Number of banks and bank width (A100 and every recent NVIDIA part).
pub const NUM_BANKS: usize = 32;
/// Words (4 B) per `C32` element.
pub const WORDS_PER_ELEM: usize = 2;
/// Lanes serviced per shared-memory phase for 8-byte accesses.
pub const LANES_PER_PHASE: usize = 16;

/// Accumulated conflict accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Phases that would be needed with zero conflicts.
    pub ideal_cycles: u64,
    /// Phases actually needed after replaying conflicted banks.
    pub actual_cycles: u64,
}

impl std::ops::AddAssign for BankStats {
    fn add_assign(&mut self, o: BankStats) {
        self.ideal_cycles += o.ideal_cycles;
        self.actual_cycles += o.actual_cycles;
    }
}

impl BankStats {
    pub fn utilization(&self) -> f64 {
        if self.actual_cycles == 0 {
            1.0
        } else {
            self.ideal_cycles as f64 / self.actual_cycles as f64
        }
    }
}

/// Compute `(ideal, actual)` phase counts for one warp access of 8-byte
/// elements at the given element indices.
pub fn warp_bank_cycles(idx: &WarpIdx) -> BankStats {
    warp_bank_cycles_wide(idx, 1)
}

/// Bank accounting for *vectorized* accesses: each active lane touches
/// `width` consecutive `C32` elements starting at its index (width 1, 2 or
/// 4 model 8/16/32-byte per-lane loads — `LDS.64/LDS.128`-class traffic).
/// Lanes are grouped into phases of 128 bytes each, exactly like hardware.
///
/// Allocation-free: a phase moves at most 128 bytes = 32 words, so the
/// distinct-word set fits a stack buffer. Counts every warp of a block
/// shape's precomputed shared traffic, and every layout-dependent shared
/// transfer of a metered block. The plain per-bank formulation
/// [`warp_bank_cycles_wide_alloc`] is its test oracle; a property test
/// pins them equal.
pub fn warp_bank_cycles_wide(idx: &WarpIdx, width: usize) -> BankStats {
    assert!(
        matches!(width, 1 | 2 | 4),
        "unsupported vector width {width}"
    );
    /// Upper bound on distinct words in one 128-byte phase.
    const PHASE_WORDS: usize = LANES_PER_PHASE * WORDS_PER_ELEM;
    let lanes_per_phase = LANES_PER_PHASE / width;
    let mut ideal = 0u64;
    let mut actual = 0u64;
    for phase_base in (0..WARP_SIZE).step_by(lanes_per_phase) {
        // Distinct words addressed within this phase.
        let mut words = [0usize; PHASE_WORDS];
        let mut n_words = 0usize;
        let mut any = false;
        for lane in phase_base..(phase_base + lanes_per_phase).min(WARP_SIZE) {
            if let Some(elem) = idx.lanes[lane] {
                any = true;
                let w0 = elem * WORDS_PER_ELEM;
                for w in w0..w0 + width * WORDS_PER_ELEM {
                    if !words[..n_words].contains(&w) {
                        words[n_words] = w;
                        n_words += 1;
                    }
                }
            }
        }
        if any {
            ideal += 1;
            // Replays = max over banks of distinct words in that bank.
            let mut per_bank = [0u8; NUM_BANKS];
            let mut replays = 1u8;
            for &w in &words[..n_words] {
                let bank = w % NUM_BANKS;
                per_bank[bank] += 1;
                replays = replays.max(per_bank[bank]);
            }
            actual += replays as u64;
        }
    }
    BankStats {
        ideal_cycles: ideal,
        actual_cycles: actual,
    }
}

/// Reference implementation of [`warp_bank_cycles_wide`]: the direct
/// per-bank distinct-word count, one heap allocation per bank per phase.
/// The executor never calls it; it is the oracle the `conflict_properties`
/// property tests check the allocation-free version against.
pub fn warp_bank_cycles_wide_alloc(idx: &WarpIdx, width: usize) -> BankStats {
    assert!(
        matches!(width, 1 | 2 | 4),
        "unsupported vector width {width}"
    );
    let lanes_per_phase = LANES_PER_PHASE / width;
    let mut ideal = 0u64;
    let mut actual = 0u64;
    for phase_base in (0..WARP_SIZE).step_by(lanes_per_phase) {
        // Distinct words per bank within this phase.
        let mut words_per_bank: [Vec<usize>; NUM_BANKS] = std::array::from_fn(|_| Vec::new());
        let mut any = false;
        for lane in phase_base..(phase_base + lanes_per_phase).min(WARP_SIZE) {
            if let Some(elem) = idx.lanes[lane] {
                any = true;
                let w0 = elem * WORDS_PER_ELEM;
                for w in w0..w0 + width * WORDS_PER_ELEM {
                    let bank = w % NUM_BANKS;
                    if !words_per_bank[bank].contains(&w) {
                        words_per_bank[bank].push(w);
                    }
                }
            }
        }
        if any {
            ideal += 1;
            let replays = words_per_bank
                .iter()
                .map(|v| v.len())
                .max()
                .unwrap_or(0)
                .max(1);
            actual += replays as u64;
        }
    }
    BankStats {
        ideal_cycles: ideal,
        actual_cycles: actual,
    }
}

/// Per-block shared memory with conflict accounting.
///
/// Kernels move data through the slice directly ([`SharedMem::raw`] /
/// [`SharedMem::raw_mut`]); a metered block charges each access's bank
/// phases separately, either precomputed for its block shape or from the
/// warp's lane addresses via [`warp_bank_cycles`]. Out-of-bounds indices
/// panic like any slice access.
#[derive(Debug)]
pub struct SharedMem {
    data: Vec<C32>,
    pub load_stats: BankStats,
    pub store_stats: BankStats,
}

impl SharedMem {
    /// Allocate `bytes` of shared memory (rounded down to whole elements).
    pub fn new(bytes: usize) -> Self {
        SharedMem {
            data: vec![C32::ZERO; bytes / (WORDS_PER_ELEM * 4)],
            load_stats: BankStats::default(),
            store_stats: BankStats::default(),
        }
    }

    /// Re-arm for the next block of the same launch: zero the data (each
    /// block sees fresh scratch, as `new` gives) but keep the bank
    /// statistics accumulating across blocks. Lets the executor reuse one
    /// allocation per worker instead of reallocating per block.
    pub fn reset_for_block(&mut self) {
        self.data.fill(C32::ZERO);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Charge load phases.
    pub fn charge_loads(&mut self, s: BankStats) {
        self.load_stats += s;
    }

    /// Charge store phases.
    pub fn charge_stores(&mut self, s: BankStats) {
        self.store_stats += s;
    }

    /// The block's shared elements.
    pub fn raw(&self) -> &[C32] {
        &self.data
    }

    /// The block's shared elements, mutably.
    pub fn raw_mut(&mut self) -> &mut [C32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Contiguous lanes -> element addresses lane apart -> conflict-free.
    #[test]
    fn contiguous_access_is_conflict_free() {
        let w = WarpIdx::contiguous(0);
        let s = warp_bank_cycles(&w);
        assert_eq!(s.ideal_cycles, 2);
        assert_eq!(s.actual_cycles, 2);
        assert_eq!(s.utilization(), 1.0);
    }

    /// The paper's Fig. 7(b) left: 16 threads writing element `tid * 16`
    /// (register j of a 16-point-per-thread FFT) all land in one bank pair:
    /// 2/32 banks active = 6.25% utilization = 16 replays.
    #[test]
    fn fig7b_unswizzled_16pt_fft_writeback() {
        let w = WarpIdx::from_fn(|l| (l < 16).then_some(l * 16));
        let s = warp_bank_cycles(&w);
        assert_eq!(s.ideal_cycles, 1);
        assert_eq!(s.actual_cycles, 16);
        assert!((s.utilization() - 0.0625).abs() < 1e-12);
    }

    /// Fig. 7(b) right: adding `tid` to the address removes all conflicts.
    #[test]
    fn fig7b_swizzled_16pt_fft_writeback() {
        let w = WarpIdx::from_fn(|l| (l < 16).then_some(l * 16 + l));
        let s = warp_bank_cycles(&w);
        assert_eq!(s.actual_cycles, 1);
        assert_eq!(s.utilization(), 1.0);
    }

    /// Fig. 7(c): 8-point-per-thread FFT. Unswizzled: threads t and t+2
    /// collide (8-element stride wraps the 32 banks every 2 lanes) -> 8-way
    /// conflict. Offset `tid / 2` is already enough for 100%.
    #[test]
    fn fig7c_8pt_fft_swizzle() {
        let raw = WarpIdx::from_fn(|l| (l < 16).then_some(l * 8));
        let s = warp_bank_cycles(&raw);
        assert_eq!(s.actual_cycles, 8);
        let swz = WarpIdx::from_fn(|l| (l < 16).then_some(l * 8 + l / 2));
        let t = warp_bank_cycles(&swz);
        assert_eq!(t.actual_cycles, 1, "tid/2 offset must clear conflicts");
    }

    /// Broadcast: all lanes reading the same element costs one cycle.
    #[test]
    fn broadcast_is_free() {
        let w = WarpIdx::from_fn(|_| Some(42));
        let s = warp_bank_cycles(&w);
        assert_eq!(s.actual_cycles, 2); // two 16-lane phases, 1 cycle each
        assert_eq!(s.ideal_cycles, 2);
    }

    /// A 2-way conflict: lanes l and l+16 within a phase... lanes 0..16 with
    /// stride 16 elements = 32 words: every lane hits bank pair (0,1).
    #[test]
    fn stride_16_elements_serializes() {
        let w = WarpIdx::from_fn(|l| (l < 16).then_some(l * 16));
        assert_eq!(warp_bank_cycles(&w).actual_cycles, 16);
    }

    /// Move one warp's values through the slice and charge the store and
    /// the load from the lane addresses, the way a metered block does.
    fn store_warp(sm: &mut SharedMem, idx: &WarpIdx, vals: &[C32; WARP_SIZE]) {
        for (lane, elem) in idx.iter_active() {
            sm.raw_mut()[elem] = vals[lane];
        }
        sm.charge_stores(warp_bank_cycles(idx));
    }

    fn load_warp(sm: &mut SharedMem, idx: &WarpIdx) -> [C32; WARP_SIZE] {
        let mut out = [C32::ZERO; WARP_SIZE];
        for (lane, elem) in idx.iter_active() {
            out[lane] = sm.raw()[elem];
        }
        sm.charge_loads(warp_bank_cycles(idx));
        out
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut sm = SharedMem::new(1024);
        let idx = WarpIdx::contiguous(7);
        let mut vals = [C32::ZERO; WARP_SIZE];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = C32::new(i as f32, -(i as f32));
        }
        store_warp(&mut sm, &idx, &vals);
        let back = load_warp(&mut sm, &idx);
        assert_eq!(back, vals);
        assert_eq!(sm.store_stats.actual_cycles, 2);
        assert_eq!(sm.load_stats.actual_cycles, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_store_panics() {
        let mut sm = SharedMem::new(64);
        let idx = WarpIdx::contiguous(0);
        store_warp(&mut sm, &idx, &[C32::ZERO; WARP_SIZE]);
    }

    /// Utilization accumulates across multiple accesses.
    #[test]
    fn stats_accumulate() {
        let mut sm = SharedMem::new(16 * 1024);
        let good = WarpIdx::contiguous(0);
        let bad = WarpIdx::from_fn(|l| (l < 16).then_some(l * 16));
        store_warp(&mut sm, &good, &[C32::ZERO; WARP_SIZE]);
        store_warp(&mut sm, &bad, &[C32::ZERO; WARP_SIZE]);
        assert_eq!(sm.store_stats.ideal_cycles, 3);
        assert_eq!(sm.store_stats.actual_cycles, 18);
    }
}
