//! Block-level execution: [`BlockCtx`], [`ThreadCtx`] and block shared
//! memory.
//!
//! A kernel is a `Fn(&mut BlockCtx)` run once per block of the grid. Inside,
//! the kernel structures its work as *phases*: each call to
//! [`BlockCtx::threads`] runs a per-thread closure for every thread of the
//! block and ends with an implicit `__syncthreads()`. This is exactly the
//! barrier-separated structure CUDA kernels have, and it lets the simulator
//! execute a block's threads sequentially (no host synchronization) while
//! still modelling SIMT timing:
//!
//! * threads accumulate cycles through the `charge_*` API as they do real
//!   work;
//! * at the end of a phase, threads fold into warps — a warp costs as much
//!   as its slowest thread (lockstep), which is also how branch divergence
//!   manifests;
//! * warps fold into the SM's issue slots with the standard makespan lower
//!   bound `max(Σwarp / slots, max warp)`.

use crate::cost::{AccessPattern, CostModel};
use crate::stats::Counters;

/// Execution context for one block of a launch. Created by the launcher;
/// kernels receive `&mut BlockCtx` and never construct one themselves.
pub struct BlockCtx<'k> {
    block_idx: u32,
    grid_dim: u32,
    block_dim: u32,
    warp_size: u32,
    warp_slots: u32,
    shared_capacity: u32,
    shared_used: u32,
    cost: &'k CostModel,
    cycles: f64,
    counters: Counters,
    thread_cycles: Vec<f64>,
}

impl<'k> BlockCtx<'k> {
    /// Internal constructor used by the launcher.
    pub(crate) fn new(
        block_idx: u32,
        grid_dim: u32,
        block_dim: u32,
        warp_size: u32,
        warp_slots: u32,
        shared_capacity: u32,
        cost: &'k CostModel,
    ) -> Self {
        Self {
            block_idx,
            grid_dim,
            block_dim,
            warp_size,
            warp_slots: warp_slots.max(1),
            shared_capacity,
            shared_used: 0,
            cost,
            cycles: 0.0,
            counters: Counters::default(),
            thread_cycles: vec![0.0; block_dim as usize],
        }
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Allocates a block-shared scratch array, like `__shared__ T buf[len]`.
    ///
    /// # Panics
    /// Panics when the block's shared-memory budget (validated against the
    /// device at launch) is exceeded — the same failure mode as a CUDA
    /// compile/launch error, and a kernel-authoring bug rather than a
    /// runtime condition.
    pub fn shared_array<T: Copy + Default>(&mut self, len: usize) -> SharedArray<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u32;
        assert!(
            self.shared_used + bytes <= self.shared_capacity,
            "block shared memory overflow: {} + {} B > {} B capacity",
            self.shared_used,
            bytes,
            self.shared_capacity
        );
        self.shared_used += bytes;
        SharedArray {
            data: vec![T::default(); len],
        }
    }

    /// Shared-memory bytes allocated so far in this block.
    pub fn shared_used(&self) -> u32 {
        self.shared_used
    }

    /// Runs one barrier-separated phase: `f` is invoked for every thread
    /// `tid ∈ [0, block_dim)` with a fresh [`ThreadCtx`], then the phase's
    /// cycle bill is folded warp-wise and added to the block total,
    /// including the barrier cost.
    pub fn threads<F: FnMut(&mut ThreadCtx)>(&mut self, mut f: F) {
        for tid in 0..self.block_dim {
            let mut t = ThreadCtx {
                tid,
                block_idx: self.block_idx,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
                warp_size: self.warp_size,
                cost: self.cost,
                cycles: 0.0,
                counters: Counters::default(),
            };
            f(&mut t);
            self.thread_cycles[tid as usize] = t.cycles;
            self.counters.merge(&t.counters);
        }
        self.fold_phase();
    }

    /// Runs a phase where only one thread of the block does work — the
    /// paper's Phase 1 launches one worker thread per block. Cheaper than
    /// `threads` with an `if tid == 0` guard and models the same cost (the
    /// warp's other lanes idle at the worker's pace).
    pub fn one_thread<F: FnOnce(&mut ThreadCtx)>(&mut self, f: F) {
        let mut t = ThreadCtx {
            tid: 0,
            block_idx: self.block_idx,
            block_dim: self.block_dim,
            grid_dim: self.grid_dim,
            warp_size: self.warp_size,
            cost: self.cost,
            cycles: 0.0,
            counters: Counters::default(),
        };
        f(&mut t);
        self.counters.merge(&t.counters);
        self.counters.syncs += 1;
        self.cycles += t.cycles + self.cost.sync;
    }

    fn fold_phase(&mut self) {
        let ws = self.warp_size as usize;
        let mut sum = 0.0f64;
        let mut maxw = 0.0f64;
        for warp in self.thread_cycles.chunks(ws) {
            let w = warp.iter().copied().fold(0.0f64, f64::max);
            sum += w;
            if w > maxw {
                maxw = w;
            }
        }
        let phase = (sum / self.warp_slots as f64).max(maxw);
        self.counters.syncs += 1;
        self.cycles += phase + self.cost.sync;
        self.thread_cycles.iter_mut().for_each(|c| *c = 0.0);
    }

    /// Total cycles this block has accumulated, rounded to whole cycles.
    /// The launcher reads this once the kernel body returns.
    pub(crate) fn finish(self) -> (u64, Counters) {
        (self.cycles.round() as u64, self.counters)
    }
}

/// Per-thread execution context: identity plus the cycle-charging API.
///
/// The `charge_*` methods are how kernels attach the cost model to the real
/// work they do; see [`crate::cost::CostModel`] for the constants.
pub struct ThreadCtx<'k> {
    /// `threadIdx.x`.
    pub tid: u32,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    warp_size: u32,
    cost: &'k CostModel,
    cycles: f64,
    counters: Counters,
}

impl ThreadCtx<'_> {
    /// `blockIdx.x * blockDim.x + threadIdx.x` — the canonical global id.
    pub fn global_idx(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.tid as usize
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Charges `n` ALU/compare/move instructions.
    #[inline]
    pub fn charge_alu(&mut self, n: u64) {
        self.cycles += self.cost.alu * n as f64;
        self.counters.alu += n;
    }

    /// Charges `n` shared-memory accesses (assumed conflict-free: one bank
    /// pass each).
    #[inline]
    pub fn charge_shared(&mut self, n: u64) {
        self.cycles += self.cost.shared_access * n as f64;
        self.counters.shared_accesses += n;
        self.counters.shared_bank_passes += n;
    }

    /// Charges `n` shared-memory accesses that each suffer a `degree`-way
    /// bank conflict: the hardware serializes them into `degree` bank
    /// passes apiece, so both the cycle bill and the bank-pass counter
    /// scale by `degree` (clamped to at least 1).
    #[inline]
    pub fn charge_shared_conflicted(&mut self, n: u64, degree: u32) {
        let d = degree.max(1) as u64;
        self.cycles += self.cost.shared_access * (n * d) as f64;
        self.counters.shared_accesses += n;
        self.counters.shared_bank_passes += n * d;
    }

    /// Charges `elems` global-memory accesses of `elem_bytes`-sized values
    /// under `pattern`. Cost is the warp-amortized transaction bill.
    #[inline]
    pub fn charge_global(&mut self, elems: u64, elem_bytes: u32, pattern: AccessPattern) {
        let per = self
            .cost
            .global_cost_per_elem(pattern, elem_bytes, self.warp_size);
        self.cycles += per * elems as f64;
        self.counters.global_elems += elems;
        let txns_per_warp = self
            .cost
            .warp_transactions(pattern, elem_bytes, self.warp_size);
        self.counters.global_txn_micro +=
            (txns_per_warp as u64 * elems * 1_000_000) / self.warp_size as u64;
    }

    /// Charges `accesses` *latency-bound* global accesses: serial code (a
    /// single worker thread with no other warps to hide behind) pays the
    /// full exposed latency each time.
    #[inline]
    pub fn charge_global_serial(&mut self, accesses: u64) {
        self.cycles += self.cost.global_latency * accesses as f64;
        self.counters.global_elems += accesses;
        self.counters.global_txn_micro += accesses * 1_000_000;
    }

    /// Charges `n` global atomic RMW operations.
    #[inline]
    pub fn charge_atomic_global(&mut self, n: u64) {
        self.cycles += self.cost.atomic_global * n as f64;
        self.counters.atomics_global += n;
    }

    /// Charges `n` shared-memory atomic RMW operations.
    #[inline]
    pub fn charge_atomic_shared(&mut self, n: u64) {
        self.cycles += self.cost.atomic_shared * n as f64;
        self.counters.atomics_shared += n;
    }

    /// Charges `n` shared-memory atomic RMWs that each contend with
    /// `degree − 1` other lanes of the warp on the **same address**: the
    /// hardware serializes same-word RMWs, so the cycle bill scales by
    /// `degree` (clamped to at least 1). The operation count does not —
    /// contention makes atomics slower, not more numerous.
    #[inline]
    pub fn charge_atomic_shared_contended(&mut self, n: u64, degree: u32) {
        let d = degree.max(1) as u64;
        self.cycles += self.cost.atomic_shared * (n * d) as f64;
        self.counters.atomics_shared += n;
    }

    /// Charges the calibrated per-element overhead of the Thrust-era
    /// radix sort ([`CostModel::thrust_elem_cycles`]) for `elems` elements
    /// of one pass, split by `fraction` between the pass's kernels.
    #[inline]
    pub fn charge_baseline_sort(&mut self, elems: u64, fraction: f64) {
        self.charge_baseline_cycles(self.cost.thrust_elem_cycles * fraction * elems as f64);
    }

    /// Charges raw calibration cycles (tracked separately in the counters
    /// so reports can distinguish structural from calibrated cost). Used
    /// by baseline kernels whose end-to-end throughput is anchored to
    /// published/measured numbers rather than derived from first
    /// principles.
    #[inline]
    pub fn charge_baseline_cycles(&mut self, cycles: f64) {
        self.cycles += cycles;
        self.counters.baseline_cycles += cycles.round() as u64;
    }

    /// Records `events` divergent-branch events: the warp executes both
    /// sides, so each event costs extra cycles on top of whatever work the
    /// thread charged.
    #[inline]
    pub fn charge_divergence(&mut self, events: u64) {
        self.cycles += self.cost.divergence * events as f64;
        self.counters.divergence_events += events;
    }

    /// Threads per warp on this device (the lockstep fold width).
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Charges `n` warp-vote instructions (`ballot`/`match_any` class).
    /// Votes ride the register file: no shared accesses, no bank passes.
    #[inline]
    pub fn charge_warp_vote(&mut self, n: u64) {
        self.cycles += self.cost.warp_vote * n as f64;
        self.counters.warp_votes += n;
    }

    /// Charges `n` warp-shuffle instructions (`shfl` class).
    #[inline]
    pub fn charge_warp_shuffle(&mut self, n: u64) {
        self.cycles += self.cost.warp_shuffle * n as f64;
        self.counters.warp_shuffles += n;
    }

    /// Records `n` bucket-overflow events
    /// ([`crate::stats::Counters::bucket_overflows`]). Bookkeeping only —
    /// zero cycles — so detecting an overflow never changes a clean run's
    /// bill; the *recovery* work (re-split kernels) is charged by the
    /// kernels that perform it.
    #[inline]
    pub fn record_bucket_overflow(&mut self, n: u64) {
        self.counters.bucket_overflows += n;
    }

    /// Charges one warp-exclusive prefix scan done with shuffles: the
    /// Kogge–Stone ladder is `⌈log₂ warp_size⌉` shuffle + add steps per
    /// lane (see [`crate::block::warp::exclusive_sum`] for the value
    /// semantics this bill belongs to).
    #[inline]
    pub fn charge_warp_scan(&mut self) {
        let steps = warp::scan_steps(self.warp_size) as u64;
        self.charge_warp_shuffle(steps);
        self.charge_alu(steps);
    }

    /// Cycles this thread has accumulated so far in the current phase.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }
}

/// Block-shared scratch memory (`__shared__`), allocated through
/// [`BlockCtx::shared_array`] and charged against the device's per-block
/// shared-memory capacity.
pub struct SharedArray<T> {
    data: Vec<T>,
}

impl<T> std::ops::Deref for SharedArray<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> std::ops::DerefMut for SharedArray<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> SharedArray<T> {
    /// The backing slice (alias of deref, for explicitness).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// Warp-level intrinsics with **honest value semantics**.
///
/// The simulator executes a block's threads sequentially, so warp-wide
/// collectives cannot be expressed inside a per-thread closure the way
/// CUDA writes them. Instead, kernels compute the collective's result
/// with these host-side reference functions (each takes the warp's lanes
/// as a slice, lane `i` at index `i`) and bill the cycles through
/// [`ThreadCtx::charge_warp_vote`] / [`ThreadCtx::charge_warp_shuffle`] /
/// [`ThreadCtx::charge_warp_scan`]. The functions are scalar and cheap
/// enough to run per warp group on the kernels' host path;
/// `tests/warp.rs` property-checks them against pairwise references.
pub mod warp {
    /// `__ballot_sync`: bitmask of lanes whose predicate holds. Lane `i`
    /// of `preds` maps to bit `i`. Panics past 64 lanes (no real part has
    /// them).
    pub fn ballot(preds: &[bool]) -> u64 {
        assert!(preds.len() <= 64, "ballot supports at most 64 lanes");
        preds
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| if p { m | (1u64 << i) } else { m })
    }

    /// `__match_any_sync`-style peer grouping: for each lane, the bitmask
    /// of lanes holding an **equal** value (always includes the lane
    /// itself).
    pub fn match_any(vals: &[u32]) -> Vec<u64> {
        assert!(vals.len() <= 64, "match_any supports at most 64 lanes");
        let mut masks = vec![0u64; vals.len()];
        for (i, &v) in vals.iter().enumerate() {
            if masks[i] != 0 {
                continue; // already filled in as a peer of a lower lane
            }
            // Lane i is the lowest lane holding v: one pass builds the
            // group's mask, which every member shares.
            let peers = vals[i..]
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w == v)
                .fold(0u64, |m, (j, _)| m | (1u64 << (i + j)));
            let mut rest = peers;
            while rest != 0 {
                masks[rest.trailing_zeros() as usize] = peers;
                rest &= rest - 1;
            }
        }
        masks
    }

    /// Warp-exclusive prefix sum (the shuffle-ladder scan): output lane
    /// `i` holds the sum of lanes `0..i`; lane 0 holds 0.
    pub fn exclusive_sum(vals: &[u32]) -> Vec<u32> {
        let mut acc = 0u32;
        vals.iter()
            .map(|&v| {
                let out = acc;
                acc += v;
                out
            })
            .collect()
    }

    /// Steps of the Kogge–Stone shuffle ladder for a warp of `warp_size`
    /// lanes: `⌈log₂ warp_size⌉` (0 for a single-lane warp).
    pub fn scan_steps(warp_size: u32) -> u32 {
        let ws = warp_size.max(1);
        u32::BITS - (ws - 1).leading_zeros()
    }

    /// Number of *leader lanes* in a warp: lanes that are the lowest
    /// member of their [`match_any`] peer group. This is the atomic count
    /// a warp-aggregated atomic update issues (one RMW per distinct
    /// value) instead of one per lane.
    pub fn leader_count(vals: &[u32]) -> usize {
        vals.iter()
            .enumerate()
            .filter(|&(i, v)| !vals[..i].contains(v))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(block_dim: u32, cost: &CostModel) -> BlockCtx<'_> {
        BlockCtx::new(0, 1, block_dim, 32, 6, 48 * 1024, cost)
    }

    #[test]
    fn single_warp_phase_costs_max_thread() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        b.threads(|t| {
            // Thread 5 does 100 ops, everyone else 10: lockstep bills 100.
            t.charge_alu(if t.tid == 5 { 100 } else { 10 });
        });
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, 100 + cost.sync as u64);
        assert_eq!(counters.alu, 31 * 10 + 100);
        assert_eq!(counters.syncs, 1);
    }

    #[test]
    fn warp_slots_divide_uniform_work() {
        let cost = CostModel::default();
        // 12 warps of equal work on 6 slots => 2 rounds.
        let mut b = block(12 * 32, &cost);
        b.threads(|t| t.charge_alu(60));
        let (cycles, _) = b.finish();
        assert_eq!(cycles, 120 + cost.sync as u64);
    }

    #[test]
    fn skewed_warp_dominates_makespan() {
        let cost = CostModel::default();
        let mut b = block(2 * 32, &cost);
        b.threads(|t| {
            // Warp 0 does 1000 cycles, warp 1 does 10: makespan = 1000.
            t.charge_alu(if t.tid < 32 { 1000 } else { 10 });
        });
        let (cycles, _) = b.finish();
        assert_eq!(cycles, 1000 + cost.sync as u64);
    }

    #[test]
    fn phases_accumulate() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        b.threads(|t| t.charge_alu(10));
        b.threads(|t| t.charge_alu(20));
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, 30 + 2 * cost.sync as u64);
        assert_eq!(counters.syncs, 2);
    }

    #[test]
    fn one_thread_phase_charges_serial_cost() {
        let cost = CostModel::default();
        let mut b = block(1, &cost);
        b.one_thread(|t| {
            t.charge_global_serial(3);
            t.charge_alu(5);
        });
        let (cycles, counters) = b.finish();
        assert_eq!(cycles, (3.0 * cost.global_latency + 5.0 + cost.sync) as u64);
        assert_eq!(counters.global_elems, 3);
    }

    #[test]
    fn shared_array_within_budget() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        let s = b.shared_array::<f32>(1000);
        assert_eq!(s.len(), 1000);
        assert_eq!(b.shared_used(), 4000);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_array_over_budget_panics() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        let _s = b.shared_array::<f32>(13_000); // 52 KB > 48 KB
    }

    #[test]
    fn global_charge_counts_transactions() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        b.threads(|t| t.charge_global(4, 4, AccessPattern::Coalesced));
        let (_, counters) = b.finish();
        // 32 threads * 4 coalesced f32 accesses => 4 warp transactions.
        assert_eq!(counters.global_txns(), 4);
        assert_eq!(counters.global_elems, 128);
    }

    #[test]
    fn warp_charges_bill_register_ops_without_bank_passes() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        b.threads(|t| {
            t.charge_warp_vote(3);
            t.charge_warp_shuffle(2);
            t.charge_warp_scan();
        });
        let (cycles, counters) = b.finish();
        assert_eq!(counters.warp_votes, 32 * 3);
        // scan = 5 shuffle steps at warp_size 32, plus the 2 explicit ones.
        assert_eq!(counters.warp_shuffles, 32 * (2 + 5));
        assert_eq!(counters.shared_accesses, 0, "no shared traffic");
        assert_eq!(counters.shared_bank_passes, 0, "no bank passes");
        let per_thread = 3.0 * cost.warp_vote + 7.0 * cost.warp_shuffle + 5.0 * cost.alu;
        assert_eq!(cycles, (per_thread + cost.sync) as u64);
    }

    #[test]
    fn contended_atomics_cost_more_but_count_the_same() {
        let cost = CostModel::default();
        let mut b = block(32, &cost);
        b.threads(|t| t.charge_atomic_shared_contended(2, 3));
        let (cycles, counters) = b.finish();
        assert_eq!(counters.atomics_shared, 32 * 2, "ops, not passes");
        assert_eq!(cycles, (2.0 * 3.0 * cost.atomic_shared + cost.sync) as u64);
        // Degree 0 clamps to 1 (an uncontended RMW).
        let mut b = block(1, &cost);
        b.threads(|t| t.charge_atomic_shared_contended(1, 0));
        let (cycles, _) = b.finish();
        assert_eq!(cycles, (cost.atomic_shared + cost.sync) as u64);
    }

    #[test]
    fn warp_ballot_matches_the_bit_definition() {
        let mut preds = [false; 32];
        preds[0] = true;
        preds[5] = true;
        preds[31] = true;
        assert_eq!(warp::ballot(&preds), 1 | (1 << 5) | (1 << 31));
        assert_eq!(warp::ballot(&[]), 0);
    }

    #[test]
    fn warp_match_any_groups_peers() {
        let masks = warp::match_any(&[7, 3, 7, 3, 9]);
        assert_eq!(masks[0], 0b00101);
        assert_eq!(masks[1], 0b01010);
        assert_eq!(masks[2], 0b00101);
        assert_eq!(masks[4], 0b10000);
    }

    #[test]
    fn warp_exclusive_sum_and_leaders() {
        assert_eq!(warp::exclusive_sum(&[3, 1, 4, 1]), vec![0, 3, 4, 8]);
        assert_eq!(warp::leader_count(&[7, 3, 7, 3, 9]), 3);
        assert_eq!(warp::scan_steps(32), 5);
        assert_eq!(warp::scan_steps(1), 0);
        assert_eq!(warp::scan_steps(24), 5, "non-pow2 warps round up");
    }

    #[test]
    fn thread_identity_helpers() {
        let cost = CostModel::default();
        let mut b = BlockCtx::new(3, 8, 64, 32, 6, 48 * 1024, &cost);
        let mut seen = Vec::new();
        b.threads(|t| {
            if t.tid == 1 {
                seen.push((t.global_idx(), t.block_idx(), t.block_dim(), t.grid_dim()));
            }
        });
        assert_eq!(seen, vec![(3 * 64 + 1, 3, 64, 8)]);
    }
}
