//! `gas-fused` — the single-kernel fusion of the paper's three-launch
//! pipeline (an optimisation *beyond* the paper; the three-kernel path in
//! [`crate::pipeline`] stays the faithful default).
//!
//! Motivation (see `gas profile` on the paper path): Phase 2 makes every
//! one of the `p` bucket-threads rescan the whole array — O(n·p) work per
//! array — and each array round-trips global memory three times across
//! three kernel launches. The fused kernel applies two standard
//! techniques from the literature:
//!
//! * **GPU Sample Sort** (Leischner, Osipov & Sanders): the bucket index
//!   of an element is a *binary search* over the sorted splitters —
//!   O(log p) per element instead of the p-way rescan;
//! * **GPU Multisplit** (Ashkiani et al.): bucketing is a shared-memory
//!   histogram + exclusive scan + in-shared scatter.
//!
//! One block still owns one array, but now the array is staged into
//! shared memory **once** (cooperative coalesced copy), everything —
//! sampling, splitter selection, bucket-index search, histogram, scan,
//! scatter, per-bucket sort — happens in shared memory, and one coalesced
//! write-back ends the kernel. Launches drop 3 → 1 and global traffic
//! drops from ≈6n warp-scattered/sequential touches per array to 2n
//! fully-coalesced ones, which the simulator's `global_txns` counter
//! makes quantitative (see `tests/fused.rs` and Ablation E).
//!
//! The price is shared-memory footprint: the scatter needs a second copy
//! of the array, so the fused layout is roughly double the staging
//! layout's. Arrays beyond [`BatchGeometry::fits_fused_in_shared`]
//! (n ≳ 5500 f32 elements on the K40c) transparently fall back to the
//! three-kernel pipeline — correctness never depends on the fast path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpu_sim::{
    banks, check_batch_shape, warp, AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimResult,
};

use crate::bucketing::{bucket_balance, BalanceStats};
use crate::config::{ArraySortConfig, ConfigError, SplitterPolicy};
use crate::geometry::BatchGeometry;
use crate::insertion::{
    charge_insertion_work, insertion_sort, simulated_insertion_sort, InsertionWork,
};
use crate::key::SortKey;
use crate::pipeline::GpuArraySort;
use crate::resplit::{resplit_array, OverflowReport, ResplitWork};
use crate::sorting::bitonic_charge;
use crate::splitters::{bucket_index, deterministic_splitters, overflow_limit, DeterministicWork};

/// Which bucketing + scatter machinery the fused kernel runs. The three
/// strategies produce bit-identical output (all call the shared
/// [`bucket_index`] search); they differ only in *how* the histogram,
/// scan and scatter are executed — and therefore in what they cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FusedStrategy {
    /// PR 5's machinery: shared-memory histogram built with per-element
    /// shared atomics (billed with their honest same-counter contention),
    /// a shared-memory block scan, and an unpadded scatter that pays its
    /// measured bank-conflict degree.
    #[default]
    Histogram,
    /// Warp-level multisplit (Ashkiani et al.): per-warp ballot
    /// histograms, shuffle-based exclusive scans and warp-aggregated
    /// (leader-only) atomics — but still the unpadded scatter. The
    /// ablation midpoint isolating the bucketing win from the layout.
    WarpMultisplit,
    /// Warp multisplit scattering into the Sitchinava–Weichert padded
    /// layout — the `gas-warp` algorithm. The padding makes strided walks
    /// conflict-free, but this scatter's addresses are data-dependent, so
    /// it does not cut measured bank passes (DESIGN.md §11).
    WarpConflictFree,
}

support::impl_to_json!(
    enum FusedStrategy {
        Histogram = "histogram",
        WarpMultisplit = "warp-multisplit",
        WarpConflictFree = "warp-conflict-free",
    }
);

impl FusedStrategy {
    /// Display label (matches the CLI algorithm names where applicable).
    pub fn label(self) -> &'static str {
        match self {
            FusedStrategy::Histogram => "histogram",
            FusedStrategy::WarpMultisplit => "warp-multisplit",
            FusedStrategy::WarpConflictFree => "conflict-free",
        }
    }

    /// Whether this strategy buckets with warp ballots/shuffles.
    pub fn uses_warp_multisplit(self) -> bool {
        !matches!(self, FusedStrategy::Histogram)
    }

    /// Whether the scatter destination uses the padded layout.
    pub fn pads_scatter(self) -> bool {
        matches!(self, FusedStrategy::WarpConflictFree)
    }
}

/// Which path actually sorted the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedPath {
    /// The single fused kernel ran (arrays fit the double-buffered
    /// shared-memory layout).
    Fused,
    /// Arrays were too large for the fused layout; the batch was sorted
    /// by the paper's three-kernel pipeline instead.
    ThreeKernelFallback,
}

support::impl_to_json!(
    enum FusedPath {
        Fused = "fused",
        ThreeKernelFallback = "three-kernel-fallback",
    }
);

/// Model-derived attribution of the one fused launch's time to its six
/// internal stages.
///
/// A single kernel cannot emit host-side spans from inside itself, so
/// `gas profile` would otherwise lose the phase breakdown the three-kernel
/// path gives for free. The kernel therefore tallies per-stage cycle
/// *estimates* (default cost-model weights) alongside the real charges,
/// and the host scales the measured kernel time by each stage's share.
/// The six fields sum to the fused kernel's time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FusedBreakdown {
    /// Cooperative coalesced copy of the array into shared memory.
    pub stage_in_ms: f64,
    /// Regular sampling + one-thread sample sort + splitter emission.
    pub sample_sort_ms: f64,
    /// Per-element binary search over the splitters + shared histogram.
    pub bucket_index_ms: f64,
    /// Exclusive scan of the histogram + in-shared scatter.
    pub scatter_ms: f64,
    /// Per-bucket insertion sort (adaptive bitonic for oversized buckets).
    pub bucket_sort_ms: f64,
    /// Coalesced write-back of the sorted array + the `Z` table row.
    pub write_back_ms: f64,
}

support::impl_to_json!(struct FusedBreakdown {
    stage_in_ms, sample_sort_ms, bucket_index_ms, scatter_ms, bucket_sort_ms, write_back_ms
});

impl FusedBreakdown {
    /// The stages as `(label, ms)` rows, in execution order.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("stage-in", self.stage_in_ms),
            ("sample-sort", self.sample_sort_ms),
            ("bucket-index", self.bucket_index_ms),
            ("scatter", self.scatter_ms),
            ("bucket-sort", self.bucket_sort_ms),
            ("write-back", self.write_back_ms),
        ]
    }

    /// Sum of all stages (equals the fused kernel time).
    pub fn total_ms(&self) -> f64 {
        self.rows().iter().map(|(_, ms)| ms).sum()
    }
}

/// Report of one fused-pipeline run.
#[derive(Debug, Clone)]
pub struct FusedStats {
    /// H2D upload time.
    pub upload_ms: f64,
    /// Kernel time: the single fused launch, or the three fallback
    /// launches when the batch didn't fit the fused layout.
    pub kernel_ms: f64,
    /// D2H download time.
    pub download_ms: f64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Which path ran.
    pub path: FusedPath,
    /// Estimated per-stage attribution of `kernel_ms` (all zero on the
    /// fallback path — the three-kernel launches have real spans instead).
    pub breakdown: FusedBreakdown,
    /// Bucket-size distribution, from the `Z` table the kernel emits
    /// (pre-recovery evidence: re-splitting never rewrites `Z`).
    pub balance: BalanceStats,
    /// Bucket-overflow detection + recovery accounting. Detection is
    /// always on; repair runs only under
    /// [`SplitterPolicy::Deterministic`].
    pub overflow: OverflowReport,
    /// The geometry the run used.
    pub geometry: BatchGeometry,
}

support::impl_to_json!(struct FusedStats {
    upload_ms, kernel_ms, download_ms, peak_bytes, path, breakdown, balance, overflow, geometry
});

impl FusedStats {
    /// Total simulated time (upload + kernel + download).
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms + self.download_ms
    }
}

/// The fused single-kernel batch sorter. Same contract as
/// [`GpuArraySort::sort`]: every `array_len` segment of `data` is sorted
/// ascending (by `total_order` for floats), in place.
#[derive(Debug, Clone, Default)]
pub struct FusedSort {
    inner: GpuArraySort,
    strategy: FusedStrategy,
}

impl FusedSort {
    /// A fused sorter with the paper's default parameters and PR 5's
    /// histogram bucketing (`gas-fused`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The warp-multisplit, conflict-free-scatter sorter (`gas-warp`).
    pub fn warp() -> Self {
        Self::with_strategy(FusedStrategy::WarpConflictFree)
    }

    /// A fused sorter with an explicit bucketing strategy.
    pub fn with_strategy(strategy: FusedStrategy) -> Self {
        Self {
            inner: GpuArraySort::default(),
            strategy,
        }
    }

    /// A fused sorter with explicit parameters (validated).
    pub fn with_config(config: ArraySortConfig) -> Result<Self, ConfigError> {
        Self::with_config_and_strategy(config, FusedStrategy::default())
    }

    /// Explicit parameters *and* strategy (validated).
    pub fn with_config_and_strategy(
        config: ArraySortConfig,
        strategy: FusedStrategy,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            inner: GpuArraySort::with_config(config)?,
            strategy,
        })
    }

    /// The active bucketing strategy.
    pub fn strategy(&self) -> FusedStrategy {
        self.strategy
    }

    /// The active configuration.
    pub fn config(&self) -> &ArraySortConfig {
        self.inner.config()
    }

    /// The three-kernel pipeline this sorter falls back to (same config).
    pub fn three_kernel(&self) -> &GpuArraySort {
        &self.inner
    }

    /// Geometry for a batch under this configuration.
    pub fn geometry(&self, num_arrays: usize, array_len: usize) -> BatchGeometry {
        self.inner.geometry(num_arrays, array_len)
    }

    /// Largest batch this sorter can take on `spec`. Conservative: uses
    /// the three-kernel plan (the fused path needs strictly less device
    /// memory — no splitter table, no global staging — but the fallback
    /// path must also fit).
    pub fn max_arrays(&self, spec: &gpu_sim::DeviceSpec, array_len: usize) -> u64 {
        self.inner.max_arrays(spec, array_len)
    }

    /// Sorts every `array_len`-element segment of `data` on `gpu`,
    /// uploading, running the fused kernel (or the three-kernel fallback)
    /// and downloading. Emits the spans `gas-fused/upload`,
    /// `gas-fused/fused-kernel` and `gas-fused/download`, which tile the
    /// elapsed time exactly like the three-kernel path's five spans.
    pub fn sort<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &mut [K],
        array_len: usize,
    ) -> SimResult<FusedStats> {
        let geom = self.geometry(check_batch_shape(data.len(), array_len)?, array_len);

        let t0 = gpu.elapsed_ms();
        let span = gpu.begin_span("gas-fused/upload");
        let dbuf = gpu.htod_copy(data)?;
        gpu.end_span(span);
        let t1 = gpu.elapsed_ms();

        let (path, breakdown, balance, overflow) = self.run_device(gpu, &dbuf, &geom)?;
        let t2 = gpu.elapsed_ms();
        let peak_bytes = gpu.ledger().peak();

        let span = gpu.begin_span("gas-fused/download");
        let mut dbuf = dbuf;
        gpu.dtoh_into(&mut dbuf, data)?;
        gpu.end_span(span);
        let t3 = gpu.elapsed_ms();

        Ok(FusedStats {
            upload_ms: t1 - t0,
            kernel_ms: t2 - t1,
            download_ms: t3 - t2,
            peak_bytes,
            path,
            breakdown,
            balance,
            overflow,
            geometry: geom,
        })
    }

    /// Sorts a batch already resident on the device — the entry point
    /// for callers that manage their own uploads/downloads, like the
    /// scheduler's streamed overlap pipeline. Runs the fused kernel (or
    /// the three-kernel fallback when the geometry exceeds the shared
    /// layout) and reports which path ran plus the overflow accounting.
    pub fn sort_device<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<(FusedPath, OverflowReport)> {
        let (path, _, _, overflow) = self.run_device(gpu, data, geom)?;
        Ok((path, overflow))
    }

    /// Device-side portion for data already resident (the out-of-core
    /// chunk loop): runs the fused kernel, or the three-kernel phases
    /// when the arrays exceed the fused shared-memory layout.
    fn run_device<K: SortKey>(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<K>,
        geom: &BatchGeometry,
    ) -> SimResult<(FusedPath, FusedBreakdown, BalanceStats, OverflowReport)> {
        let fits = if self.strategy.pads_scatter() {
            geom.fits_warp_in_shared(K::ELEM_BYTES, gpu.spec())
        } else {
            geom.fits_fused_in_shared(K::ELEM_BYTES, gpu.spec())
        };
        if !fits {
            let span = gpu.begin_span("gas-fused/fused-kernel");
            let run = self.inner.sort_device(gpu, data, geom);
            gpu.end_span(span);
            let run = run?;
            return Ok((
                FusedPath::ThreeKernelFallback,
                FusedBreakdown::default(),
                run.balance,
                run.overflow,
            ));
        }

        let mut zbuf = gpu.alloc::<u32>(geom.bucket_table_len())?;
        let span = gpu.begin_span("gas-fused/fused-kernel");
        let kernel = fused_kernel(gpu, data, &zbuf, geom, self.config(), self.strategy);
        gpu.end_span(span);
        let (kernel_ms, stage_cycles, overflow) = kernel?;
        let balance = bucket_balance(&mut zbuf, geom);

        let total: u64 = stage_cycles.iter().sum();
        let share = |c: u64| {
            if total > 0 {
                kernel_ms * c as f64 / total as f64
            } else {
                0.0
            }
        };
        let breakdown = FusedBreakdown {
            stage_in_ms: share(stage_cycles[0]),
            sample_sort_ms: share(stage_cycles[1]),
            bucket_index_ms: share(stage_cycles[2]),
            scatter_ms: share(stage_cycles[3]),
            bucket_sort_ms: share(stage_cycles[4]),
            write_back_ms: share(stage_cycles[5]),
        };
        Ok((FusedPath::Fused, breakdown, balance, overflow))
    }
}

/// Splits one array's element indices into the warp-sized groups the
/// lockstep execution actually forms: threads process elements in rounds
/// of `t_count` (element `k` belongs to lane `k % t_count` of round
/// `k / t_count`), and each round's lanes fold into warps of `ws`.
/// Returns `(start, len)` per group, in element order.
fn warp_groups(n: usize, t_count: usize, ws: usize) -> Vec<(usize, usize)> {
    let mut groups = Vec::with_capacity(n.div_ceil(ws.max(1)) + n.div_ceil(t_count.max(1)));
    let mut k0 = 0;
    while k0 < n {
        let round_end = (k0 + t_count).min(n);
        let mut g = k0;
        while g < round_end {
            let end = (g + ws).min(round_end);
            groups.push((g, end - g));
            g = end;
        }
        k0 = round_end;
    }
    groups
}

/// Launches the fused kernel proper. Returns its wall time, the six
/// per-stage cycle-estimate tallies for [`FusedBreakdown`], and the
/// aggregated overflow report (detection under every policy; repair —
/// an in-shared re-split between scatter and bucket sort — only under
/// [`SplitterPolicy::Deterministic`]).
fn fused_kernel<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &BatchGeometry,
    config: &ArraySortConfig,
    strategy: FusedStrategy,
) -> SimResult<(f64, [u64; 6], OverflowReport)> {
    assert_eq!(data.len(), geom.total_elems(), "data/geometry mismatch");
    assert_eq!(
        bucket_sizes.len(),
        geom.bucket_table_len(),
        "Z table mismatch"
    );

    let n = geom.array_len;
    let p = geom.buckets_per_array;
    let s = geom.samples_per_array;
    let threads = geom.block_threads(config, gpu.spec());
    let t_count = threads as usize;
    let ws = gpu.spec().warp_size as usize;
    let dv = data.view();
    let zv = bucket_sizes.view();
    let geom = *geom;
    let elem_bytes = K::ELEM_BYTES;
    let stride = (n / s).max(1);
    // ⌈log₂⌉ of the boundary count: probes per binary search.
    let log_bounds = (usize::BITS - (p + 1).leading_zeros()) as u64;
    let log_p = (usize::BITS - p.leading_zeros()) as u64;
    let adaptive = config.adaptive_bucket_sort;
    let adaptive_cap = config.adaptive_threshold.max(1) * config.target_bucket_size.max(1);
    let policy = config.splitter_policy;
    let limit = overflow_limit(n, p) as u32;

    let shared_want = if strategy.pads_scatter() {
        geom.warp_shared_bytes_needed(elem_bytes)
    } else {
        geom.fused_shared_bytes_needed(elem_bytes)
    };
    let kernel_name = match strategy {
        FusedStrategy::Histogram => "gas_fused",
        FusedStrategy::WarpMultisplit => "gas_warp_multisplit",
        FusedStrategy::WarpConflictFree => "gas_warp",
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, threads).with_shared(shared_want);

    // Per-stage cycle estimates (default cost-model weights: shared = 2,
    // alu = 1, shared atomic = 8, coalesced global ≈ 1/elem), accumulated
    // across blocks for the host-side breakdown. Estimates only — the
    // authoritative bill is what the ThreadCtx charges below.
    let stages: [AtomicU64; 6] = Default::default();
    let tally = |i: usize, c: u64| stages[i].fetch_add(c, Ordering::Relaxed);
    let report = Mutex::new(OverflowReport {
        limit,
        ..Default::default()
    });

    let stats = gpu.launch(kernel_name, cfg, |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let zrow = geom.bucket_offset(i);
        let per = (n as u64).div_ceil(t_count as u64);

        // ---- Real work, once per block (the simulated lanes below bill
        // the cycles). SAFETY: array i is block-exclusive.
        let arr = unsafe { dv.slice_mut(base, n) };

        // Stage 2: splitter selection on the *staged* array, per policy —
        // the paper's one-thread regular sample sort, or the Dehne–Zaboli
        // deterministic tile-sort + candidate-merge selection (the shared
        // [`deterministic_splitters`] the three-kernel Phase 1 also runs).
        // Either way the bounds carry the §5.2 sentinels.
        let mut bounds = Vec::with_capacity(p + 1);
        bounds.push(K::min_sentinel());
        let (sample_work, det_work): (InsertionWork, Option<DeterministicWork>) =
            if policy == SplitterPolicy::Deterministic {
                let (picks, det) = deterministic_splitters(arr, p, s);
                bounds.extend(picks);
                (InsertionWork::default(), Some(det))
            } else {
                let mut sample: Vec<K> = (0..s).map(|k| arr[k * stride]).collect();
                let w = simulated_insertion_sort(&mut sample);
                for j in 1..p {
                    bounds.push(sample[j * s / p]);
                }
                (w, None)
            };
        bounds.push(K::max_sentinel());

        // Stage 3: binary-search bucket index per element + histogram.
        let mut counts = vec![0u32; p];
        let ids: Vec<u32> = arr
            .iter()
            .map(|&x| {
                let j = bucket_index(&bounds, x);
                counts[j] += 1;
                j as u32
            })
            .collect();
        // Overflow detection (always on): buckets beyond the Dehne–Zaboli
        // limit 2·⌈n/p⌉ are counted, never silent.
        let over_in_block = counts.iter().filter(|&&c| c > limit).count() as u64;

        // Stage 4: exclusive scan + stable in-shared scatter into the
        // second buffer, then adopt it as the working copy. `pos[k]` is
        // element k's scatter destination — the bank-conflict analysis
        // below runs on these real addresses, not a model of them.
        let mut offsets = vec![0usize; p + 1];
        for j in 0..p {
            offsets[j + 1] = offsets[j] + counts[j] as usize;
        }
        let mut cursors = offsets.clone();
        let mut staged = vec![K::default(); n];
        let mut pos = vec![0usize; n];
        for (k, &x) in arr.iter().enumerate() {
            let j = ids[k] as usize;
            pos[k] = cursors[j];
            staged[cursors[j]] = x;
            cursors[j] += 1;
        }
        arr.copy_from_slice(&staged);
        for (j, &c) in counts.iter().enumerate() {
            zv.set(zrow + j, c);
        }

        // ---- Warp-group measurement. Lockstep assigns element k to lane
        // `k % t_count` of round `k / t_count`; [`warp_groups`] recovers
        // the warp-sized lane groups that execution order forms. Per
        // group we measure, from the real ids and destinations:
        //  * `contention[k]` — lanes in k's warp hitting k's bucket
        //    (same-counter serialization of the histogram's atomics);
        //  * `is_leader[k]` — whether k's lane is the lowest peer of its
        //    bucket (the one lane a warp-aggregated update lets through);
        //  * `scatter_degree[k]` — the measured bank-conflict degree of
        //    the group's scatter writes, on raw or padded addresses.
        let mut contention = vec![1u32; n];
        let mut is_leader = vec![true; n];
        let mut scatter_degree = vec![1u32; n];
        for &(g0, glen) in &warp_groups(n, t_count, ws) {
            let masks = warp::match_any(&ids[g0..g0 + glen]);
            for (l, &m) in masks.iter().enumerate() {
                contention[g0 + l] = m.count_ones();
                is_leader[g0 + l] = m & ((1u64 << l) - 1) == 0;
            }
            let addrs: Vec<u64> = (g0..g0 + glen)
                .map(|k| {
                    let w = pos[k] as u64;
                    let w = if strategy.pads_scatter() {
                        banks::padded_index(w)
                    } else {
                        w
                    };
                    w * elem_bytes as u64
                })
                .collect();
            let d = banks::conflict_degree(&addrs);
            scatter_degree[g0..g0 + glen].fill(d);
        }

        // ---- Cycle charges, stage by stage (each `threads`/`one_thread`
        // call is one barrier, mirroring the __syncthreads() the real
        // kernel would need between stages).

        // Stage 1: cooperative coalesced stage-in.
        block.threads(|t| {
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
            t.charge_shared(per);
        });
        tally(0, (n as u64) * 3);

        // Stage 2: splitter selection, entirely in shared memory — the
        // fused win over Phase 1's single-lane global walk. The charges
        // follow the branch that actually ran.
        let ins_est = |w: InsertionWork| 2 * (2 * w.comparisons + w.moves) + w.comparisons;
        match det_work {
            None => {
                block.one_thread(|t| {
                    t.charge_shared(2 * s as u64);
                    t.charge_alu(2 * s as u64);
                    charge_insertion_work(t, sample_work);
                    t.charge_shared((p + 1) as u64);
                    t.charge_alu(2 * p as u64);
                });
                tally(
                    1,
                    6 * s as u64 + ins_est(sample_work) + 2 * (p as u64 + 1) + 2 * p as u64,
                );
            }
            Some(det) => {
                let c = det.candidates as u64;
                block.one_thread(|t| {
                    // p tile sorts, candidate gather, the p-way candidate
                    // merge (billed as InsertionWork), then the p−1 picks.
                    charge_insertion_work(t, det.tile_sort);
                    t.charge_shared(2 * c);
                    t.charge_alu(2 * c);
                    charge_insertion_work(t, det.candidate_sort);
                    t.charge_shared((p + 1) as u64);
                    t.charge_alu(2 * p as u64);
                });
                tally(
                    1,
                    ins_est(det.tile_sort)
                        + 6 * c
                        + ins_est(det.candidate_sort)
                        + 2 * (p as u64 + 1)
                        + 2 * p as u64,
                );
            }
        }

        // Stage 3: per-element binary search over the p+1 bounds, then
        // the strategy's histogram machinery.
        block.threads(|t| {
            if t.tid == 0 && over_in_block > 0 {
                // The histogram is already in shared memory here; the
                // limit comparison rides the existing pass (zero cycles),
                // it only flips the observable counter.
                t.record_bucket_overflow(over_in_block);
            }
            let mut k = t.tid as usize;
            while k < n {
                t.charge_shared(1 + log_bounds);
                t.charge_alu(log_bounds + 1);
                if strategy.uses_warp_multisplit() {
                    // Multisplit ballot ladder: ⌈log₂ p⌉ ballots classify
                    // the lane's bucket bits; the peer masks that fall out
                    // give rank and count in registers, so only the lowest
                    // peer of each bucket touches the shared histogram.
                    t.charge_warp_vote(log_p.max(1));
                    t.charge_alu(2);
                    if is_leader[k] {
                        t.charge_atomic_shared(1);
                    }
                } else {
                    // One RMW per element, serialized by the measured
                    // number of same-bucket lanes in its warp, plus the
                    // bucket-id record the scatter pass re-reads.
                    t.charge_atomic_shared_contended(1, contention[k]);
                    t.charge_shared(1);
                }
                k += t_count;
            }
        });
        let search = 2 * (1 + log_bounds) + log_bounds + 1;
        tally(
            2,
            (0..n)
                .map(|k| {
                    search
                        + if strategy.uses_warp_multisplit() {
                            log_p.max(1) + 2 + if is_leader[k] { 8 } else { 0 }
                        } else {
                            8 * contention[k] as u64 + 2
                        }
                })
                .sum(),
        );

        // Stage 4: exclusive scan + in-shared scatter, per strategy.
        block.threads(|t| {
            if strategy.uses_warp_multisplit() {
                // Per-warp exclusive scan of the ballot histogram rides
                // the shuffle ladder; folding warp totals into block
                // offsets is one more add per bucket stripe.
                t.charge_warp_scan();
                t.charge_alu(log_p);
            } else {
                // Cooperative block scan in shared memory.
                t.charge_shared(2 * log_p);
                t.charge_alu(log_p);
            }
            let mut k = t.tid as usize;
            while k < n {
                if strategy.uses_warp_multisplit() {
                    // Element read; destination = scanned base + the
                    // shuffle-held rank (one shuffle + one add — the
                    // padded index is the same add on the padded layout).
                    t.charge_shared(1);
                    t.charge_warp_shuffle(1);
                    t.charge_alu(1);
                    t.charge_shared_conflicted(1, scatter_degree[k]);
                } else {
                    // Re-read id + element, bump the bucket cursor
                    // (contended), write at whatever bank the unpadded
                    // cursor lands on.
                    t.charge_shared(2);
                    t.charge_atomic_shared_contended(1, contention[k]);
                    t.charge_shared_conflicted(1, scatter_degree[k]);
                }
                k += t_count;
            }
        });
        let scan_est = if strategy.uses_warp_multisplit() {
            2 * warp::scan_steps(ws as u32) as u64 + log_p
        } else {
            5 * log_p
        };
        tally(
            3,
            (t_count as u64) * scan_est
                + (0..n)
                    .map(|k| {
                        if strategy.uses_warp_multisplit() {
                            4 + 2 * scatter_degree[k] as u64
                        } else {
                            4 + 8 * contention[k] as u64 + 2 * scatter_degree[k] as u64
                        }
                    })
                    .sum::<u64>(),
        );

        // Re-split pass (Deterministic policy only): any bucket beyond
        // the limit is recursively cut in shared memory before the bucket
        // sort, so Phase-3-equivalent work stays bounded. The Z row above
        // was already written — it stays pre-recovery evidence. Its cost
        // is folded into the scatter row of the breakdown (it is the same
        // kind of in-shared partitioning work).
        let mut rs_work = ResplitWork::default();
        let refined = if policy == SplitterPolicy::Deterministic && over_in_block > 0 {
            let segs = resplit_array(arr, &counts, limit as usize, &mut rs_work);
            block.one_thread(|t| {
                t.charge_shared(2 * rs_work.comparisons + rs_work.moves);
                t.charge_alu(rs_work.comparisons);
            });
            tally(
                3,
                2 * (2 * rs_work.comparisons + rs_work.moves) + rs_work.comparisons,
            );
            Some(segs)
        } else {
            None
        };
        let mut local = OverflowReport {
            limit,
            overflowed_buckets: over_in_block,
            overflowed_arrays: u64::from(over_in_block > 0),
            pre_max: counts.iter().copied().max().unwrap_or(0),
            ..Default::default()
        };
        match &refined {
            Some(segs) => {
                local.resplit_rounds = rs_work.rounds;
                local.resplit_segments = segs.len() as u64;
                local.tie_segments = segs.iter().filter(|sg| sg.all_equal).count() as u64;
                local.post_max_sortable = segs
                    .iter()
                    .filter(|sg| !sg.all_equal)
                    .map(|sg| sg.len as u32)
                    .max()
                    .unwrap_or(0);
            }
            None => local.post_max_sortable = local.pre_max,
        }
        report.lock().unwrap().merge(&local);

        // Stage 5: per-bucket sort, shared-memory only — no scattered
        // global round-trip, the other fused win over Phase 3. When a
        // re-split ran, its refined segments replace the Z-row buckets:
        // non-tie segments are ≤ limit by construction, and all-equal tie
        // segments need no sort at all (equal keys are bit-identical).
        let use_refined = refined.is_some();
        let segments: Vec<(usize, usize, bool)> = match &refined {
            Some(segs) => segs
                .iter()
                .map(|sg| (sg.start, sg.len, sg.all_equal))
                .collect(),
            None => (0..p)
                .map(|j| (offsets[j], offsets[j + 1] - offsets[j], false))
                .collect(),
        };
        let nseg = segments.len();
        let segs_per_thread = nseg.div_ceil(t_count);
        let sort_cycles = AtomicU64::new(0);
        block.threads(|t| {
            for sidx in 0..segs_per_thread {
                let j = t.tid as usize + sidx * t_count;
                if j >= nseg {
                    break;
                }
                let (start, len, tie) = segments[j];
                t.charge_shared(2);
                t.charge_alu(4);
                if tie {
                    continue; // all-equal segment: nothing to sort
                }
                if adaptive && !use_refined && len > adaptive_cap {
                    continue; // deferred to the cooperative pass below
                }
                if len < 2 {
                    continue;
                }
                // SAFETY: disjoint bucket range of a block-exclusive array.
                let bucket = unsafe { dv.slice_mut(base + start, len) };
                let work = insertion_sort(bucket);
                charge_insertion_work(t, work);
                sort_cycles.fetch_add(
                    2 * (2 * work.comparisons + work.moves) + work.comparisons,
                    Ordering::Relaxed,
                );
            }
        });
        if adaptive && !use_refined {
            let oversized: Vec<(usize, usize)> = (0..p)
                .map(|j| (offsets[j], offsets[j + 1] - offsets[j]))
                .filter(|&(_, len)| len > adaptive_cap)
                .collect();
            for &(start, len) in &oversized {
                // SAFETY: disjoint bucket range of a block-exclusive array.
                let bucket = unsafe { dv.slice_mut(base + start, len) };
                bucket.sort_unstable_by(|a, b| a.total_order(*b));
                block.threads(|t| {
                    bitonic_charge(t, len as u64, t_count as u64);
                });
                sort_cycles.fetch_add(len as u64 * 8, Ordering::Relaxed);
            }
        }
        tally(4, sort_cycles.into_inner() + 6 * nseg as u64);

        // Stage 6: coalesced write-back of the sorted array and the Z row.
        block.threads(|t| {
            t.charge_shared(per);
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
            let perz = (p as u64).div_ceil(t_count as u64);
            t.charge_shared(perz);
            t.charge_global(perz, 4, AccessPattern::Coalesced);
        });
        tally(5, (n as u64) * 3 + (p as u64) * 3);
    })?;

    Ok((
        stats.time_ms,
        [
            stages[0].load(Ordering::Relaxed),
            stages[1].load(Ordering::Relaxed),
            stages[2].load(Ordering::Relaxed),
            stages[3].load(Ordering::Relaxed),
            stages[4].load(Ordering::Relaxed),
            stages[5].load(Ordering::Relaxed),
        ],
        report.into_inner().unwrap(),
    ))
}

/// Memory plan of a fused run (for capacity reasoning in docs/tests):
/// identical to [`GasMemoryPlan`](crate::geometry::GasMemoryPlan) minus
/// the splitter table and global staging — the fused path keeps
/// everything else in shared memory.
pub fn fused_memory_bytes(geom: &BatchGeometry, elem_bytes: u32) -> u64 {
    geom.total_elems() as u64 * elem_bytes as u64 + geom.bucket_table_len() as u64 * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_ref;
    use crate::geometry::GasMemoryPlan;
    use gpu_sim::DeviceSpec;
    use support::ChaCha8Rng;

    fn random_batch(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n).map(|_| rng.gen_range(0.0f32..1e9)).collect()
    }

    #[test]
    fn fused_sorts_every_array() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let (num, n) = (40, 500);
        let mut data = random_batch(num, n, 21);
        let mut expect = data.clone();
        let stats = FusedSort::new().sort(&mut gpu, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert_eq!(stats.path, FusedPath::Fused);
    }

    #[test]
    fn fused_matches_three_kernel_output_bit_for_bit() {
        let (num, n) = (25, 1000);
        let data = random_batch(num, n, 22);
        let mut fused = data.clone();
        let mut paper = data;
        let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
        FusedSort::new().sort(&mut g1, &mut fused, n).unwrap();
        let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
        GpuArraySort::new().sort(&mut g2, &mut paper, n).unwrap();
        assert_eq!(
            fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            paper.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fused_is_faster_and_moves_less_global_data() {
        for n in [1000usize, 2000, 3000, 4000] {
            let num = 30;
            let data = random_batch(num, n, 23);

            let mut d1 = data.clone();
            let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
            let fused = FusedSort::new().sort(&mut g1, &mut d1, n).unwrap();
            let fused_txns: u64 = g1
                .timeline()
                .kernels
                .iter()
                .map(|k| k.counters.global_txns())
                .sum();

            let mut d2 = data;
            let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
            let paper = GpuArraySort::new().sort(&mut g2, &mut d2, n).unwrap();
            let paper_txns: u64 = g2
                .timeline()
                .kernels
                .iter()
                .map(|k| k.counters.global_txns())
                .sum();

            assert!(
                fused.kernel_ms < paper.kernel_ms(),
                "n={n}: fused {} ms vs paper {} ms",
                fused.kernel_ms,
                paper.kernel_ms()
            );
            assert!(
                fused_txns < paper_txns,
                "n={n}: fused {fused_txns} txns vs paper {paper_txns}"
            );
        }
    }

    #[test]
    fn spans_tile_the_elapsed_time() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut data = random_batch(20, 800, 24);
        FusedSort::new().sort(&mut gpu, &mut data, 800).unwrap();
        let spans = &gpu.timeline().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "gas-fused/upload",
                "gas-fused/fused-kernel",
                "gas-fused/download"
            ]
        );
        let total: f64 = spans.iter().map(|s| s.end_ms - s.start_ms).sum();
        assert!((total - gpu.elapsed_ms()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_kernel_time() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut data = random_batch(10, 1500, 25);
        let stats = FusedSort::new().sort(&mut gpu, &mut data, 1500).unwrap();
        assert!((stats.breakdown.total_ms() - stats.kernel_ms).abs() < 1e-9);
        assert!(stats.breakdown.rows().iter().all(|&(_, ms)| ms > 0.0));
    }

    #[test]
    fn oversized_arrays_fall_back_to_three_kernels() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let n = 8000; // fits staging (≤ ~12k) but not the fused double buffer
        let mut data = random_batch(4, n, 26);
        let stats = FusedSort::new().sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::ThreeKernelFallback);
        assert!(cpu_ref::is_each_sorted(&data, n));
        assert_eq!(stats.breakdown, FusedBreakdown::default());
    }

    #[test]
    fn shape_validation_matches_the_three_kernel_path() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let sorter = FusedSort::new();
        let mut empty: Vec<f32> = vec![];
        assert!(sorter.sort(&mut gpu, &mut empty, 10).is_err());
        let mut data = vec![1.0f32; 7];
        assert!(sorter.sort(&mut gpu, &mut data, 3).is_err());
        assert!(sorter.sort(&mut gpu, &mut data, 0).is_err());
    }

    #[test]
    fn adaptive_policy_carries_over() {
        let n = 1000;
        // Adversarial collapse input (every sampled slot holds the min).
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let data: Vec<f32> = (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect();
        let run = |cfg: ArraySortConfig| {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            let stats = FusedSort::with_config(cfg)
                .unwrap()
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert!(cpu_ref::is_each_sorted(&d, n));
            stats.kernel_ms
        };
        let paper = run(ArraySortConfig::default());
        let adaptive = run(ArraySortConfig {
            adaptive_bucket_sort: true,
            ..Default::default()
        });
        assert!(
            adaptive * 5.0 < paper,
            "cooperative rescue must fix the quadratic blow-up: {adaptive} vs {paper}"
        );
    }

    #[test]
    fn u32_and_i32_keys_sort() {
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut du: Vec<u32> = (0..8 * 128).map(|_| rng.gen()).collect();
        FusedSort::new().sort(&mut gpu, &mut du, 128).unwrap();
        assert!(cpu_ref::is_each_sorted(&du, 128));
        let mut di: Vec<i32> = (0..8 * 128).map(|_| rng.gen()).collect();
        FusedSort::new().sort(&mut gpu, &mut di, 128).unwrap();
        assert!(cpu_ref::is_each_sorted(&di, 128));
    }

    /// Runs one strategy on a fresh device; returns (sorted bits,
    /// kernel_ms, bank passes, shared atomics, warp votes).
    fn strategy_run(
        strategy: FusedStrategy,
        data: &[f32],
        n: usize,
    ) -> (Vec<u32>, f64, u64, u64, u64) {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut d = data.to_vec();
        let stats = FusedSort::with_strategy(strategy)
            .sort(&mut gpu, &mut d, n)
            .unwrap();
        assert_eq!(stats.path, FusedPath::Fused, "{strategy:?} must fit");
        let (mut passes, mut atomics, mut votes) = (0u64, 0u64, 0u64);
        for k in &gpu.timeline().kernels {
            passes += k.counters.shared_bank_passes;
            atomics += k.counters.atomics_shared;
            votes += k.counters.warp_votes;
        }
        (
            d.iter().map(|x| x.to_bits()).collect(),
            stats.kernel_ms,
            passes,
            atomics,
            votes,
        )
    }

    #[test]
    fn all_three_strategies_agree_bit_for_bit() {
        let (num, n) = (20, 1000);
        let data = random_batch(num, n, 30);
        let (hist, ..) = strategy_run(FusedStrategy::Histogram, &data, n);
        let (ms, ..) = strategy_run(FusedStrategy::WarpMultisplit, &data, n);
        let (cf, ..) = strategy_run(FusedStrategy::WarpConflictFree, &data, n);
        assert_eq!(hist, ms);
        assert_eq!(ms, cf);
    }

    #[test]
    fn warp_variant_beats_the_histogram_on_fig2_shapes() {
        for n in [1000usize, 2000, 3000, 4000] {
            let data = random_batch(30, n, 31);
            let (_, hist_ms, hist_passes, hist_atomics, hist_votes) =
                strategy_run(FusedStrategy::Histogram, &data, n);
            let (_, warp_ms, warp_passes, warp_atomics, warp_votes) =
                strategy_run(FusedStrategy::WarpConflictFree, &data, n);
            assert!(
                warp_ms < hist_ms,
                "n={n}: gas-warp {warp_ms} ms vs histogram {hist_ms} ms"
            );
            assert!(
                warp_passes < hist_passes,
                "n={n}: bank passes {warp_passes} vs {hist_passes}"
            );
            assert!(
                warp_atomics < hist_atomics,
                "n={n}: warp aggregation must issue fewer RMWs"
            );
            assert_eq!(hist_votes, 0, "histogram path never votes");
            assert!(warp_votes > 0, "multisplit ballots must be billed");
        }
    }

    #[test]
    fn warp_variant_falls_back_like_the_histogram_one() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let n = 8000; // beyond both fused layouts
        let mut data = random_batch(3, n, 33);
        let stats = FusedSort::warp().sort(&mut gpu, &mut data, n).unwrap();
        assert_eq!(stats.path, FusedPath::ThreeKernelFallback);
        assert!(cpu_ref::is_each_sorted(&data, n));
    }

    #[test]
    fn kernel_launch_is_named_for_its_strategy() {
        let n = 600;
        let data = random_batch(5, n, 34);
        for (s, name) in [
            (FusedStrategy::Histogram, "gas_fused"),
            (FusedStrategy::WarpMultisplit, "gas_warp_multisplit"),
            (FusedStrategy::WarpConflictFree, "gas_warp"),
        ] {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            FusedSort::with_strategy(s)
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert_eq!(gpu.timeline().kernels[0].name, name);
        }
    }

    /// Adversarial batch: every sampled slot holds the minimum, so the
    /// paper's regular sample collapses while exact deterministic
    /// selection does not.
    fn collapse_batch(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect()
    }

    #[test]
    fn regular_policy_detects_fused_overflow_without_repair() {
        let n = 1000;
        let data = collapse_batch(8, n, 40);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut d = data.clone();
        let stats = FusedSort::new().sort(&mut gpu, &mut d, n).unwrap();
        assert!(cpu_ref::is_each_sorted(&d, n));
        assert!(stats.overflow.overflowed_buckets >= 1);
        assert!(stats.overflow.pre_max > stats.overflow.limit);
        assert_eq!(stats.overflow.post_max_sortable, stats.overflow.pre_max);
        assert_eq!(stats.overflow.resplit_rounds, 0);
        let counted: u64 = gpu
            .timeline()
            .kernels
            .iter()
            .map(|k| k.counters.bucket_overflows)
            .sum();
        assert_eq!(counted, stats.overflow.overflowed_buckets);
    }

    #[test]
    fn deterministic_policy_bounds_fused_buckets_on_every_strategy() {
        let n = 1000;
        let data = collapse_batch(8, n, 41);
        let cfg = ArraySortConfig {
            splitter_policy: SplitterPolicy::Deterministic,
            ..Default::default()
        };
        for strategy in [
            FusedStrategy::Histogram,
            FusedStrategy::WarpMultisplit,
            FusedStrategy::WarpConflictFree,
        ] {
            let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
            let mut d = data.clone();
            let stats = FusedSort::with_config_and_strategy(cfg.clone(), strategy)
                .unwrap()
                .sort(&mut gpu, &mut d, n)
                .unwrap();
            assert!(cpu_ref::is_each_sorted(&d, n), "{strategy:?}");
            assert!(
                stats.overflow.post_max_sortable <= stats.overflow.limit,
                "{strategy:?}: non-tie bound must hold after re-split: {:?}",
                stats.overflow
            );
            if stats.overflow.overflowed_buckets > 0 {
                assert!(stats.overflow.resplit_segments > 0, "{strategy:?}");
            }
        }
    }

    #[test]
    fn deterministic_fused_matches_three_kernel_bit_for_bit() {
        let n = 1000;
        let data = collapse_batch(6, n, 42);
        let cfg = ArraySortConfig {
            splitter_policy: SplitterPolicy::Deterministic,
            ..Default::default()
        };
        let mut fused = data.clone();
        let mut paper = data;
        let mut g1 = Gpu::new(DeviceSpec::tesla_k40c());
        FusedSort::with_config(cfg.clone())
            .unwrap()
            .sort(&mut g1, &mut fused, n)
            .unwrap();
        let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
        GpuArraySort::with_config(cfg)
            .unwrap()
            .sort(&mut g2, &mut paper, n)
            .unwrap();
        assert_eq!(
            fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            paper.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fused_memory_is_leaner_than_the_three_kernel_plan() {
        let cfg = ArraySortConfig::default();
        let geom = BatchGeometry::new(1000, 1000, &cfg);
        let plan = GasMemoryPlan::new(&geom, 4, &DeviceSpec::tesla_k40c());
        assert!(fused_memory_bytes(&geom, 4) < plan.total_bytes());
    }
}
