//! # array-sort — GPU-ArraySort (Awan & Saeed, ICPP 2016) in Rust
//!
//! A parallel, **in-place** algorithm for sorting a large number of small
//! arrays on a GPU, reproduced on the [`gpu_sim`] simulated device. The
//! algorithm runs in three kernel launches, one block per array:
//!
//! 1. **[`splitters`]** — a single worker thread per block stages its
//!    array in shared memory, draws a 10 % regular sample, insertion-sorts
//!    it and emits `p − 1` splitters plus two sentinels (paper §5.1);
//! 2. **[`bucketing`]** — one thread per bucket scans the array with its
//!    splitter pair (branch-divergence-free), records bucket sizes in the
//!    global `Z` table, stages buckets in shared memory and writes them
//!    back **over the original array** (paper §5.2);
//! 3. **[`sorting`]** — one thread per bucket insertion-sorts its bucket
//!    in place; concatenation is the sorted array, no merge needed
//!    (paper §5.3).
//!
//! The crate also ships the paper's analytical complexity model
//! ([`complexity`], §6), CPU references ([`cpu_ref`]), and the §9
//! future-work extension: an [`out_of_core`] sorter that chunks datasets
//! larger than device memory and hides transfer latency by double
//! buffering. The [`recovery`] module hardens both entry points against
//! injected device faults ([`gpu_sim::faults`]) with bounded retry,
//! chunk checkpointing and graceful degradation to [`cpu_ref`].
//!
//! Beyond the paper, [`fused`] collapses the three launches into a
//! **single kernel** (`gas-fused`): shared-memory staging, binary-search
//! bucket indices over the splitters, a histogram + scan + in-shared
//! scatter, the per-bucket sort, and one coalesced write-back — ~3×
//! fewer launches and ~1/30 the global transactions on the paper's
//! shapes. Its `gas-warp` variant ([`FusedStrategy`], `FusedSort::warp`)
//! swaps the histogram for a warp-level multisplit (ballot +
//! peer-grouping + shuffle scan, leader-only atomics), cutting the
//! kernel's measured `shared_bank_passes` and time further. The
//! three-kernel path remains the reproduction-faithful default.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::{DeviceSpec, Gpu};
//! use array_sort::GpuArraySort;
//!
//! let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
//! let mut data: Vec<f32> = (0..4000).rev().map(|x| x as f32).collect(); // 4 arrays × 1000
//! let stats = GpuArraySort::new().sort(&mut gpu, &mut data, 1000).unwrap();
//! assert!(array_sort::cpu_ref::is_each_sorted(&data, 1000));
//! println!(
//!     "phase1 {:.3} ms, phase2 {:.3} ms, phase3 {:.3} ms, peak {} B",
//!     stats.phase1_ms, stats.phase2_ms, stats.phase3_ms, stats.peak_bytes
//! );
//! ```

#![warn(missing_docs)]

pub mod bucketing;
pub mod complexity;
pub mod config;
pub mod cpu_ref;
pub mod fused;
pub mod geometry;
pub mod insertion;
pub mod key;
pub mod merge_variant;
pub mod out_of_core;
pub mod pairs;
pub mod pipeline;
pub mod ragged;
pub mod recovery;
pub mod resplit;
pub mod sorter;
pub mod sorting;
pub mod splitters;

pub use bucketing::{BalanceStats, StagingStrategy};
pub use config::{ArraySortConfig, ConfigError, SplitterPolicy};
pub use fused::{FusedBreakdown, FusedPath, FusedSort, FusedStats, FusedStrategy};
pub use geometry::{BatchGeometry, GasMemoryPlan};
pub use key::SortKey;
pub use merge_variant::{merge_sort_arrays, MergeVariantStats};
pub use out_of_core::{sort_out_of_core, sort_out_of_core_streamed, OocStats, StreamedOocStats};
pub use pairs::{sort_pairs, PairSortStats, PairValue};
pub use pipeline::{DeviceRunStats, GasStats, GpuArraySort};
pub use ragged::{sort_ragged, RaggedGeometry, RaggedStats};
pub use recovery::{
    checkpointed_attempt, recover_batch_with, sort_out_of_core_recovering,
    sort_ragged_with_recovery, ChunkRecovery, FailedAttempt, RecoveryReport, RetryPolicy,
};
pub use resplit::{BucketSeg, OverflowReport, ResplitWork};
pub use sorter::{SortStats, Sorter, Variant};
pub use splitters::{bucket_index, deterministic_splitters, overflow_limit, Phase1Strategy};
