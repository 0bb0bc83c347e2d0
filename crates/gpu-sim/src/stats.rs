//! Instrumentation: per-launch kernel statistics, transfer records, phase
//! spans and the device timeline they roll up into.
//!
//! Every kernel launch and transfer carries a simulated **start timestamp**
//! and (when issued on a stream) its **stream id**, so the event ordering
//! and any cross-stream overlap survive serialization — the [`Timeline`] is
//! a true event trace, exportable to Chrome trace-event JSON via
//! [`crate::trace`]. Host-side code groups device work into named
//! [`SpanRecord`]s through [`crate::gpu::Gpu::begin_span`].

use crate::cost::CostModel;
use crate::spec::DeviceSpec;

/// Operation counters accumulated by threads and merged up through blocks
/// into a launch. All counts are exact (the simulator observes every charge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// ALU/compare/move instructions.
    pub alu: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Global-memory element accesses (loads + stores).
    pub global_elems: u64,
    /// Global transactions in millionths (per-thread amortization makes the
    /// per-charge contribution fractional; stored as micro-transactions so
    /// the counter stays an exact integer). Use [`Counters::global_txns`].
    pub global_txn_micro: u64,
    /// Global atomic RMW operations.
    pub atomics_global: u64,
    /// Shared-memory atomic RMW operations.
    pub atomics_shared: u64,
    /// Barrier (`__syncthreads`) events, one per phase per block.
    pub syncs: u64,
    /// Divergent-branch events explicitly recorded by kernels.
    pub divergence_events: u64,
    /// Cycles charged through the calibrated baseline-sort overhead
    /// ([`crate::cost::CostModel::thrust_elem_cycles`]).
    pub baseline_cycles: u64,
    /// Shared-memory *bank passes*: each access contributes its conflict
    /// degree (1 for conflict-free accesses, `d` for accesses charged via
    /// [`crate::block::ThreadCtx::charge_shared_conflicted`]), so
    /// `shared_bank_passes / shared_accesses` is the launch's mean
    /// bank-conflict degree.
    pub shared_bank_passes: u64,
    /// Warp-vote instructions (`ballot` / `match_any` class) charged via
    /// [`crate::block::ThreadCtx::charge_warp_vote`]. Register-file
    /// traffic: contributes **no** shared accesses or bank passes.
    pub warp_votes: u64,
    /// Warp-shuffle instructions (`shfl` class, including the shuffles of
    /// a warp-exclusive prefix scan) charged via
    /// [`crate::block::ThreadCtx::charge_warp_shuffle`].
    pub warp_shuffles: u64,
    /// Bucket-overflow events observed by a bucketing kernel: buckets
    /// whose element count exceeded their thread group's capacity bound,
    /// recorded via [`crate::block::ThreadCtx::record_bucket_overflow`].
    /// Pure bookkeeping (zero cycles): overflow must be *observable*, not
    /// a silent slow path.
    pub bucket_overflows: u64,
}

support::impl_json!(struct Counters {
    alu, shared_accesses, global_elems, global_txn_micro, atomics_global, atomics_shared,
    syncs, divergence_events, baseline_cycles, #[default] shared_bank_passes,
    #[default] warp_votes, #[default] warp_shuffles, #[default] bucket_overflows
});

impl Counters {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Counters) {
        self.merge_times(other, 1);
    }

    /// Adds `times` copies of `other` (what `times` threads that each
    /// counted `other` contribute to their block).
    #[inline]
    pub fn merge_times(&mut self, other: &Counters, times: u64) {
        self.alu += other.alu * times;
        self.shared_accesses += other.shared_accesses * times;
        self.global_elems += other.global_elems * times;
        self.global_txn_micro += other.global_txn_micro * times;
        self.atomics_global += other.atomics_global * times;
        self.atomics_shared += other.atomics_shared * times;
        self.syncs += other.syncs * times;
        self.divergence_events += other.divergence_events * times;
        self.baseline_cycles += other.baseline_cycles * times;
        self.shared_bank_passes += other.shared_bank_passes * times;
        self.warp_votes += other.warp_votes * times;
        self.warp_shuffles += other.warp_shuffles * times;
        self.bucket_overflows += other.bucket_overflows * times;
    }

    /// Whole global-memory transactions (rounded from the micro count).
    pub fn global_txns(&self) -> u64 {
        (self.global_txn_micro + 500_000) / 1_000_000
    }
}

/// Derived efficiency metrics of one kernel launch: its position against
/// the device's roofline peaks, computed at launch time from the exact
/// counters plus the [`DeviceSpec`]/[`CostModel`] in effect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelEfficiency {
    /// Achieved global-memory throughput in GB/s (transactions × segment
    /// size over the kernel's wall time).
    pub gb_per_s: f64,
    /// The device's peak global-memory bandwidth ([`DeviceSpec::mem_gb_per_s`]).
    pub peak_gb_per_s: f64,
    /// `gb_per_s / peak_gb_per_s` — the memory axis of the roofline.
    pub mem_utilization: f64,
    /// ALU instructions retired per device cycle.
    pub alu_per_cycle: f64,
    /// Peak ALU issue rate per cycle (`sm_count × cores_per_sm`).
    pub peak_alu_per_cycle: f64,
    /// `alu_per_cycle / peak_alu_per_cycle` — the compute axis.
    pub alu_utilization: f64,
    /// Ideal (perfectly coalesced, 4-byte elements) transactions divided by
    /// the transactions actually issued; 1.0 = fully coalesced.
    pub coalescing_ratio: f64,
    /// Mean shared-memory bank-conflict degree
    /// (`shared_bank_passes / shared_accesses`; 1.0 = conflict-free).
    pub bank_conflict_degree: f64,
}

support::impl_json!(struct KernelEfficiency {
    gb_per_s, peak_gb_per_s, mem_utilization, alu_per_cycle, peak_alu_per_cycle,
    alu_utilization, coalescing_ratio, bank_conflict_degree
});

impl KernelEfficiency {
    /// Computes the roofline position of a launch from its aggregated
    /// counters and timing. `cycles`/`time_ms` of zero yield zero rates.
    pub fn compute(
        counters: &Counters,
        cycles: u64,
        time_ms: f64,
        spec: &DeviceSpec,
        cost: &CostModel,
    ) -> Self {
        let bytes = counters.global_txns() * cost.seg_bytes as u64;
        let gb_per_s = if time_ms > 0.0 {
            bytes as f64 / (time_ms * 1e6)
        } else {
            0.0
        };
        let peak_gb_per_s = spec.mem_gb_per_s;
        let mem_utilization = if peak_gb_per_s > 0.0 {
            gb_per_s / peak_gb_per_s
        } else {
            0.0
        };
        let alu_per_cycle = if cycles > 0 {
            counters.alu as f64 / cycles as f64
        } else {
            0.0
        };
        let peak_alu_per_cycle = (spec.sm_count as u64 * spec.cores_per_sm as u64) as f64;
        let alu_utilization = if peak_alu_per_cycle > 0.0 {
            alu_per_cycle / peak_alu_per_cycle
        } else {
            0.0
        };
        // The simulator sorts 4-byte keys; the ideal bill assumes every
        // element rides a perfectly coalesced 4-byte access.
        let ideal_txns = (counters.global_elems * 4).div_ceil(cost.seg_bytes.max(1) as u64);
        let actual_txns = counters.global_txns();
        let coalescing_ratio = if actual_txns > 0 {
            (ideal_txns as f64 / actual_txns as f64).min(1.0)
        } else {
            1.0
        };
        let bank_conflict_degree = if counters.shared_accesses > 0 {
            counters.shared_bank_passes as f64 / counters.shared_accesses as f64
        } else {
            1.0
        };
        Self {
            gb_per_s,
            peak_gb_per_s,
            mem_utilization,
            alu_per_cycle,
            peak_alu_per_cycle,
            alu_utilization,
            coalescing_ratio,
            bank_conflict_degree,
        }
    }
}

/// The result of one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Kernel name given at launch (shows up in reports).
    pub name: String,
    /// Blocks in the grid.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Simulated device cycles (makespan over SMs).
    pub cycles: u64,
    /// Simulated wall time, including launch overhead.
    pub time_ms: f64,
    /// Simulated start timestamp (ms since device creation or the last
    /// [`crate::gpu::Gpu::reset_clock`]). For stream-issued launches this
    /// is the *scheduled* start on the compute engine.
    pub start_ms: f64,
    /// Stream the launch was issued on (`None` = the default synchronous
    /// stream).
    pub stream: Option<usize>,
    /// Aggregated operation counters across all blocks.
    pub counters: Counters,
    /// Load imbalance: busiest SM cycles / mean SM cycles (1.0 = perfect).
    pub sm_imbalance: f64,
    /// Cycles of the single most expensive block (tail latency).
    pub max_block_cycles: u64,
    /// Theoretical occupancy of this launch (resident warps / max warps),
    /// from the declared block shape and shared-memory bytes.
    pub occupancy: f64,
    /// Roofline position and access-quality metrics for this launch.
    pub efficiency: KernelEfficiency,
}

support::impl_json!(struct KernelStats {
    name, grid_dim, block_dim, cycles, time_ms, #[default] start_ms, #[default] stream,
    counters, sm_imbalance, max_block_cycles, occupancy, #[default] efficiency
});

impl KernelStats {
    /// Simulated end timestamp (`start_ms + time_ms`).
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.time_ms
    }
}

/// One host↔device copy.
#[derive(Debug, Clone)]
pub struct TransferStats {
    /// "htod" or "dtoh".
    pub direction: TransferDir,
    /// Payload size.
    pub bytes: u64,
    /// Simulated time for the copy.
    pub time_ms: f64,
    /// Simulated start timestamp (scheduled DMA-engine start for
    /// stream-issued copies).
    pub start_ms: f64,
    /// Stream the copy was issued on (`None` = default stream).
    pub stream: Option<usize>,
}

support::impl_json!(struct TransferStats {
    direction, bytes, time_ms, #[default] start_ms, #[default] stream
});

impl TransferStats {
    /// Simulated end timestamp (`start_ms + time_ms`).
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.time_ms
    }
}

/// Identifies an open span created by [`crate::gpu::Gpu::begin_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) usize);

/// A named host-side phase span: a window of simulated time grouping the
/// kernels and transfers issued inside it (e.g. `"gas/phase1-splitters"`).
/// Spans nest; `depth` is 0 for top-level phases.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name given at [`crate::gpu::Gpu::begin_span`].
    pub name: String,
    /// Simulated time when the span was opened.
    pub start_ms: f64,
    /// Simulated time when the span was closed (equals `start_ms` while
    /// still open).
    pub end_ms: f64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
}

support::impl_json!(struct SpanRecord { name, start_ms, end_ms, depth });

impl SpanRecord {
    /// Span duration in simulated ms.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Direction of a PCIe copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host to device.
    HtoD,
    /// Device to host.
    DtoH,
}

support::impl_json!(
    enum TransferDir {
        HtoD = "HtoD",
        DtoH = "DtoH",
    }
);

/// Roll-up of everything a [`crate::gpu::Gpu`] has executed: the queryable
/// "profiler" view experiments read after a run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Every kernel launch, in order.
    pub kernels: Vec<KernelStats>,
    /// Every transfer, in order.
    pub transfers: Vec<TransferStats>,
    /// Every host-side phase span, in open order.
    pub spans: Vec<SpanRecord>,
}

support::impl_json!(struct Timeline { kernels, transfers, #[default] spans });

impl Timeline {
    /// Total simulated kernel time.
    pub fn kernel_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.time_ms).sum()
    }

    /// Total simulated transfer time.
    pub fn transfer_ms(&self) -> f64 {
        self.transfers.iter().map(|t| t.time_ms).sum()
    }

    /// Total bytes moved host→device.
    pub fn htod_bytes(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == TransferDir::HtoD)
            .map(|t| t.bytes)
            .sum()
    }

    /// Total bytes moved device→host.
    pub fn dtoh_bytes(&self) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == TransferDir::DtoH)
            .map(|t| t.bytes)
            .sum()
    }

    /// Kernel stats filtered by name prefix (e.g. all "radix" passes).
    pub fn kernels_named<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a KernelStats> {
        self.kernels
            .iter()
            .filter(move |k| k.name.starts_with(prefix))
    }

    /// Top-level (depth-0) spans, in order.
    pub fn top_spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.depth == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_adds_everything() {
        let mut a = Counters {
            alu: 1,
            shared_accesses: 2,
            global_elems: 3,
            global_txn_micro: 4,
            atomics_global: 5,
            atomics_shared: 6,
            syncs: 7,
            divergence_events: 8,
            baseline_cycles: 9,
            shared_bank_passes: 10,
            warp_votes: 11,
            warp_shuffles: 12,
            bucket_overflows: 13,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.alu, 2);
        assert_eq!(a.divergence_events, 16);
        assert_eq!(a.baseline_cycles, 18);
        assert_eq!(a.shared_bank_passes, 20);
        assert_eq!(a.warp_votes, 22);
        assert_eq!(a.warp_shuffles, 24);
        assert_eq!(a.bucket_overflows, 26);
    }

    #[test]
    fn micro_txns_round_to_nearest() {
        let c = Counters {
            global_txn_micro: 1_499_999,
            ..Default::default()
        };
        assert_eq!(c.global_txns(), 1);
        let c = Counters {
            global_txn_micro: 1_500_000,
            ..Default::default()
        };
        assert_eq!(c.global_txns(), 2);
    }

    #[test]
    fn timeline_rollups() {
        let mut tl = Timeline::default();
        tl.transfers.push(TransferStats {
            direction: TransferDir::HtoD,
            bytes: 100,
            time_ms: 1.0,
            start_ms: 0.0,
            stream: None,
        });
        tl.transfers.push(TransferStats {
            direction: TransferDir::DtoH,
            bytes: 40,
            time_ms: 0.5,
            start_ms: 1.0,
            stream: None,
        });
        assert_eq!(tl.htod_bytes(), 100);
        assert_eq!(tl.dtoh_bytes(), 40);
        assert!((tl.transfer_ms() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn kernels_named_filters_by_prefix() {
        let mut tl = Timeline::default();
        for name in ["radix_hist", "radix_scatter", "bucket_sort"] {
            tl.kernels.push(KernelStats {
                name: name.into(),
                grid_dim: 1,
                block_dim: 1,
                cycles: 0,
                time_ms: 0.0,
                start_ms: 0.0,
                stream: None,
                counters: Counters::default(),
                sm_imbalance: 1.0,
                max_block_cycles: 0,
                occupancy: 1.0,
                efficiency: KernelEfficiency::default(),
            });
        }
        assert_eq!(tl.kernels_named("radix").count(), 2);
    }

    #[test]
    fn efficiency_ratios_against_spec_peaks() {
        let spec = DeviceSpec::test_device();
        let cost = CostModel::default();
        // 1000 transactions, 1 ms → bytes = 1000 × seg_bytes over 1e6 µs-bytes.
        let c = Counters {
            alu: 500,
            global_elems: 32_000,
            global_txn_micro: 1000 * 1_000_000,
            shared_accesses: 10,
            shared_bank_passes: 25,
            ..Default::default()
        };
        let e = KernelEfficiency::compute(&c, 1000, 1.0, &spec, &cost);
        let want_gbs = (1000 * cost.seg_bytes as u64) as f64 / 1e6;
        assert!((e.gb_per_s - want_gbs).abs() < 1e-12);
        assert_eq!(e.peak_gb_per_s, spec.mem_gb_per_s);
        assert!((e.alu_per_cycle - 0.5).abs() < 1e-12);
        assert!((e.bank_conflict_degree - 2.5).abs() < 1e-12);
        // 32 000 elements × 4 B = 1000 ideal segments of 128 B → fully coalesced.
        assert!((e.coalescing_ratio - 1.0).abs() < 1e-12);
        assert!(e.mem_utilization > 0.0 && e.alu_utilization > 0.0);
    }

    #[test]
    fn efficiency_of_empty_launch_is_benign() {
        let e = KernelEfficiency::compute(
            &Counters::default(),
            0,
            0.0,
            &DeviceSpec::test_device(),
            &CostModel::default(),
        );
        assert_eq!(e.gb_per_s, 0.0);
        assert_eq!(e.alu_per_cycle, 0.0);
        assert_eq!(e.coalescing_ratio, 1.0);
        assert_eq!(e.bank_conflict_degree, 1.0);
    }

    #[test]
    fn span_record_duration_and_top_filter() {
        let mut tl = Timeline::default();
        tl.spans.push(SpanRecord {
            name: "a".into(),
            start_ms: 0.0,
            end_ms: 2.0,
            depth: 0,
        });
        tl.spans.push(SpanRecord {
            name: "a/inner".into(),
            start_ms: 0.5,
            end_ms: 1.5,
            depth: 1,
        });
        tl.spans.push(SpanRecord {
            name: "b".into(),
            start_ms: 2.0,
            end_ms: 3.0,
            depth: 0,
        });
        assert_eq!(tl.top_spans().count(), 2);
        assert!((tl.spans[1].duration_ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn event_end_timestamps() {
        let k = KernelStats {
            name: "k".into(),
            grid_dim: 1,
            block_dim: 1,
            cycles: 0,
            time_ms: 2.5,
            start_ms: 1.0,
            stream: Some(3),
            counters: Counters::default(),
            sm_imbalance: 1.0,
            max_block_cycles: 0,
            occupancy: 1.0,
            efficiency: KernelEfficiency::default(),
        };
        assert!((k.end_ms() - 3.5).abs() < 1e-12);
        let t = TransferStats {
            direction: TransferDir::HtoD,
            bytes: 8,
            time_ms: 0.25,
            start_ms: 4.0,
            stream: None,
        };
        assert!((t.end_ms() - 4.25).abs() < 1e-12);
    }
}
