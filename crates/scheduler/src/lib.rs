//! # scheduler — a deadline-aware batch-sort service
//!
//! The GPU-ArraySort reproduction treats batched sorting the way the
//! sample-sort service literature does: as *traffic*. This crate
//! supervises a pool of N simulated devices ([`gpu_sim::Gpu`],
//! heterogeneous [`gpu_sim::DeviceSpec`]s allowed) draining a queue of
//! [`SortRequest`]s, each with a shape, an algorithm (GAS or the STA
//! baseline), a [`Priority`] and an absolute deadline:
//!
//! * **Admission control** — a request is refused up front, with the
//!   reason recorded, when no healthy device fits its batch or when the
//!   cost-model projection ([`CostModel`]) of its completion time blows
//!   its deadline ([`SortService`]).
//! * **Circuit breakers** — each device carries a [`CircuitBreaker`]
//!   fed by the injected-fault signal from [`gpu_sim::faults`]: K
//!   consecutive transient faults open the breaker, a cooldown later a
//!   half-open probe decides, and a fatal `SimError` blacklists the
//!   device permanently ([`breaker`]).
//! * **Retry re-dispatch** — a faulted attempt is rolled back via
//!   [`array_sort::checkpointed_attempt`] and retried with exponential
//!   backoff, preferring a *different* healthy device.
//! * **Graceful degradation** — under overload the lowest-priority
//!   request is shed first (explicitly, never silently), and work whose
//!   deadline is still feasible on the host falls back to
//!   [`array_sort::cpu_ref`].
//! * **Tail tolerance** — an attempt watchdog cancels over-budget
//!   attempts at their checkpoint, deadline-tight High/Critical requests
//!   can hedge onto a second device, a permanent
//!   [`gpu_sim::FaultKind::DeviceDeath`] removes its device from the
//!   pool forever, and the [`DegradationLadder`] steps the service
//!   through explicit brownout levels (L0 normal … L4 host-only) with
//!   hysteretic recovery ([`degrade`], [`SchedulerConfig`]).
//! * **Streaming throughput** — an admission window coalesces small
//!   compatible requests into one mega-batch per launch ([`coalesce`]),
//!   the overlapped dispatch path pipelines H2D/compute/D2H on three
//!   streams per device with the billed time taken at quiesce, and a
//!   content-hash LRU ([`ResultCache`]) serves repeated payloads with
//!   zero device time, all reconciled in the report's `cache` section.
//!   Every knob defaults off, keeping legacy runs byte-identical.
//!
//! Everything runs on a **virtual clock** driven by the simulator's
//! cycle bills, with seeded tie-breaking, so a soak over thousands of
//! requests is bit-reproducible: the same seeds produce byte-identical
//! [`ServiceReport`] JSON. The report's
//! [`invariant_violations`](ServiceReport::invariant_violations) checks
//! the run end to end: one record per request, every produced output
//! equal to the `cpu_ref` oracle, and per-device transient attempt
//! failures exactly reconciling with the fault injectors' logs.
//!
//! The whole request path is also instrumented through the
//! [`telemetry`] crate: [`SortService::metrics`] exposes a
//! [`Registry`] of queue-wait/service-time/latency histograms, shed and
//! retry counters and the `gas_model_accuracy_rel_err` family (signed
//! relative error of every [`CostModel`] projection against the
//! simulator's billed time), and the report's [`SloReport`] section is
//! derived from it — with `invariant_violations` recomputing the SLO
//! rows from the raw records to prove the two agree.

#![warn(missing_docs)]

pub mod breaker;
pub mod cache;
pub mod coalesce;
pub mod degrade;
pub mod estimate;
pub mod pool;
pub mod report;
pub mod request;
pub mod service;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{CacheKey, CacheStats, ResultCache};
pub use degrade::{DegradationLadder, DegradationTransition, DEFAULT_HOLD_MS, MAX_LEVEL};
pub use estimate::CostModel;
pub use pool::{device_by_name, parse_mix, DevicePool, PooledDevice};
pub use report::{
    record_request_metrics, AttemptRecord, CacheReport, DegradationReport, DeviceReport, Outcome,
    PriorityShed, PrioritySlo, RequestRecord, ServiceReport, SloReport, ALL_PRIORITIES,
};
pub use request::{Algorithm, Priority, SortRequest, Workload, WorkloadConfig};
pub use service::{SchedulerConfig, SortService};
// Re-exported so downstream users (the CLI, integration tests) can name
// the metric types without a direct `telemetry` dependency.
pub use telemetry::{Histogram, Registry, Snapshot};
