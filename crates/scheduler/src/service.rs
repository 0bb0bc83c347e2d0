//! The deadline-aware scheduling loop.
//!
//! [`SortService::run`] drains a [`Workload`] through a [`DevicePool`]
//! on a single **virtual clock**: time only moves when the next event
//! (an arrival, a device finishing, a retry backoff expiring, a breaker
//! cooldown ending) says so, and every duration comes from the
//! simulator's own cycle bills. Combined with seeded tie-breaking this
//! makes a soak run over thousands of requests bit-reproducible.
//!
//! Per request the service:
//!
//! 1. **admits or refuses** on arrival — a batch that fits no healthy
//!    device, or whose projected completion (queue backlog spread over
//!    healthy devices plus the cost-model estimate) blows its deadline,
//!    is rejected with the reason in the report;
//! 2. **dispatches** the highest-priority runnable request (EDF within
//!    a priority class) to the healthy idle device with the lowest
//!    estimated service time, breaking exact ties with the seeded RNG;
//! 3. **retries with backoff** after a transient injected fault — the
//!    attempt is rolled back via [`array_sort::checkpointed_attempt`]
//!    and re-dispatched, *preferring a different device* than the one
//!    that just failed;
//! 4. **degrades gracefully** — exhausted retries (or an overload shed
//!    whose deadline is still feasible on host) fall back to
//!    [`array_sort::cpu_ref`]; overload sheds the lowest-priority
//!    queued request first, always with an explicit record.
//!
//! Every dispatch is a *group* of 1..k requests run by one routine,
//! and every device attempt one launch plan run by one function: a
//! request dispatched alone is a group of one, a coalesced mega-batch a
//! larger group, and overlapped dispatch the streamed plan of that same
//! attempt (see `SortService::dispatch`).
//!
//! Device attempts run inside `sched/req-N/attempt-1` spans
//! (`sched/mega-N/…` for a group led by request N), retries inside
//! `recovery/req-N/attempt-K`, host fallbacks leave a
//! `recovery/req-N/cpu-fallback` marker — all through the existing
//! [`gpu_sim::trace`] pipeline, so a pool trace shows the whole story.
//!
//! On top of that sits the tail-tolerance layer (all off by default,
//! enabled via [`SchedulerConfig`]):
//!
//! * **Attempt watchdog** — every GAS attempt carries a budget of
//!   `CostModel::device_ms_worst × timeout_slack`; a *successful*
//!   attempt whose bill exceeds it (a stall storm) is cancelled at the
//!   checkpoint, leaves a `recovery/req-N/watchdog-cancel` marker, and
//!   the request is re-dispatched with backoff to a different device.
//! * **Request hedging** — a High/Critical request whose deadline slack
//!   at dispatch is below `hedge_slack_ms` gets a speculative duplicate
//!   attempt on a second idle device (`sched/req-N/hedge-K` span).
//!   First completion wins — exact ties broken by the seeded RNG — and
//!   the loser is cancelled at its checkpoint with its wasted time
//!   accounted in `gas_hedges_total` / `gas_hedge_wasted_ms_total`.
//! * **Device death** — the permanent
//!   [`gpu_sim::FaultKind::DeviceDeath`] fault rides the fatal path:
//!   the breaker blacklists the device forever, the in-flight attempt
//!   rolls back to its checkpoint and re-dispatches, and the pool
//!   serves on down to one device, then the host.
//! * **Degradation ladder** — see [`crate::degrade`]: L0 normal → L1 no
//!   hedging → L2 cheapest GAS variant → L3 shed low priority → L4
//!   host-only, escalating immediately and recovering with hysteresis,
//!   every transition a `sched/degrade/*` span and a metric.

use std::cmp::Ordering;
use std::collections::VecDeque;

use array_sort::{
    checkpointed_attempt, cpu_ref, ArraySortConfig, BatchGeometry, Sorter, SplitterPolicy, Variant,
};
use gpu_sim::{FaultPlan, Gpu, SimResult, StreamId};
use support::ChaCha8Rng;

use telemetry::{Registry, Snapshot};

use crate::breaker::BreakerConfig;
use crate::cache::{CacheKey, ResultCache};
use crate::coalesce;
use crate::degrade::DegradationLadder;
use crate::estimate::CostModel;
use crate::pool::DevicePool;
use crate::report::{
    record_request_metrics, AttemptRecord, CacheReport, DegradationReport, DeviceReport, Outcome,
    RequestRecord, ServiceReport, SloReport,
};
use crate::request::{Algorithm, Priority, SortRequest, Workload};

/// Slop for virtual-time comparisons.
const EPS: f64 = 1e-9;

/// Rejection reason for a batch no healthy device can hold and the host
/// cannot sort by its deadline.
const NO_FIT_NO_HOST: &str = "batch fits no healthy pool device and host cannot meet deadline";

/// Scheduler tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Seed for the tie-breaking RNG.
    pub seed: u64,
    /// Queue depth beyond which the lowest-priority request is shed.
    pub max_queue_depth: usize,
    /// Device attempts per request (across all devices) before the
    /// host fallback. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Base retry backoff, doubled per failed attempt.
    pub backoff_base_ms: f64,
    /// Per-device circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Admission cost model.
    pub cost: CostModel,
    /// Watchdog slack factor: a GAS attempt's budget is
    /// `device_ms_worst × timeout_slack`; a successful attempt billed
    /// over budget is cancelled at the checkpoint and re-dispatched.
    /// `0.0` (the default) disables the watchdog.
    pub timeout_slack: f64,
    /// Hedging threshold: a High/Critical request whose deadline slack
    /// at dispatch falls below this many virtual milliseconds gets a
    /// speculative duplicate attempt on a second idle device. `0.0`
    /// (the default) disables hedging.
    pub hedge_slack_ms: f64,
    /// Enables the graceful-degradation ladder ([`crate::degrade`]).
    pub degrade: bool,
    /// Coalescing admission window, virtual ms: freshly admitted
    /// requests are held up to this long (never past the last instant
    /// their deadline stays feasible) so compatible peers can merge into
    /// one mega-batch launch. `0.0` (the default) disables coalescing:
    /// every dispatch is a group of one. Negative means *auto*: the cost
    /// model picks the window from the pool
    /// ([`CostModel::auto_batch_window_ms`]).
    pub batch_window_ms: f64,
    /// Capacity of the content-hash result cache, in entries. `0` (the
    /// default) disables the cache.
    pub cache_entries: usize,
    /// Runs coalesced GAS launches through the per-device streamed
    /// pipeline: member k+1's upload overlaps member k's kernel while
    /// member k−1 downloads, on three streams per device, with the
    /// attempt billed at quiesce. Off by default (sequential dispatch).
    pub overlap: bool,
}

support::impl_to_json!(struct SchedulerConfig {
    seed, max_queue_depth, max_attempts, backoff_base_ms, breaker, cost, timeout_slack,
    hedge_slack_ms, degrade, batch_window_ms, cache_entries, overlap
});

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            max_queue_depth: 16,
            max_attempts: 3,
            backoff_base_ms: 2.0,
            breaker: BreakerConfig::default(),
            cost: CostModel::default(),
            timeout_slack: 0.0,
            hedge_slack_ms: 0.0,
            degrade: false,
            batch_window_ms: 0.0,
            cache_entries: 0,
            overlap: false,
        }
    }
}

/// An admitted request waiting for (re)dispatch.
struct Pending {
    req: SortRequest,
    data: Vec<f32>,
    oracle: Vec<f32>,
    est_ms: f64,
    attempts_made: u32,
    attempts: Vec<AttemptRecord>,
    not_before_ms: f64,
    last_device: Option<usize>,
    cache_key: Option<CacheKey>,
}

/// Scheduling order: priority first, then earliest deadline, then id.
fn sched_order(a: &Pending, b: &Pending) -> Ordering {
    b.req
        .priority
        .cmp(&a.req.priority)
        .then(a.req.deadline_ms.total_cmp(&b.req.deadline_ms))
        .then(a.req.id.cmp(&b.req.id))
}

/// The four sorters built under one splitter policy, indexed by
/// `Variant as usize`.
fn sorters(policy: SplitterPolicy) -> Result<[Sorter; 4], String> {
    let cfg = ArraySortConfig {
        splitter_policy: policy,
        ..Default::default()
    };
    let [three_kernel, fused, warp, sta] = Variant::ALL.map(|v| {
        Sorter::new(v, cfg.clone()).map_err(|e| format!("{} sorter config: {e:?}", policy.label()))
    });
    Ok([three_kernel?, fused?, warp?, sta?])
}

/// The attempt record's `variant` label for the pipeline that ran.
fn record_label(variant: Variant) -> &'static str {
    match variant {
        Variant::ThreeKernel => "three-kernel",
        Variant::Fused => "fused",
        Variant::Warp => "warp",
        Variant::Sta => "sta",
    }
}

/// Sorts `data` as one launch per segment (array counts, in payload
/// order) through the device's upload/compute/download streams: segment
/// k+1's upload proceeds under segment k's kernel while segment k−1's
/// download drains, chained with events. GAS variants only. Ends on the
/// default stream on every exit path, which quiesces the three streams
/// — so the attempt's bill is the true end-to-end wall time of the
/// overlapped launch, not an accounting artifact. Returns the bucket
/// overflows the launches observed.
fn sort_streamed(
    sorter: &Sorter,
    g: &mut Gpu,
    data: &mut [f32],
    array_len: usize,
    segments: &[usize],
    [up, comp, down]: [StreamId; 3],
) -> SimResult<u64> {
    let mut run = || -> SimResult<u64> {
        let mut overflows = 0;
        let mut offset = 0usize;
        for &num in segments {
            let len = num * array_len;
            let chunk = &mut data[offset..offset + len];
            offset += len;
            g.set_stream(Some(up));
            let mut buf = g.alloc::<f32>(len)?;
            g.htod_into(chunk, &mut buf)?;
            let e_up = g.record_event(up);
            g.stream_wait_event(comp, e_up);
            g.set_stream(Some(comp));
            let geom = BatchGeometry::new(num, array_len, sorter.config());
            overflows += sorter.sort_device(g, &buf, &geom)?.overflowed_buckets;
            let e_k = g.record_event(comp);
            g.stream_wait_event(down, e_k);
            g.set_stream(Some(down));
            g.dtoh_into(&mut buf, chunk)?;
        }
        Ok(overflows)
    };
    let result = run();
    g.set_stream(None);
    result
}

/// The service: a device pool plus the scheduling state.
pub struct SortService {
    cfg: SchedulerConfig,
    pool: DevicePool,
    /// The sorters per splitter policy, indexed by
    /// `[SplitterPolicy as usize][Variant as usize]` (see
    /// [`SortService::sorter`]).
    sorters: [[Sorter; 4]; 2],
    rng: ChaCha8Rng,
    registry: Registry,
    ladder: DegradationLadder,
    cache: Option<ResultCache>,
    /// The coalescing window in force for the current run:
    /// `cfg.batch_window_ms`, or the cost-model choice when that is
    /// negative. Zero disables coalescing.
    window_ms: f64,
}

/// One launch on one device after watchdog assessment and its device
/// side effects: what goes into the attempt record, plus the sorted
/// payload should it win.
struct Launch {
    device: usize,
    hedge: bool,
    end_ms: f64,
    error: Option<String>,
    transient: bool,
    cancelled: Option<String>,
    predicted_ms: f64,
    variant: &'static str,
    /// Bucket overflows the sort observed (GAS variants only).
    overflows: u64,
    output: Vec<f32>,
}

impl Launch {
    /// Still in the running: neither failed nor cancelled.
    fn viable(&self) -> bool {
        self.error.is_none() && self.cancelled.is_none()
    }

    fn record(&self, start_ms: f64, coalesced: usize) -> AttemptRecord {
        AttemptRecord {
            device: self.device,
            start_ms,
            end_ms: self.end_ms,
            error: self.error.clone(),
            transient: self.transient,
            predicted_ms: self.predicted_ms,
            variant: self.variant.to_string(),
            hedge: self.hedge,
            cancelled: self.cancelled.clone(),
            coalesced,
        }
    }
}

impl SortService {
    /// Builds a service over `specs`. With `faults`, device `i` runs
    /// under the plan reseeded `seed + i` (see [`DevicePool::new`]).
    pub fn new(
        specs: Vec<gpu_sim::DeviceSpec>,
        cfg: SchedulerConfig,
        faults: Option<&FaultPlan>,
    ) -> Result<Self, String> {
        let pool = DevicePool::new(specs, cfg.breaker, faults)?;
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let degrade = cfg.degrade;
        Ok(Self {
            cfg,
            pool,
            sorters: [
                sorters(SplitterPolicy::RegularSample)?,
                sorters(SplitterPolicy::Deterministic)?,
            ],
            rng,
            registry: Registry::new(),
            ladder: DegradationLadder::new(degrade),
            cache: None,
            window_ms: 0.0,
        })
    }

    /// The sorter a request under `policy` runs `variant` on.
    fn sorter(&self, policy: SplitterPolicy, variant: Variant) -> &Sorter {
        &self.sorters[policy as usize][variant as usize]
    }

    /// The sorter configuration under `policy`.
    fn config(&self, policy: SplitterPolicy) -> &ArraySortConfig {
        self.sorter(policy, Variant::ThreeKernel).config()
    }

    /// The device pool — for trace export after a run.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// The metric registry populated by the last [`SortService::run`]
    /// (empty before the first run). The soak command merges these
    /// across seeds.
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// The last run's metrics frozen into a [`Snapshot`] — the payload
    /// of `gas serve|soak --metrics`.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Drains `workload` to completion and reports every request's fate.
    pub fn run(&mut self, workload: &Workload) -> Result<ServiceReport, String> {
        workload.validate()?;
        self.registry = Registry::new();
        self.ladder = DegradationLadder::new(self.cfg.degrade);
        if self.cfg.degrade {
            // The gauge is always present when the ladder is on, even
            // for a run that never leaves L0 — the CI non-vacuity gate.
            self.registry.set_gauge("gas_degradation_level", &[], 0.0);
        }
        // Resolve the coalescing window: explicit, off, or the cost
        // model's pick for this exact pool (negative = auto).
        self.window_ms = if self.cfg.batch_window_ms < 0.0 {
            let specs: Vec<gpu_sim::DeviceSpec> =
                self.pool.devices.iter().map(|d| d.spec().clone()).collect();
            let cfg = self.config(SplitterPolicy::RegularSample);
            self.cfg.cost.auto_batch_window_ms(&specs, cfg)
        } else {
            self.cfg.batch_window_ms
        };
        // A fresh cache per run keeps repeated `run` calls independent —
        // the same replay contract every other piece of state follows.
        self.cache = if self.cfg.cache_entries > 0 {
            Some(ResultCache::new(self.cfg.cache_entries, self.cfg.seed))
        } else {
            None
        };
        let mut arrivals: VecDeque<SortRequest> = workload.requests.iter().cloned().collect();
        let mut queue: Vec<Pending> = Vec::new();
        let mut records: Vec<RequestRecord> = Vec::new();
        let mut now = 0.0f64;

        loop {
            while arrivals.front().is_some_and(|r| r.arrival_ms <= now + EPS) {
                let req = arrivals.pop_front().expect("front checked");
                self.update_ladder(now, queue.len());
                self.admit(req, now, &mut queue, &mut records);
            }
            self.update_ladder(now, queue.len());

            if let Some((qi, di)) = self.pick(&queue, now) {
                let leader = queue.remove(qi);
                let group = self.assemble_group(leader, di, now, &mut queue);
                self.dispatch(group, di, now, &mut queue, &mut records);
                continue;
            }

            // Nothing dispatchable at `now`: advance to the next event.
            let mut next = f64::INFINITY;
            if let Some(r) = arrivals.front() {
                next = next.min(r.arrival_ms);
            }
            for p in &queue {
                if p.not_before_ms > now + EPS {
                    next = next.min(p.not_before_ms);
                }
            }
            for d in &self.pool.devices {
                if d.breaker.is_blacklisted() {
                    continue;
                }
                if d.busy_until_ms > now + EPS {
                    next = next.min(d.busy_until_ms);
                }
                if let Some(u) = d.breaker.open_until() {
                    if u > now + EPS {
                        next = next.min(u);
                    }
                }
            }
            if next.is_finite() {
                now = next;
                continue;
            }

            if queue.is_empty() && arrivals.is_empty() {
                break;
            }
            // No event will ever fire again: every queued request fits
            // only blacklisted devices. Degrade or shed each, explicitly.
            for p in std::mem::take(&mut queue) {
                let host_ms = self.cfg.cost.host_ms(p.req.num_arrays, p.req.array_len);
                if now + host_ms <= p.req.deadline_ms + EPS {
                    self.resolve_host(
                        p,
                        now,
                        "no healthy device available; degraded to host".into(),
                        &mut records,
                    );
                } else {
                    records.push(Self::record(
                        &p.req,
                        p.attempts,
                        Outcome::Shed {
                            reason: "no healthy device available and host cannot meet deadline"
                                .into(),
                        },
                        None,
                        None,
                    ));
                }
            }
        }

        records.sort_by_key(|r| r.id);
        Ok(self.build_report(workload, records))
    }

    /// Admission control: generate the batch, refuse what cannot be
    /// served, shed the lowest priority under overload.
    fn admit(
        &mut self,
        req: SortRequest,
        now: f64,
        queue: &mut Vec<Pending>,
        records: &mut Vec<RequestRecord>,
    ) {
        let refuse =
            |req: &SortRequest, outcome| Self::record(req, Vec::new(), outcome, None, None);
        // L3+: the ladder sheds low-priority work at the door, before
        // any batch generation is spent on it.
        if self.ladder.enabled() && self.ladder.level() >= 3 && req.priority == Priority::Low {
            let level = self.ladder.level();
            records.push(refuse(
                &req,
                Outcome::Shed {
                    reason: format!("degradation L{level}: low-priority shed at admission"),
                },
            ));
            return;
        }
        let fits_somewhere = self
            .pool
            .devices
            .iter()
            .any(|d| !d.breaker.is_blacklisted() && self.fits(d.spec(), &req));
        let host_ms = self.cfg.cost.host_ms(req.num_arrays, req.array_len);
        let host_only = self.ladder.enabled() && self.ladder.level() >= 4;
        // Refused before its bytes exist: a batch no device can hold may
        // not fit host memory either. With the cache on, the lookup below
        // needs the bytes first, so the same refusal waits until after it.
        if self.cache.is_none()
            && !host_only
            && !fits_somewhere
            && now + host_ms > req.deadline_ms + EPS
        {
            records.push(refuse(
                &req,
                Outcome::Rejected {
                    reason: NO_FIT_NO_HOST.into(),
                },
            ));
            return;
        }
        // A payload larger than every pool device's memory is refused
        // before its bytes exist too, cache on or off: generating it
        // could exhaust host memory.
        let largest = self
            .pool
            .devices
            .iter()
            .map(|d| d.spec().global_mem_bytes)
            .max()
            .unwrap_or(0);
        if req.data_bytes() > largest {
            let reason = format!(
                "payload of {} bytes exceeds the largest pool device's {largest} bytes of memory",
                req.data_bytes()
            );
            records.push(refuse(&req, Outcome::Rejected { reason }));
            return;
        }
        let batch = datagen::ArrayBatch::generate(
            req.data_seed,
            req.num_arrays,
            req.array_len,
            datagen::Distribution::PaperUniform,
            datagen::Arrangement::Shuffled,
        );
        let data = batch.as_flat().to_vec();
        let mut oracle = data.clone();
        cpu_ref::sort_arrays_seq(&mut oracle, req.array_len);

        // Content-hash cache: a payload already served (same bytes,
        // algorithm and splitter policy) completes immediately, billing
        // zero device time. Checked before any pool consultation — a
        // cache hit is valid at every degradation level.
        let mut cache_key = None;
        if let Some(cache) = self.cache.as_mut() {
            let key = cache.key_for(
                req.num_arrays,
                req.array_len,
                req.algorithm,
                req.splitters,
                &data,
            );
            if let Some(sorted) = cache.lookup(&key) {
                let verified = bits_equal(sorted, &oracle);
                records.push(Self::record(
                    &req,
                    Vec::new(),
                    Outcome::CacheHit,
                    Some(now),
                    Some(verified),
                ));
                return;
            }
            cache_key = Some(key);
        }
        let host_feasible = now + host_ms <= req.deadline_ms + EPS;
        let mut p = Pending {
            req,
            data,
            oracle,
            est_ms: host_ms,
            attempts_made: 0,
            attempts: Vec::new(),
            not_before_ms: now,
            last_device: None,
            cache_key,
        };

        // L4: host-only serving — the pool is gone; don't even consult
        // it.
        if host_only {
            if host_feasible {
                self.resolve_host(p, now, "degradation L4: host-only serving".into(), records);
            } else {
                records.push(refuse(
                    &p.req,
                    Outcome::Shed {
                        reason: "degradation L4: host-only and host cannot meet deadline".into(),
                    },
                ));
            }
            return;
        }

        if !fits_somewhere {
            if host_feasible {
                let reason = "batch fits no healthy pool device; served on host".into();
                self.resolve_host(p, now, reason, records);
            } else {
                records.push(refuse(
                    &p.req,
                    Outcome::Rejected {
                        reason: NO_FIT_NO_HOST.into(),
                    },
                ));
            }
            return;
        }

        // Projected completion: current backlog spread over healthy
        // devices, then this request's own best-device estimate.
        let est = self
            .pool
            .devices
            .iter()
            .filter(|d| !d.breaker.is_blacklisted() && self.fits(d.spec(), &p.req))
            .map(|d| self.projected_ms(d.spec(), &p.req))
            .fold(f64::INFINITY, f64::min);
        let healthy = self.pool.healthy_count().max(1) as f64;
        let backlog: f64 = queue.iter().map(|p| p.est_ms).sum::<f64>()
            + self
                .pool
                .devices
                .iter()
                .filter(|d| !d.breaker.is_blacklisted())
                .map(|d| (d.busy_until_ms - now).max(0.0))
                .sum::<f64>();
        let projected = now + backlog / healthy + est;
        if projected > p.req.deadline_ms + EPS {
            let reason = format!(
                "projected completion {projected:.3} ms exceeds deadline {:.3} ms \
                 (queue backlog {backlog:.3} ms over {healthy} healthy devices)",
                p.req.deadline_ms
            );
            records.push(refuse(&p.req, Outcome::Rejected { reason }));
            return;
        }

        // With coalescing on, a fresh admission is held in the window —
        // but never past the last instant its deadline stays feasible —
        // so compatible peers arriving shortly after can merge into one
        // launch.
        if self.window_ms > 0.0 {
            p.not_before_ms = coalesce::hold_until(now, self.window_ms, p.req.deadline_ms, est);
        }
        p.est_ms = est;
        queue.push(p);

        // Overload: shed lowest priority first (ties: latest deadline,
        // then newest). A victim whose deadline the host can still meet
        // degrades to cpu_ref instead of being dropped.
        while queue.len() > self.cfg.max_queue_depth.max(1) {
            let vi = (0..queue.len())
                .min_by(|&a, &b| {
                    let (pa, pb) = (&queue[a], &queue[b]);
                    pa.req
                        .priority
                        .cmp(&pb.req.priority)
                        .then(pb.req.deadline_ms.total_cmp(&pa.req.deadline_ms))
                        .then(pb.req.id.cmp(&pa.req.id))
                })
                .expect("queue is non-empty");
            let victim = queue.remove(vi);
            let depth = self.cfg.max_queue_depth;
            let victim_host_ms = self
                .cfg
                .cost
                .host_ms(victim.req.num_arrays, victim.req.array_len);
            if now + victim_host_ms <= victim.req.deadline_ms + EPS {
                self.resolve_host(
                    victim,
                    now,
                    format!("shed at queue depth {depth}; host can still meet deadline"),
                    records,
                );
            } else {
                records.push(Self::record(
                    &victim.req,
                    victim.attempts,
                    Outcome::Shed {
                        reason: format!(
                            "queue overflow at depth {depth}: lowest-priority request shed"
                        ),
                    },
                    None,
                    None,
                ));
            }
        }
    }

    /// Picks the next (request, device) pair dispatchable at `now`:
    /// requests in priority-then-EDF order, each offered the healthy
    /// idle device with the lowest estimate (see
    /// [`SortService::pick_device`]), preferring a device other than the
    /// last one tried.
    fn pick(&mut self, queue: &[Pending], now: f64) -> Option<(usize, usize)> {
        let mut order: Vec<usize> = (0..queue.len())
            .filter(|&i| queue[i].not_before_ms <= now + EPS)
            .collect();
        order.sort_by(|&a, &b| sched_order(&queue[a], &queue[b]));
        for qi in order {
            let p = &queue[qi];
            if let Some(di) = self.pick_device(&p.req, p.last_device, None, now) {
                return Some((qi, di));
            }
        }
        None
    }

    /// The healthy idle device with the lowest estimate for `req`, exact
    /// ties broken by the seeded RNG. `avoid` (the device a retry just
    /// failed on) loses ties; `exclude` (a hedge's primary) is never
    /// picked. `None` means no device is free.
    fn pick_device(
        &mut self,
        req: &SortRequest,
        avoid: Option<usize>,
        exclude: Option<usize>,
        now: f64,
    ) -> Option<usize> {
        let mut best: Vec<usize> = Vec::new();
        let mut best_est = f64::INFINITY;
        for d in &self.pool.devices {
            if Some(d.index) == exclude
                || d.busy_until_ms > now + EPS
                || !d.breaker.accepts(now)
                || !self.fits(d.spec(), req)
            {
                continue;
            }
            let est = self.projected_ms(d.spec(), req);
            if est < best_est {
                best_est = est;
                best = vec![d.index];
            } else if est == best_est {
                best.push(d.index);
            }
        }
        if best.len() > 1 {
            if let Some(avoid) = avoid {
                best.retain(|&i| i != avoid);
            }
        }
        match best.len() {
            0 => None,
            1 => Some(best[0]),
            n => Some(best[self.rng.gen_range(0..n)]),
        }
    }

    /// Does the batch fit the device under the request's algorithm?
    /// Every GAS variant is bounded by the three-kernel plan (the fused
    /// pipelines' fallback), so the requested variant answers for all.
    fn fits(&self, spec: &gpu_sim::DeviceSpec, req: &SortRequest) -> bool {
        self.sorter(req.splitters, req.algorithm.variant())
            .max_arrays(spec, req.array_len)
            >= req.num_arrays as u64
    }

    /// The pipeline a request runs on `spec`, and what the cost model
    /// says that pairing bills under the request's splitter policy
    /// (deterministic selection costs more up front, and the model says
    /// so). `Gas` requests — and, with `force_cheapest`, the forced
    /// `GasFused`/`GasWarp` ones too — take the variant priced cheapest;
    /// otherwise `GasFused`/`GasWarp` force their pipeline (which still
    /// falls back internally when the arrays exceed its shared-memory
    /// layout). STA is priced at the three-kernel projection.
    fn choose_variant(
        &self,
        spec: &gpu_sim::DeviceSpec,
        req: &SortRequest,
        force_cheapest: bool,
    ) -> (Variant, f64) {
        let cost = &self.cfg.cost;
        let cfg = self.config(req.splitters);
        let (n, len) = (req.num_arrays, req.array_len);
        let variant = match req.algorithm {
            Algorithm::GasFused if !force_cheapest => Variant::Fused,
            Algorithm::GasWarp if !force_cheapest => Variant::Warp,
            Algorithm::Sta => Variant::Sta,
            _ => return cost.best_gas_variant(spec, cfg, n, len),
        };
        let ms = match variant {
            Variant::ThreeKernel | Variant::Sta => cost.device_ms(spec, cfg, n, len),
            Variant::Fused => cost.device_ms_fused(spec, cfg, n, len),
            Variant::Warp => cost.device_ms_warp(spec, cfg, n, len),
        };
        (variant, ms)
    }

    /// Cost-model service projection for one request on one device: the
    /// price of the pipeline [`SortService::attempt`] dispatches there
    /// at ladder level L0.
    fn projected_ms(&self, spec: &gpu_sim::DeviceSpec, req: &SortRequest) -> f64 {
        self.choose_variant(spec, req, false).1
    }

    /// The attempt watchdog's budget for one (device, request) pairing:
    /// `device_ms_worst × timeout_slack`, or `None` when the watchdog is
    /// off. The worst-case bound already absorbs bounded re-splits and
    /// pipeline fallbacks, so only genuinely pathological attempts (a
    /// stall storm) blow it. The bound is a GAS bound: STA's radix
    /// passes bill many more launches than it counts, and the cost model
    /// has no STA worst case, so STA attempts run unwatched.
    fn watchdog_budget_ms(&self, di: usize, req: &SortRequest) -> Option<f64> {
        if self.cfg.timeout_slack <= 0.0 || req.algorithm == Algorithm::Sta {
            return None;
        }
        Some(
            self.cfg.cost.device_ms_worst(
                self.pool.devices[di].spec(),
                self.config(req.splitters),
                req.num_arrays,
                req.array_len,
            ) * self.cfg.timeout_slack,
        )
    }

    /// Feeds the ladder the current pool and queue pressure. A
    /// transition moves the `gas_degradation_level` gauge, ticks the
    /// `gas_degradation_transitions_total{from,to}` counter and leaves a
    /// `sched/degrade/L<from>-L<to>` marker span on device 0's timeline.
    fn update_ladder(&mut self, now: f64, queue_len: usize) {
        if !self.ladder.enabled() {
            return;
        }
        let healthy = self.pool.healthy_count();
        let total = self.pool.devices.len();
        let depth = self.cfg.max_queue_depth.max(1);
        if let Some(t) = self.ladder.observe(now, healthy, total, queue_len, depth) {
            self.registry
                .set_gauge("gas_degradation_level", &[], f64::from(t.to));
            let from = t.from.to_string();
            let to = t.to.to_string();
            self.registry.inc(
                "gas_degradation_transitions_total",
                &[("from", &from), ("to", &to)],
            );
            let g = &mut self.pool.devices[0].gpu;
            let span = g.begin_span(&format!("sched/degrade/L{}-L{}", t.from, t.to));
            g.end_span(span);
        }
    }

    /// Runs one checkpointed launch plan on device `di` over a copy of
    /// `checkpoint`: `req` describes the whole payload (a group's merged
    /// shape) and `segments` its members' array counts, in payload
    /// order. The plan is one launch over the whole payload or — with
    /// [`SchedulerConfig::overlap`] on, two or more members and a GAS
    /// algorithm — one streamed launch per member
    /// ([`sort_streamed`]). The outcome is then judged by the
    /// watchdog, and its device side effects (busy time, breaker,
    /// failure counters, a `watchdog-cancel` marker) are applied.
    fn attempt(
        &mut self,
        req: &SortRequest,
        segments: &[usize],
        checkpoint: &[f32],
        di: usize,
        now: f64,
        span_name: &str,
    ) -> Launch {
        // L2+: even forced-variant GAS requests run whatever pipeline the
        // cost model prices cheapest — quality traded for headroom.
        let force_cheapest = self.ladder.enabled() && self.ladder.level() >= 2;
        // The prediction is the serial estimate for the whole payload:
        // scoring a streamed bill against it makes the overlap win show
        // up as a negative relative error in the
        // `gas_model_accuracy_rel_err` metric family, honestly.
        let (variant, predicted_ms) =
            self.choose_variant(self.pool.devices[di].spec(), req, force_cheapest);
        let streams = (self.cfg.overlap && segments.len() >= 2 && variant != Variant::Sta)
            .then(|| self.pool.devices[di].overlap_streams());
        let budget = self.watchdog_budget_ms(di, req);
        // Indexed directly, not via `sorter()`: a field borrow stays
        // disjoint from the device borrow below.
        let sorter = &self.sorters[req.splitters as usize][variant as usize];
        let array_len = req.array_len;
        let dev = &mut self.pool.devices[di];
        dev.breaker.on_dispatch(now);
        let mark = dev.gpu.bill_mark();
        let mut output = checkpoint.to_vec();
        let result =
            checkpointed_attempt(&mut dev.gpu, &mut output, checkpoint, span_name, |g, d| {
                match streams {
                    Some(streams) => sort_streamed(sorter, g, d, array_len, segments, streams),
                    None => sorter
                        .sort(g, d, array_len)
                        .map(|s| s.overflow().map_or(0, |o| o.overflowed_buckets)),
                }
            });
        let mut launch = Launch {
            device: di,
            hedge: false,
            end_ms: now,
            error: None,
            transient: false,
            cancelled: None,
            predicted_ms,
            variant: record_label(variant),
            overflows: 0,
            output,
        };
        match result {
            Ok(overflows) => {
                launch.end_ms = now + dev.gpu.billed_since(mark);
                let billed = launch.end_ms - now;
                launch.overflows = overflows;
                // Watchdog: a successful attempt billed over budget is
                // cancelled at its checkpoint; its result is discarded.
                launch.cancelled = budget
                    .filter(|b| billed > b + EPS)
                    .map(|b| format!("watchdog: billed {billed:.3} ms over budget {b:.3} ms"));
            }
            Err(failed) => {
                launch.end_ms = now + failed.wasted_ms;
                launch.error = Some(failed.error.to_string());
                launch.transient = failed.error.is_transient();
            }
        }
        dev.busy_until_ms = launch.end_ms;
        if launch.error.is_some() {
            if launch.transient {
                dev.failed_attempts += 1;
                dev.breaker.on_transient_failure(launch.end_ms);
            } else {
                dev.fatal_failures += 1;
                dev.breaker.on_fatal();
            }
        } else if launch.cancelled.is_some() {
            // Watchdog cancel: the device did finish, but too slowly to
            // trust — treat it like a transient failure for health
            // purposes and leave a marker in its trace.
            dev.watchdog_cancels += 1;
            dev.breaker.on_transient_failure(launch.end_ms);
            let g = &mut dev.gpu;
            let span = g.begin_span(&format!("recovery/req-{}/watchdog-cancel", req.id));
            g.end_span(span);
        } else {
            dev.breaker.on_success();
        }
        launch
    }

    /// With coalescing on, collects queued requests that can ride along
    /// with `leader` in one launch on device `di`: same array length,
    /// algorithm and splitter policy ([`coalesce::compatible`]), not
    /// serving a retry backoff, and the merged batch must still fit the
    /// device. Returns the group, leader first and the taken members
    /// after it in scheduling order — the same order decides who boards
    /// first when capacity runs out. With coalescing off every group is
    /// the leader alone.
    fn assemble_group(
        &self,
        leader: Pending,
        di: usize,
        now: f64,
        queue: &mut Vec<Pending>,
    ) -> Vec<Pending> {
        if self.window_ms <= 0.0 {
            return vec![leader];
        }
        let mut order: Vec<usize> = (0..queue.len())
            .filter(|&i| {
                let m = &queue[i];
                coalesce::compatible(&leader.req, &m.req)
                    && (m.attempts_made == 0 || m.not_before_ms <= now + EPS)
            })
            .collect();
        order.sort_by(|&a, &b| sched_order(&queue[a], &queue[b]));
        let spec = self.pool.devices[di].spec();
        let mut total = leader.req.num_arrays;
        let mut picked = vec![false; queue.len()];
        for i in order {
            let widened = coalesce::merged_request(&leader.req, total + queue[i].req.num_arrays);
            if self.fits(spec, &widened) {
                total += queue[i].req.num_arrays;
                picked[i] = true;
            }
        }
        let mut members = Vec::new();
        let mut rest = Vec::new();
        for (i, p) in queue.drain(..).enumerate() {
            if picked[i] {
                members.push(p);
            } else {
                rest.push(p);
            }
        }
        *queue = rest;
        members.sort_by(sched_order);
        members.insert(0, leader);
        members
    }

    /// Runs one scheduling round for a group of 1..k requests on device
    /// `di`: their payloads concatenated into one batch, sorted by one
    /// [`SortService::attempt`], then split back per request along the
    /// segment seams (per-array independence makes the merged sort
    /// bitwise equal to sorting each payload alone). The group's shape
    /// sets every per-path rule:
    ///
    /// * a group of one is a plain request: its spans are
    ///   `sched/req-N/…`, its attempts record `coalesced = 0`, and only
    ///   it may hedge — a High/Critical request whose deadline slack at
    ///   dispatch is under `hedge_slack_ms` races a duplicate attempt on
    ///   a second idle device, first viable completion winning (exact
    ///   ties to the seeded RNG) and the loser cancelled;
    /// * a larger group is a mega-batch: spans `sched/mega-N/…`,
    ///   `coalesced = k`, no hedge (the launch is already the
    ///   throughput play), and only the leader's record carries the real
    ///   prediction — members carry `predicted_ms = 0` copies so the
    ///   cost model is scored once per physical launch.
    ///
    /// When no launch is viable only the leader burns the attempt (one
    /// physical fault stays one record, reconciling 1:1 with the
    /// injector log); members go back in the queue untouched, and the
    /// leader retries with backoff or resolves on the host once its
    /// budget is gone.
    fn dispatch(
        &mut self,
        group: Vec<Pending>,
        di: usize,
        now: f64,
        queue: &mut Vec<Pending>,
        records: &mut Vec<RequestRecord>,
    ) {
        let solo = group.len() == 1;
        let coalesced = if solo { 0 } else { group.len() };
        let leader = &group[0];
        let id = leader.req.id;
        let kind = if solo { "req" } else { "mega" };
        let attempt_no = leader.attempts_made + 1;
        let span_name = if attempt_no == 1 {
            format!("sched/{kind}-{id}/attempt-1")
        } else {
            format!("recovery/{kind}-{id}/attempt-{attempt_no}")
        };
        let segments: Vec<usize> = group.iter().map(|p| p.req.num_arrays).collect();
        let req = coalesce::merged_request(&leader.req, segments.iter().sum());
        let checkpoint: Vec<f32> = group.iter().flat_map(|p| p.data.iter().copied()).collect();

        // Hedge decision — unless the ladder says hedging is the headroom
        // we give up first (L1+).
        let hedge = solo
            && self.cfg.hedge_slack_ms > 0.0
            && !(self.ladder.enabled() && self.ladder.level() >= 1)
            && req.priority >= Priority::High
            && req.deadline_ms - (now + self.projected_ms(self.pool.devices[di].spec(), &req))
                < self.cfg.hedge_slack_ms;
        let hedge_di = if hedge {
            self.pick_device(&req, None, Some(di), now)
        } else {
            None
        };

        let mut launches = vec![self.attempt(&req, &segments, &checkpoint, di, now, &span_name)];
        if let Some(hdi) = hedge_di {
            let hspan = format!("sched/req-{id}/hedge-{attempt_no}");
            let mut h = self.attempt(&req, &segments, &checkpoint, hdi, now, &hspan);
            h.hedge = true;
            launches.push(h);
        }

        // The race: earliest viable completion wins; exact ties go to the
        // seeded RNG (drawn only on a genuine tie, so unhedged rounds
        // consume no extra randomness). The loser is cancelled.
        let viable: Vec<usize> = (0..launches.len())
            .filter(|&i| launches[i].viable())
            .collect();
        let best = viable
            .iter()
            .map(|&i| launches[i].end_ms)
            .fold(f64::INFINITY, f64::min);
        let tied: Vec<usize> = viable
            .into_iter()
            .filter(|&i| launches[i].end_ms == best)
            .collect();
        let winner = match tied.len() {
            0 => None,
            1 => Some(tied[0]),
            n => Some(tied[self.rng.gen_range(0..n)]),
        };
        if let Some(wi) = winner {
            let wdev = launches[wi].device;
            for (i, l) in launches.iter_mut().enumerate() {
                if i != wi && l.viable() {
                    l.cancelled = Some(format!("hedge: lost to dev{wdev}"));
                }
            }
        }

        let mut group = group.into_iter();
        let mut leader = group.next().expect("a group has a leader");
        leader
            .attempts
            .extend(launches.iter().map(|l| l.record(now, coalesced)));
        leader.attempts_made += launches.len() as u32;

        let Some(wi) = winner else {
            queue.extend(group);
            let end = launches.iter().map(|l| l.end_ms).fold(now, f64::max);
            leader.last_device = Some(di);
            if leader.attempts_made >= self.cfg.max_attempts.max(1) {
                let reason = format!(
                    "{} device attempts failed; degraded to host",
                    leader.attempts_made
                );
                self.resolve_host(leader, end, reason, records);
            } else {
                let backoff =
                    self.cfg.backoff_base_ms * f64::powi(2.0, leader.attempts_made as i32 - 1);
                leader.not_before_ms = end + backoff.max(EPS);
                queue.push(leader);
            }
            return;
        };

        let w = &launches[wi];
        self.pool.devices[w.device].completed += segments.len() as u32;
        if w.overflows > 0 {
            // Overflow is an observable event, never a silent slow path:
            // surface the per-policy count in telemetry.
            self.registry.add(
                "gas_bucket_overflows_total",
                &[("policy", req.splitters.label())],
                w.overflows as f64,
            );
        }
        let member_record = AttemptRecord {
            predicted_ms: 0.0,
            ..w.record(now, coalesced)
        };
        let mut seams = w.output.as_slice();
        for (gi, mut p) in std::iter::once(leader).chain(group).enumerate() {
            let (own, rest) = seams.split_at(p.data.len());
            p.data.copy_from_slice(own);
            seams = rest;
            if gi > 0 {
                p.attempts.push(member_record.clone());
            }
            let outcome = Outcome::Completed { device: w.device };
            self.finish(p, outcome, w.end_ms, records);
        }
    }

    /// Sorts the request on the host (`cpu_ref`), modelling its cost on
    /// the virtual clock, and records the fallback.
    fn resolve_host(
        &mut self,
        mut p: Pending,
        at_ms: f64,
        reason: String,
        records: &mut Vec<RequestRecord>,
    ) {
        cpu_ref::sort_arrays_seq(&mut p.data, p.req.array_len);
        let completion = at_ms + self.cfg.cost.host_ms(p.req.num_arrays, p.req.array_len);
        if let Some(di) = p.last_device {
            // Leave the degradation visible in the failing device's trace.
            let g = &mut self.pool.devices[di].gpu;
            let span = g.begin_span(&format!("recovery/req-{}/cpu-fallback", p.req.id));
            g.end_span(span);
        }
        self.finish(p, Outcome::CpuFallback { reason }, completion, records);
    }

    /// Records a request whose payload is now sorted: verifies it against
    /// the oracle and, when it checks out, offers it to the result cache.
    fn finish(
        &mut self,
        p: Pending,
        outcome: Outcome,
        completion_ms: f64,
        records: &mut Vec<RequestRecord>,
    ) {
        let verified = bits_equal(&p.data, &p.oracle);
        if verified {
            if let (Some(cache), Some(key)) = (self.cache.as_mut(), p.cache_key) {
                cache.insert(key, p.data);
            }
        }
        records.push(Self::record(
            &p.req,
            p.attempts,
            outcome,
            Some(completion_ms),
            Some(verified),
        ));
    }

    /// The one place a [`RequestRecord`] is built. A request that never
    /// produced an output has neither a completion time nor a verdict.
    fn record(
        req: &SortRequest,
        attempts: Vec<AttemptRecord>,
        outcome: Outcome,
        completion_ms: Option<f64>,
        verified: Option<bool>,
    ) -> RequestRecord {
        RequestRecord {
            id: req.id,
            priority: req.priority,
            algorithm: req.algorithm,
            num_arrays: req.num_arrays,
            array_len: req.array_len,
            arrival_ms: req.arrival_ms,
            deadline_ms: req.deadline_ms,
            attempts,
            outcome,
            completion_ms,
            deadline_met: completion_ms.map(|c| c <= req.deadline_ms + EPS),
            verified,
        }
    }

    fn build_report(&mut self, workload: &Workload, records: Vec<RequestRecord>) -> ServiceReport {
        let mut completed = 0;
        let mut cpu_fallbacks = 0;
        let mut shed = 0;
        let mut rejected = 0;
        let mut cache_hits = 0;
        let mut deadline_hits = 0;
        let mut deadline_misses = 0;
        let mut makespan: f64 = 0.0;
        for r in &records {
            match &r.outcome {
                Outcome::Completed { .. } => completed += 1,
                Outcome::CpuFallback { .. } => cpu_fallbacks += 1,
                Outcome::Shed { .. } => shed += 1,
                Outcome::Rejected { .. } => rejected += 1,
                Outcome::CacheHit => cache_hits += 1,
            }
            match r.deadline_met {
                Some(true) => deadline_hits += 1,
                Some(false) => deadline_misses += 1,
                None => {}
            }
            if let Some(c) = r.completion_ms {
                makespan = makespan.max(c);
            }
            record_request_metrics(&mut self.registry, r);
        }
        for d in &self.pool.devices {
            let device = format!("dev{}", d.index);
            let labels = [("device", device.as_str())];
            self.registry
                .set_gauge("gas_device_busy_ms", &labels, d.gpu.elapsed_ms());
            let utilization = if makespan > 0.0 {
                100.0 * d.gpu.elapsed_ms() / makespan
            } else {
                0.0
            };
            self.registry
                .set_gauge("gas_device_utilization_pct", &labels, utilization);
            self.registry.set_gauge(
                "gas_breaker_blacklisted",
                &labels,
                if d.breaker.is_blacklisted() { 1.0 } else { 0.0 },
            );
            self.registry.add(
                "gas_breaker_trips_total",
                &labels,
                f64::from(d.breaker.trips()),
            );
            self.registry.add(
                "gas_breaker_transitions_total",
                &labels,
                f64::from(d.breaker.transitions()),
            );
            for fault in d.gpu.injected_faults() {
                self.registry.inc(
                    "gas_device_injected_faults_total",
                    &[("device", &device), ("kind", &fault.kind.to_string())],
                );
            }
            if d.deaths() > 0 {
                self.registry
                    .add("gas_device_deaths_total", &labels, d.deaths() as f64);
            }
        }
        if self.ladder.enabled() {
            // Close the ladder's books: attribute the tail of the run to
            // its final level and publish the terminal gauges.
            self.ladder.touch(makespan);
            self.registry
                .set_gauge("gas_degradation_level", &[], f64::from(self.ladder.level()));
            self.registry.set_gauge(
                "gas_degradation_max_level",
                &[],
                f64::from(self.ladder.max_level()),
            );
        }
        let cache = match &self.cache {
            Some(c) => {
                let stats = c.stats();
                // The full family is present whenever the cache is on,
                // even at zero — deterministic snapshot shape, and the
                // CI non-vacuity gate has something to assert against.
                // (Hits arrive per-record via `record_request_metrics`.)
                self.registry
                    .add("gas_cache_misses_total", &[], stats.misses as f64);
                self.registry
                    .add("gas_cache_evictions_total", &[], stats.evictions as f64);
                CacheReport {
                    enabled: true,
                    capacity: c.capacity(),
                    lookups: stats.lookups,
                    hits: stats.hits,
                    misses: stats.misses,
                    insertions: stats.insertions,
                    evictions: stats.evictions,
                    entries: c.len(),
                }
            }
            None => CacheReport::default(),
        };
        let devices = self
            .pool
            .devices
            .iter()
            .map(|d| DeviceReport {
                index: d.index,
                name: d.spec().name.clone(),
                completed: d.completed,
                failed_attempts: d.failed_attempts,
                fatal_failures: d.fatal_failures,
                injected_faults: d.gpu.injected_faults().len(),
                error_faults: d.error_faults(),
                breaker_trips: d.breaker.trips(),
                blacklisted: d.breaker.is_blacklisted(),
                device_ms: d.gpu.elapsed_ms(),
                deaths: d.deaths(),
                watchdog_cancels: d.watchdog_cancels,
            })
            .collect();
        let mut report = ServiceReport {
            seed: self.cfg.seed,
            requests: workload.requests.len(),
            completed,
            cpu_fallbacks,
            shed,
            shed_by_priority: ServiceReport::shed_by_priority_from_records(&records),
            rejected,
            cache_hits,
            deadline_hits,
            deadline_misses,
            makespan_ms: makespan,
            slo: SloReport::from_registry(&self.registry),
            degradation: DegradationReport::default(),
            cache,
            devices,
            records,
        };
        let (won, lost, cancelled) = report.hedge_outcomes_from_records();
        report.degradation = DegradationReport {
            enabled: self.ladder.enabled(),
            final_level: self.ladder.level(),
            max_level: self.ladder.max_level(),
            transitions: self.ladder.transitions().to_vec(),
            time_at_level_ms: self.ladder.time_at_level_ms().to_vec(),
            hedges_won: won,
            hedges_lost: lost,
            hedges_cancelled: cancelled,
            watchdog_cancels: report.watchdog_cancels_by_device().iter().sum(),
            device_deaths: report.devices.iter().map(|d| d.deaths).sum(),
            degradation_sheds: report.degradation_sheds_from_records(),
        };
        report
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::parse_mix;
    use crate::request::{Priority, WorkloadConfig};

    fn small_workload(seed: u64, requests: usize) -> Workload {
        Workload::generate(&WorkloadConfig {
            seed,
            requests,
            arrays: (4, 16),
            array_len: (16, 48),
            ..WorkloadConfig::default()
        })
    }

    fn service(devices: usize, cfg: SchedulerConfig, faults: Option<&FaultPlan>) -> SortService {
        SortService::new(parse_mix("test", devices).unwrap(), cfg, faults).unwrap()
    }

    /// A burst of identical small GAS requests all arriving at t=0 with
    /// far-off deadlines — the canned high-QPS shape the streaming tier
    /// is built for.
    fn uniform_burst(n: u64, num_arrays: usize, array_len: usize) -> Workload {
        Workload {
            requests: (0..n)
                .map(|id| SortRequest {
                    id,
                    num_arrays,
                    array_len,
                    data_seed: 900 + id,
                    algorithm: Algorithm::Gas,
                    splitters: SplitterPolicy::default(),
                    priority: Priority::Normal,
                    arrival_ms: 0.0,
                    deadline_ms: 1e9,
                })
                .collect(),
        }
    }

    #[test]
    fn clean_run_completes_everything_verified() {
        let w = small_workload(1, 40);
        let mut s = service(2, SchedulerConfig::default(), None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.requests, 40);
        assert_eq!(
            report.completed + report.cpu_fallbacks + report.rejected,
            40
        );
        assert_eq!(report.shed, 0);
        assert!(report.completed > 0);
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        for d in &report.devices {
            assert_eq!(d.failed_attempts, 0);
            assert_eq!(d.error_faults, 0);
            assert!(!d.blacklisted);
        }
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let w = small_workload(2, 60);
        let plan = FaultPlan::seeded(5)
            .with_launch_failure(0.02)
            .with_transfer_abort(0.02);
        let cfg = SchedulerConfig {
            seed: 9,
            ..SchedulerConfig::default()
        };
        let a = service(3, cfg.clone(), Some(&plan)).run(&w).unwrap();
        let b = service(3, cfg, Some(&plan)).run(&w).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json(), "byte-identical reports");
    }

    #[test]
    fn faulty_run_reconciles_with_injector_logs() {
        let w = small_workload(3, 80);
        let plan = FaultPlan::seeded(11)
            .with_launch_failure(0.05)
            .with_transfer_abort(0.05)
            .with_transfer_corruption(0.05)
            .with_stream_stall(0.05, 0.2);
        let mut s = service(3, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let failures: u32 = report.devices.iter().map(|d| d.failed_attempts).sum();
        assert!(failures > 0, "the plan should have hurt something");
        // Retries actually moved between devices when possible.
        let redispatched = report
            .records
            .iter()
            .any(|r| r.attempts.len() > 1 && r.attempts[0].device != r.attempts[1].device);
        assert!(
            redispatched,
            "at least one retry went to a different device"
        );
    }

    #[test]
    fn breaker_trips_under_a_hot_fault_rate_and_work_degrades() {
        let w = small_workload(4, 50);
        let plan = FaultPlan::seeded(3).with_launch_failure(1.0);
        let cfg = SchedulerConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_ms: 5.0,
            },
            ..SchedulerConfig::default()
        };
        let mut s = service(2, cfg, Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert_eq!(report.completed, 0, "no device attempt can succeed");
        assert!(report.devices.iter().any(|d| d.breaker_trips > 0));
        assert!(report.cpu_fallbacks > 0, "work degraded to host");
    }

    #[test]
    fn overload_sheds_lowest_priority_first_and_never_silently() {
        // A burst of identical requests at t=0 against a queue of 1:
        // almost everything must be shed, host-served or rejected — and
        // every single request must leave an explicit record.
        let mut w = Workload::generate(&WorkloadConfig {
            seed: 5,
            requests: 30,
            arrays: (64, 64),
            array_len: (96, 96),
            mean_gap_ms: 0.0,
            ..WorkloadConfig::default()
        });
        for r in &mut w.requests {
            r.deadline_ms = 0.25;
        }
        let cfg = SchedulerConfig {
            max_queue_depth: 1,
            ..SchedulerConfig::default()
        };
        let mut s = service(1, cfg, None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert_eq!(report.records.len(), 30, "no silent drops");
        assert!(
            report.completed < 30,
            "one device and one queue slot cannot absorb the burst"
        );
        assert!(report.shed + report.rejected + report.cpu_fallbacks > 0);
        // Shedding order: a critical request is only ever shed once no
        // lower-priority request survives to be served instead.
        let crit_shed = report
            .records
            .iter()
            .filter(|r| {
                r.priority == Priority::Critical && matches!(r.outcome, Outcome::Shed { .. })
            })
            .count();
        let lows_not_shed = report
            .records
            .iter()
            .filter(|r| r.priority == Priority::Low && !matches!(r.outcome, Outcome::Shed { .. }))
            .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
            .count();
        if crit_shed > 0 {
            assert_eq!(
                lows_not_shed, 0,
                "no low-priority request completes on-device while criticals are shed"
            );
        }
    }

    #[test]
    fn oversized_batches_are_rejected_or_host_served_with_reason() {
        let w = Workload {
            requests: vec![SortRequest {
                id: 0,
                num_arrays: 10_000_000,
                array_len: 4096,
                data_seed: 1,
                algorithm: Algorithm::Gas,
                splitters: SplitterPolicy::default(),
                priority: Priority::Normal,
                arrival_ms: 0.0,
                deadline_ms: 0.5,
            }],
        };
        let mut s = service(1, SchedulerConfig::default(), None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.rejected, 1);
        match &report.records[0].outcome {
            Outcome::Rejected { reason } => {
                assert!(reason.contains("fits no healthy pool device"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn payloads_larger_than_every_device_are_rejected_before_generation() {
        // Both would abort the process if their bytes were generated: the
        // first is 164 GB, the second 16 TB with a deadline the host
        // model says it could meet. Cache on or off, each is refused with
        // an explicit reason.
        let request = |id, num_arrays, array_len, deadline_ms| SortRequest {
            id,
            num_arrays,
            array_len,
            data_seed: 1,
            algorithm: Algorithm::Gas,
            splitters: SplitterPolicy::default(),
            priority: Priority::Normal,
            arrival_ms: 0.0,
            deadline_ms,
        };
        let w = Workload {
            requests: vec![
                request(0, 10_000_000, 4096, 0.5),
                request(1, 4_000_000_000, 1000, 1e300),
            ],
        };
        for cache_entries in [0, 4] {
            let cfg = SchedulerConfig {
                cache_entries,
                ..SchedulerConfig::default()
            };
            let report = service(1, cfg, None).run(&w).unwrap();
            assert_eq!(report.rejected, 2, "cache_entries {cache_entries}");
            assert_eq!(report.invariant_violations(), Vec::<String>::new());
            match &report.records[1].outcome {
                Outcome::Rejected { reason } => {
                    assert!(
                        reason.contains("exceeds the largest pool device"),
                        "{reason}"
                    )
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn sta_requests_are_served_too() {
        let mut w = small_workload(6, 20);
        for r in &mut w.requests {
            r.algorithm = Algorithm::Sta;
        }
        let plan = FaultPlan::seeded(2).with_transfer_abort(0.05);
        let mut s = service(2, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert!(report.completed > 0);
    }

    #[test]
    fn gas_fused_requests_are_served_too() {
        let mut w = small_workload(10, 20);
        for r in &mut w.requests {
            r.algorithm = Algorithm::GasFused;
        }
        let plan = FaultPlan::seeded(4).with_launch_failure(0.05);
        let mut s = service(2, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert!(report.completed > 0);
        // The forced-fused requests actually ran the fused kernel.
        let fused_launches = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().kernels.iter())
            .filter(|k| k.name == "gas_fused")
            .count();
        assert!(fused_launches > 0, "forced gas-fused requests ran fused");
    }

    #[test]
    fn gas_warp_requests_are_served_too() {
        let mut w = small_workload(11, 20);
        for r in &mut w.requests {
            r.algorithm = Algorithm::GasWarp;
        }
        let plan = FaultPlan::seeded(6).with_launch_failure(0.05);
        let mut s = service(2, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert!(report.completed > 0);
        // The forced-warp requests actually ran the warp kernel.
        let warp_launches = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().kernels.iter())
            .filter(|k| k.name == "gas_warp")
            .count();
        assert!(warp_launches > 0, "forced gas-warp requests ran gas_warp");
    }

    #[test]
    fn deterministic_policy_requests_are_served_by_the_det_kernels() {
        // Small arrays (p = 1–2 buckets) keep the cost model on the
        // three-kernel pipeline, so the deterministic Phase-1 kernel name
        // is visible in the timeline.
        let mut w = Workload::generate(&WorkloadConfig {
            seed: 12,
            requests: 20,
            arrays: (4, 8),
            array_len: (16, 24),
            sta_fraction: 0.0,
            ..WorkloadConfig::default()
        });
        for r in &mut w.requests {
            r.algorithm = Algorithm::Gas;
            r.splitters = array_sort::SplitterPolicy::Deterministic;
        }
        let mut s = service(2, SchedulerConfig::default(), None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert!(report.completed > 0);
        let det_launches = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().kernels.iter())
            .filter(|k| k.name == "gas_phase1_splitters_det")
            .count();
        assert!(
            det_launches > 0,
            "deterministic requests must run the deterministic Phase-1 kernel"
        );
    }

    #[test]
    fn deterministic_requests_replay_bit_identically() {
        let w = Workload::generate(&WorkloadConfig {
            seed: 13,
            requests: 40,
            arrays: (4, 16),
            array_len: (16, 48),
            deterministic_fraction: 0.5,
            ..WorkloadConfig::default()
        });
        let plan = FaultPlan::seeded(7).with_launch_failure(0.03);
        let cfg = SchedulerConfig {
            seed: 21,
            ..SchedulerConfig::default()
        };
        let a = service(2, cfg.clone(), Some(&plan)).run(&w).unwrap();
        let b = service(2, cfg, Some(&plan)).run(&w).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json(), "byte-identical reports");
        assert_eq!(a.invariant_violations(), Vec::<String>::new());
    }

    #[test]
    fn cost_model_dispatches_the_fused_variant_where_it_is_cheaper() {
        // Paper-shaped arrays (n = 2000): the cost model projects the
        // warp-multisplit pipeline cheapest, so plain `gas` requests must
        // be served by the `gas_warp` kernel — no variant requested.
        let w = Workload {
            requests: (0..4)
                .map(|id| SortRequest {
                    id,
                    num_arrays: 4,
                    array_len: 2000,
                    data_seed: 100 + id,
                    algorithm: Algorithm::Gas,
                    splitters: SplitterPolicy::default(),
                    priority: Priority::Normal,
                    arrival_ms: id as f64 * 0.1,
                    deadline_ms: 1e9,
                })
                .collect(),
        };
        let mut s = SortService::new(
            parse_mix("k40c", 1).unwrap(),
            SchedulerConfig::default(),
            None,
        )
        .unwrap();
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert_eq!(report.completed, 4);
        let kernels: Vec<String> = s.pool().devices[0]
            .gpu
            .timeline()
            .kernels
            .iter()
            .map(|k| k.name.clone())
            .collect();
        assert!(
            kernels.iter().any(|n| n == "gas_warp"),
            "cost model should route n=2000 gas requests to the warp kernel: {kernels:?}"
        );
        assert!(
            !kernels.iter().any(|n| n.starts_with("gas_phase")),
            "no three-kernel launches expected for these shapes: {kernels:?}"
        );
    }

    #[test]
    fn metrics_reconcile_with_the_report() {
        let w = small_workload(3, 80);
        let plan = FaultPlan::seeded(11)
            .with_launch_failure(0.05)
            .with_transfer_abort(0.05)
            .with_stream_stall(0.05, 0.2);
        let mut s = service(3, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let reg = s.metrics();
        assert_eq!(
            reg.counter_sum("gas_requests_total", &[]) as usize,
            report.requests
        );
        assert_eq!(
            reg.counter_sum("gas_requests_total", &[("outcome", "completed")]) as usize,
            report.completed
        );
        assert_eq!(
            reg.counter_sum("gas_fallback_total", &[]) as usize,
            report.cpu_fallbacks
        );
        assert_eq!(reg.counter_sum("gas_shed_total", &[]) as usize, report.shed);
        assert_eq!(
            reg.counter_sum("gas_deadline_total", &[("result", "hit")]) as usize,
            report.deadline_hits
        );
        // Transient attempt metrics equal the injectors' error faults.
        let injected: usize = report.devices.iter().map(|d| d.error_faults).sum();
        assert_eq!(
            reg.counter_sum("gas_attempts_total", &[("result", "transient")]) as usize,
            injected
        );
        // Every successful device attempt contributed a model-accuracy
        // observation.
        let successes = report
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .filter(|a| a.error.is_none())
            .count();
        let acc = reg.histogram_sum("gas_model_accuracy_rel_err", &[]);
        assert_eq!(acc.count as usize, successes);
        assert!(acc.count > 0, "something completed on-device");
        // The SLO section is exactly what the records imply.
        assert_eq!(report.slo, report.slo_from_records());
        assert_eq!(report.slo.by_priority.len(), 4);
    }

    #[test]
    fn metrics_snapshots_are_byte_identical_across_runs() {
        let w = small_workload(2, 60);
        let plan = FaultPlan::seeded(5)
            .with_launch_failure(0.02)
            .with_transfer_abort(0.02);
        let cfg = SchedulerConfig {
            seed: 9,
            ..SchedulerConfig::default()
        };
        let mut a = service(3, cfg.clone(), Some(&plan));
        a.run(&w).unwrap();
        let mut b = service(3, cfg, Some(&plan));
        b.run(&w).unwrap();
        let (ja, jb) = (
            a.metrics_snapshot().to_json(),
            b.metrics_snapshot().to_json(),
        );
        assert_eq!(ja, jb, "metrics inherit the bit-reproducibility contract");
        assert!(!a.metrics().is_empty());
    }

    #[test]
    fn tampered_slo_or_shed_sections_are_caught() {
        let w = small_workload(1, 40);
        let mut s = service(2, SchedulerConfig::default(), None);
        let clean = s.run(&w).unwrap();
        assert_eq!(clean.invariant_violations(), Vec::<String>::new());

        let mut tampered = clean.clone();
        tampered.slo.by_priority[1].attainment_pct += 1.0;
        assert!(
            tampered
                .invariant_violations()
                .iter()
                .any(|v| v.contains("slo section")),
            "an edited SLO row must fail reconciliation"
        );

        let mut tampered = clean.clone();
        tampered.shed_by_priority[0].shed += 1;
        assert!(
            !tampered.invariant_violations().is_empty(),
            "an edited shed count must fail reconciliation"
        );
    }

    #[test]
    fn heterogeneous_pool_prefers_the_faster_device() {
        let w = small_workload(7, 30);
        let specs = parse_mix("k40c,test", 2).unwrap();
        let mut s = SortService::new(specs, SchedulerConfig::default(), None).unwrap();
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let k40 = &report.devices[0];
        let test = &report.devices[1];
        assert!(
            k40.completed >= test.completed,
            "the 15-SM K40c should serve at least as many requests ({} vs {})",
            k40.completed,
            test.completed
        );
    }

    #[test]
    fn watchdog_cancels_stall_storms_and_work_still_resolves() {
        use gpu_sim::FaultPlan;
        let w = small_workload(20, 30);
        // Every operation stalls for 50 virtual ms: each attempt succeeds
        // but bills catastrophically over the cost model's worst case.
        let plan = FaultPlan::seeded(8).with_stream_stall(1.0, 50.0);
        let cfg = SchedulerConfig {
            timeout_slack: 2.0,
            ..SchedulerConfig::default()
        };
        let mut s = service(2, cfg, Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let cancels: u32 = report.devices.iter().map(|d| d.watchdog_cancels).sum();
        assert!(cancels > 0, "a 100% stall storm must blow the budget");
        assert_eq!(report.degradation.watchdog_cancels, cancels as usize);
        // Cancelled attempts are successes whose result was discarded:
        // no error, a watchdog reason, and they never count as winners.
        let wd: Vec<&AttemptRecord> = report
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .filter(|a| {
                a.cancelled
                    .as_deref()
                    .is_some_and(|c| c.starts_with("watchdog"))
            })
            .collect();
        assert_eq!(wd.len(), cancels as usize);
        assert!(wd.iter().all(|a| a.error.is_none() && !a.is_winner()));
        assert_eq!(
            s.metrics().counter_sum("gas_watchdog_cancels_total", &[]) as usize,
            wd.len()
        );
        // Cancelled work was re-dispatched or degraded, never lost.
        assert_eq!(
            report.completed + report.cpu_fallbacks + report.shed + report.rejected,
            30
        );
        // The cancel left its marker in the device traces.
        let markers = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().spans.iter())
            .filter(|sp| sp.name.contains("/watchdog-cancel"))
            .count();
        assert_eq!(markers, cancels as usize);
    }

    #[test]
    fn watchdog_leaves_clean_runs_alone() {
        let w = small_workload(1, 40);
        let cfg = SchedulerConfig {
            timeout_slack: 3.0,
            ..SchedulerConfig::default()
        };
        let mut s = service(2, cfg, None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert_eq!(
            report
                .devices
                .iter()
                .map(|d| d.watchdog_cancels)
                .sum::<u32>(),
            0,
            "a clean attempt never exceeds worst-case × 3"
        );
        assert!(report.completed > 0);
    }

    #[test]
    fn hedging_tight_deadlines_races_and_replays_byte_identically() {
        let mut w = small_workload(9, 40);
        for r in &mut w.requests {
            r.priority = Priority::High;
        }
        // A huge slack threshold makes every High request hedge whenever
        // a second idle device exists.
        let cfg = SchedulerConfig {
            seed: 4,
            hedge_slack_ms: 1e6,
            ..SchedulerConfig::default()
        };
        let mut s = service(3, cfg.clone(), None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let (won, lost, cancelled) = report.hedge_outcomes_from_records();
        assert!(won + lost + cancelled > 0, "hedges must fire");
        assert_eq!(
            (
                report.degradation.hedges_won,
                report.degradation.hedges_lost,
                report.degradation.hedges_cancelled
            ),
            (won, lost, cancelled)
        );
        // Exactly one kept result per request, and every completed
        // request's output still matches the oracle regardless of which
        // side of the race won.
        for r in &report.records {
            assert!(
                r.attempts.iter().filter(|a| a.is_winner()).count() <= 1,
                "request {} kept more than one result",
                r.id
            );
        }
        // Identical devices race to an exact tie, so both outcomes occur
        // and every race's loser shows up as wasted device time.
        assert!(
            s.metrics().counter_sum("gas_hedge_wasted_ms_total", &[]) > 0.0,
            "a settled race has a loser, and its bill is accounted"
        );
        assert_eq!(
            s.metrics().counter_sum("gas_hedges_total", &[]) as usize,
            won + lost + cancelled
        );
        let hedge_spans = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().spans.iter())
            .filter(|sp| sp.name.contains("/hedge-"))
            .count();
        assert!(hedge_spans > 0, "hedge attempts run in their own spans");
        // Racing on the seeded RNG keeps the replay contract intact.
        let mut s2 = service(3, cfg, None);
        let report2 = s2.run(&w).unwrap();
        assert_eq!(report.to_json(), report2.to_json(), "byte-identical");
        assert_eq!(
            s.metrics_snapshot().to_json(),
            s2.metrics_snapshot().to_json()
        );
    }

    #[test]
    fn device_death_permanently_blacklists_and_the_pool_survives() {
        use gpu_sim::{FaultKind, FaultOp, FaultPlan};
        let w = small_workload(5, 40);
        // Scripted faults ignore the per-device reseed: every device dies
        // at its own 5th kernel launch.
        let plan = FaultPlan::seeded(1).with_scripted(FaultOp::Launch, 4, FaultKind::DeviceDeath);
        let mut s = service(2, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        for d in &report.devices {
            assert_eq!(d.deaths, 1, "device {} must die exactly once", d.index);
            assert!(d.blacklisted, "death blacklists device {} forever", d.index);
            assert_eq!(d.fatal_failures, 1, "the death is the only fatal");
        }
        assert_eq!(report.degradation.device_deaths, 2);
        // Exactly one attempt per device carries the permanent error; the
        // fail-fast rejections afterwards never masquerade as new faults.
        let death_attempts = report
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .filter(|a| {
                !a.transient
                    && a.error
                        .as_deref()
                        .is_some_and(|e| e.contains("device-death"))
            })
            .count();
        assert_eq!(death_attempts, 2);
        assert_eq!(
            s.metrics().counter_sum("gas_device_deaths_total", &[]) as usize,
            2
        );
        // The pool kept serving: every request has an explicit outcome and
        // post-death work degraded to the host.
        assert_eq!(
            report.completed + report.cpu_fallbacks + report.shed + report.rejected,
            40
        );
        assert!(report.completed > 0, "pre-death work completed on-device");
        assert!(report.cpu_fallbacks > 0, "post-death work went to the host");
    }

    #[test]
    fn degradation_ladder_engages_and_reports_non_vacuously() {
        use gpu_sim::{FaultKind, FaultOp, FaultPlan};
        let w = small_workload(6, 40);
        let plan = FaultPlan::seeded(2).with_scripted(FaultOp::Launch, 2, FaultKind::DeviceDeath);
        let cfg = SchedulerConfig {
            degrade: true,
            ..SchedulerConfig::default()
        };
        let mut s = service(2, cfg.clone(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let deg = &report.degradation;
        assert!(deg.enabled);
        assert!(
            !deg.transitions.is_empty(),
            "device loss must move the ladder"
        );
        assert_eq!(deg.max_level, 4, "both devices dead ends at host-only");
        assert_eq!(deg.final_level, 4, "dead devices never come back");
        assert!(deg.time_at_level_ms.iter().sum::<f64>() > 0.0);
        // L4 arrivals are host-served (or shed) by the ladder itself,
        // with the level in the reason.
        let l4_records = report
            .records
            .iter()
            .filter(|r| match &r.outcome {
                Outcome::CpuFallback { reason } | Outcome::Shed { reason } => {
                    reason.starts_with("degradation L4")
                }
                _ => false,
            })
            .count();
        assert!(l4_records > 0, "post-L4 arrivals go through the ladder");
        // Transitions are visible in telemetry and in the trace.
        assert!(
            s.metrics()
                .counter_sum("gas_degradation_transitions_total", &[])
                >= deg.transitions.len() as f64
        );
        assert!(s
            .metrics_snapshot()
            .to_json()
            .contains("gas_degradation_level"));
        let degrade_spans = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().spans.iter())
            .filter(|sp| sp.name.starts_with("sched/degrade/"))
            .count();
        assert_eq!(degrade_spans, deg.transitions.len());
        // Ladder runs replay byte-identically too.
        let mut s2 = service(2, cfg, Some(&plan));
        let report2 = s2.run(&w).unwrap();
        assert_eq!(report.to_json(), report2.to_json());
    }

    #[test]
    fn sched_and_recovery_spans_reach_the_trace() {
        let w = small_workload(8, 10);
        let plan = FaultPlan::seeded(1).with_launch_failure(0.3);
        let mut s = service(2, SchedulerConfig::default(), Some(&plan));
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        let span_names: Vec<String> = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().spans.iter().map(|sp| sp.name.clone()))
            .collect();
        assert!(
            span_names.iter().any(|n| n.starts_with("sched/req-")),
            "{span_names:?}"
        );
        if report.devices.iter().any(|d| d.failed_attempts > 0) {
            assert!(
                span_names.iter().any(|n| n.starts_with("recovery/req-")),
                "{span_names:?}"
            );
        }
    }

    #[test]
    fn coalescing_forms_mega_batches_and_strictly_cuts_makespan() {
        let w = uniform_burst(16, 4, 32);
        let seq = service(1, SchedulerConfig::default(), None)
            .run(&w)
            .unwrap();
        assert_eq!(seq.completed, 16);
        let cfg = SchedulerConfig {
            batch_window_ms: 0.1,
            ..SchedulerConfig::default()
        };
        let mut s = service(1, cfg, None);
        let coal = s.run(&w).unwrap();
        assert_eq!(coal.invariant_violations(), Vec::<String>::new());
        assert_eq!(coal.completed, 16);
        let max_group = coal
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .map(|a| a.coalesced)
            .max()
            .unwrap_or(0);
        assert!(max_group > 1, "the window must form a mega-batch");
        assert!(
            coal.makespan_ms < seq.makespan_ms,
            "coalescing must strictly cut the makespan: {} vs {} ms",
            coal.makespan_ms,
            seq.makespan_ms
        );
        // Per-array independence: every split-back result still matches
        // its own oracle bit for bit.
        assert!(coal.records.iter().all(|r| r.verified == Some(true)));
        // The mega-launch ran in its own span, and the cost model was
        // scored once per physical launch (leader only).
        let mega_spans = s
            .pool()
            .devices
            .iter()
            .flat_map(|d| d.gpu.timeline().spans.iter())
            .filter(|sp| sp.name.starts_with("sched/mega-"))
            .count();
        assert!(mega_spans > 0, "mega-batches run in sched/mega-* spans");
        let scored = coal
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .filter(|a| a.coalesced > 1 && a.predicted_ms > 0.0)
            .count();
        assert_eq!(scored, mega_spans, "one real prediction per launch");
    }

    #[test]
    fn cache_hits_bill_zero_device_time_and_reconcile() {
        // The same payload served three times: once on-device, then
        // twice straight from the cache.
        let w = Workload {
            requests: (0..3u64)
                .map(|id| SortRequest {
                    id,
                    num_arrays: 6,
                    array_len: 32,
                    data_seed: 42,
                    algorithm: Algorithm::Gas,
                    splitters: SplitterPolicy::default(),
                    priority: Priority::Normal,
                    arrival_ms: id as f64 * 5.0,
                    deadline_ms: 1e9,
                })
                .collect(),
        };
        let cfg = SchedulerConfig {
            cache_entries: 8,
            ..SchedulerConfig::default()
        };
        let mut s = service(1, cfg, None);
        let report = s.run(&w).unwrap();
        assert_eq!(report.invariant_violations(), Vec::<String>::new());
        assert_eq!(report.completed, 1);
        assert_eq!(report.cache_hits, 2);
        assert!(report.cache.enabled);
        assert_eq!(report.cache.lookups, 3);
        assert_eq!(report.cache.hits, 2);
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.cache.entries, 1);
        // A hit runs no device attempt and completes at admission: zero
        // device milliseconds billed.
        for r in &report.records {
            if matches!(r.outcome, Outcome::CacheHit) {
                assert!(r.attempts.is_empty());
                assert_eq!(r.completion_ms, Some(r.arrival_ms));
                assert_eq!(r.verified, Some(true));
            }
        }
        assert_eq!(
            s.metrics().counter_sum("gas_cache_hits_total", &[]) as usize,
            2
        );
        assert_eq!(
            s.metrics().counter_sum("gas_cache_misses_total", &[]) as usize,
            1
        );
        // Legacy runs stay cache-silent: no section, no metric family.
        let mut legacy = service(1, SchedulerConfig::default(), None);
        let lr = legacy.run(&w).unwrap();
        assert_eq!(lr.cache, CacheReport::default());
        assert!(!legacy
            .metrics_snapshot()
            .to_json()
            .contains("gas_cache_misses_total"));
    }

    #[test]
    fn overlapped_streaming_beats_sequential_dispatch_on_a_small_burst() {
        let w = uniform_burst(16, 4, 32);
        let seq = service(1, SchedulerConfig::default(), None)
            .run(&w)
            .unwrap();
        let cfg = SchedulerConfig {
            batch_window_ms: 0.1,
            overlap: true,
            ..SchedulerConfig::default()
        };
        let mut s = service(1, cfg.clone(), None);
        let streamed = s.run(&w).unwrap();
        assert_eq!(streamed.invariant_violations(), Vec::<String>::new());
        assert_eq!(streamed.completed, 16);
        assert!(
            streamed.makespan_ms < seq.makespan_ms,
            "streamed serving must strictly beat sequential dispatch: {} vs {} ms",
            streamed.makespan_ms,
            seq.makespan_ms
        );
        assert!(streamed.records.iter().all(|r| r.verified == Some(true)));
        // The pipeline really rode the per-device streams.
        let streamed_transfers = s.pool().devices[0]
            .gpu
            .timeline()
            .transfers
            .iter()
            .filter(|t| t.stream.is_some())
            .count();
        assert!(
            streamed_transfers > 0,
            "transfers must ride the H2D/D2H streams"
        );
        // Replay contract holds with overlap on.
        let mut s2 = service(1, cfg, None);
        let streamed2 = s2.run(&w).unwrap();
        assert_eq!(streamed.to_json(), streamed2.to_json());
        assert_eq!(
            s.metrics_snapshot().to_json(),
            s2.metrics_snapshot().to_json()
        );
    }

    #[test]
    fn streaming_stack_replays_byte_identically_under_chaos() {
        let w = Workload::generate(&WorkloadConfig {
            seed: 33,
            requests: 80,
            arrays: (4, 8),
            array_len: (32, 32),
            repeat_fraction: 0.5,
            ..WorkloadConfig::default()
        });
        let plan = FaultPlan::seeded(9)
            .with_launch_failure(0.03)
            .with_transfer_abort(0.03)
            .with_stream_stall(0.05, 0.2);
        let cfg = SchedulerConfig {
            seed: 17,
            batch_window_ms: -1.0, // auto: the cost model picks
            cache_entries: 16,
            overlap: true,
            ..SchedulerConfig::default()
        };
        let mut a = service(2, cfg.clone(), Some(&plan));
        let ra = a.run(&w).unwrap();
        assert_eq!(ra.invariant_violations(), Vec::<String>::new());
        let mut b = service(2, cfg, Some(&plan));
        let rb = b.run(&w).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(ra.to_json(), rb.to_json(), "byte-identical reports");
        assert_eq!(
            a.metrics_snapshot().to_json(),
            b.metrics_snapshot().to_json(),
            "byte-identical metrics"
        );
        assert!(ra.cache_hits > 0, "the repeat workload must hit the cache");
    }

    #[test]
    fn default_config_replays_byte_identically_and_never_coalesces() {
        // The whole streaming tier defaults off: a default-config run of
        // a chaos workload replays byte for byte, every dispatch is a
        // group of one, and the cache stays empty.
        let w = small_workload(3, 80);
        let plan = FaultPlan::seeded(11)
            .with_launch_failure(0.05)
            .with_transfer_abort(0.05)
            .with_stream_stall(0.05, 0.2);
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.batch_window_ms, 0.0);
        assert_eq!(cfg.cache_entries, 0);
        assert!(!cfg.overlap);
        let ra = service(3, cfg.clone(), Some(&plan)).run(&w).unwrap();
        let rb = service(3, cfg, Some(&plan)).run(&w).unwrap();
        assert_eq!(ra.to_json(), rb.to_json());
        assert_eq!(ra.cache_hits, 0);
        assert_eq!(ra.cache, CacheReport::default());
        assert!(ra
            .records
            .iter()
            .flat_map(|r| &r.attempts)
            .all(|a| a.coalesced == 0));
    }
}
