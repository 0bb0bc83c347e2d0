//! Golden serving runs: the exact report, metric snapshot and span
//! names of four fixed `SortService` runs. The replay tests elsewhere
//! compare two runs inside one binary; this file pins the bytes
//! themselves, so a change to the scheduler that is meant to be
//! behaviour-neutral (a refactor of the dispatch path) cannot move a
//! record, a counter or a trace span unseen.
//!
//! Each row is FNV-1a-64 of `report.to_json()`, of
//! `metrics_snapshot().to_json()`, and of the ordered span names of
//! every device timeline. A deliberate change to scheduling must update
//! the table below and say so in the change log.

use gpu_sim::FaultPlan;
use scheduler::{
    parse_mix, AttemptRecord, SchedulerConfig, ServiceReport, SortService, Workload, WorkloadConfig,
};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: what it drained, and what came out.
struct Run {
    report: ServiceReport,
    hashes: [u64; 3],
    /// Transfers issued on a non-default stream, over the whole pool.
    stream_transfers: usize,
}

fn run(workload: &Workload, cfg: SchedulerConfig, faults: &str) -> Run {
    let plan = FaultPlan::parse(faults).unwrap();
    let specs = parse_mix("test,k40c", 4).unwrap();
    let mut service = SortService::new(specs, cfg, Some(&plan)).unwrap();
    let report = service.run(workload).unwrap();
    assert_eq!(report.invariant_violations(), Vec::<String>::new());
    let mut spans = String::new();
    let mut stream_transfers = 0;
    for d in &service.pool().devices {
        spans.push_str(&format!("dev{}\n", d.index));
        let timeline = d.gpu.timeline();
        for s in &timeline.spans {
            spans.push_str(&s.name);
            spans.push('\n');
        }
        stream_transfers += timeline
            .transfers
            .iter()
            .filter(|t| t.stream.is_some())
            .count();
    }
    let hashes = [
        fnv1a(report.to_json().as_bytes()),
        fnv1a(service.metrics_snapshot().to_json().as_bytes()),
        fnv1a(spans.as_bytes()),
    ];
    Run {
        report,
        hashes,
        stream_transfers,
    }
}

fn attempts(report: &ServiceReport) -> impl Iterator<Item = &AttemptRecord> {
    report.records.iter().flat_map(|r| &r.attempts)
}

fn watchdog_cancels(report: &ServiceReport, group: bool) -> usize {
    attempts(report)
        .filter(|a| (a.coalesced >= 2) == group)
        .filter(|a| {
            a.cancelled
                .as_deref()
                .is_some_and(|c| c.starts_with("watchdog"))
        })
        .count()
}

fn group_failures(report: &ServiceReport) -> usize {
    attempts(report)
        .filter(|a| a.coalesced >= 2 && a.error.is_some())
        .count()
}

fn hedges(report: &ServiceReport) -> usize {
    attempts(report).filter(|a| a.hedge).count()
}

#[track_caller]
fn assert_pinned(name: &str, got: [u64; 3], want: [u64; 3]) {
    assert_eq!(
        got, want,
        "{name}: [report, snapshot, spans] hashes moved; got {got:#018x?}"
    );
}

/// The tail-tolerance stack on solo dispatch: watchdog, hedging and the
/// degradation ladder under a stall storm.
#[test]
fn tail_tolerance_run_is_pinned() {
    let workload = Workload::generate(&WorkloadConfig {
        seed: 1,
        requests: 300,
        warp_fraction: 0.25,
        fused_fraction: 0.15,
        ..WorkloadConfig::default()
    });
    let cfg = SchedulerConfig {
        seed: 1,
        timeout_slack: 3.0,
        hedge_slack_ms: 5.0,
        degrade: true,
        ..SchedulerConfig::default()
    };
    let r = run(&workload, cfg, "seed=1,launch=0.02,stall=0.05,stall-ms=0.3");
    assert!(hedges(&r.report) > 0, "no hedged attempt");
    assert!(
        watchdog_cancels(&r.report, false) > 0,
        "no solo watchdog cancel"
    );
    assert!(
        r.report.degradation.max_level >= 2,
        "ladder never reached L2"
    );
    assert_pinned(
        "tail",
        r.hashes,
        [
            0x8643_55f4_71c2_8523,
            0x57ab_eb04_bc82_002c,
            0xc89a_be68_7c81_128c,
        ],
    );
}

/// Coalesced, overlapped groups mixed with hedged solo requests, under
/// a watchdog tight enough to cancel a group launch.
#[test]
fn group_run_is_pinned() {
    let workload = Workload::generate(&WorkloadConfig {
        seed: 3,
        requests: 120,
        warp_fraction: 0.2,
        fused_fraction: 0.15,
        deterministic_fraction: 0.25,
        ..WorkloadConfig::default()
    });
    let cfg = SchedulerConfig {
        seed: 3,
        batch_window_ms: 5.0,
        overlap: true,
        timeout_slack: 1.5,
        hedge_slack_ms: 20.0,
        ..SchedulerConfig::default()
    };
    let r = run(
        &workload,
        cfg,
        "seed=3,launch=0.03,abort=0.03,stall=0.1,stall-ms=0.5",
    );
    assert!(hedges(&r.report) > 0, "no hedged attempt");
    assert!(
        watchdog_cancels(&r.report, false) > 0,
        "no solo watchdog cancel"
    );
    assert!(
        watchdog_cancels(&r.report, true) > 0,
        "no group watchdog cancel"
    );
    assert!(group_failures(&r.report) > 0, "no failed group launch");
    assert_pinned(
        "group",
        r.hashes,
        [
            0xd376_1d04_9bb8_ffda,
            0x5491_3098_03c1_d96b,
            0x159d_2dc1_9810_fbf2,
        ],
    );
}

/// The streaming stack: coalescing window, result cache and
/// three-stream overlap over a repeat-heavy workload.
#[test]
fn streaming_run_is_pinned() {
    let workload = Workload::generate(&WorkloadConfig {
        seed: 3,
        requests: 300,
        deterministic_fraction: 0.25,
        repeat_fraction: 0.4,
        ..WorkloadConfig::default()
    });
    let cfg = SchedulerConfig {
        seed: 3,
        batch_window_ms: 5.0,
        cache_entries: 32,
        overlap: true,
        ..SchedulerConfig::default()
    };
    let r = run(
        &workload,
        cfg,
        "seed=3,launch=0.02,abort=0.02,stall=0.05,stall-ms=0.2",
    );
    assert!(group_failures(&r.report) > 0, "no failed group launch");
    assert!(r.stream_transfers > 0, "no streamed transfer");
    assert!(r.report.cache_hits > 0, "the cache never hit");
    assert_pinned(
        "stream",
        r.hashes,
        [
            0xcd81_66d7_f52a_5813,
            0x417e_bf09_4f9f_f8f6,
            0xca5e_b758_7c96_7dd1,
        ],
    );
}

/// The default configuration: every serving feature off, faults on.
#[test]
fn default_run_is_pinned() {
    let workload = Workload::generate(&WorkloadConfig {
        seed: 3,
        requests: 80,
        arrays: (4, 16),
        array_len: (16, 48),
        ..WorkloadConfig::default()
    });
    let r = run(
        &workload,
        SchedulerConfig::default(),
        "seed=11,launch=0.05,abort=0.05,stall=0.05,stall-ms=0.2",
    );
    assert!(attempts(&r.report).all(|a| a.coalesced == 0));
    assert_eq!(r.stream_transfers, 0);
    assert_pinned(
        "default",
        r.hashes,
        [
            0xfbe4_d353_ee97_5000,
            0x3d41_1780_725d_2f1f,
            0x09db_38f1_0617_7ef2,
        ],
    );
}
