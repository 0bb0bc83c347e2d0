//! CI regression gate: runs a quick Fig. 2 sweep and compares the
//! simulated cycle bills against the checked-in baseline
//! (`results/baseline-fig2.json`). The simulator is deterministic, so
//! any drift beyond the tolerance is a real cost-model change and the
//! process exits 1.
//!
//! The run also enforces the **fused speed gate**: on every sweep point
//! the fused single-kernel pipeline must beat the three-kernel pipeline
//! and the warp-multisplit pipeline (`gas-warp`) must in turn beat the
//! fused one, each by more than the tolerance margin. All three series
//! come from the same run, so this gate needs no stored baseline and
//! fails loudly even while the checked-in file is still the bootstrap
//! sentinel. It then runs Ablation F (histogram vs. warp-multisplit vs.
//! conflict-free scatter), whose bank-conflict claims assert in-run.
//!
//! ```text
//! cargo run --release -p bench --bin bench-smoke
//!     [--scale 0.02] [--tolerance 0.02] [--baseline PATH]
//!     [--trace-dir DIR] [--update]
//! ```
//!
//! `--update` (or a checked-in `{"bootstrap": true}` sentinel) records
//! the current numbers instead of comparing; commit the rewritten
//! baseline together with the change that moved it.
//!
//! The run also enforces the **streaming serving gate** — on a canned
//! high-QPS burst of small requests, the coalescing + overlap dispatch
//! path must strictly beat sequential dispatch — and drops a
//! machine-readable summary (`results/BENCH_PR10.json`) carrying every
//! Fig. 2 point across all variant series plus the serving-throughput
//! comparison.
//!
//! A red gate does not stop the run: every gate runs and prints its own
//! verdict, and the process exits 1 at the end, naming each gate that
//! failed.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::baseline::{fused_speed_gate, record_or_compare, Fig2Baseline, GateOutcome};
use bench::experiments::{run_fig2_traced, run_warp_ablation};
use bench::report::default_out_dir;
use scheduler::{
    parse_mix, Algorithm, Priority, SchedulerConfig, ServiceReport, SortRequest, SortService,
    Workload,
};

/// The canned high-QPS serving workload for the streaming gate: a burst
/// of small, identically-shaped GAS requests all arriving at once. Solo
/// dispatch pays per-request launch and PCIe latency 16 times over;
/// coalescing amortizes them into one mega-batch, so the streamed
/// makespan must come in strictly lower.
fn serving_workload() -> Workload {
    let requests = (0..16u64)
        .map(|id| SortRequest {
            id,
            num_arrays: 4,
            array_len: 32,
            data_seed: 900 + id,
            algorithm: Algorithm::Gas,
            splitters: Default::default(),
            priority: Priority::Normal,
            arrival_ms: 0.0,
            deadline_ms: 1e9,
        })
        .collect();
    Workload { requests }
}

/// Drains the canned workload on one simulated device, either with the
/// legacy sequential dispatch or with the streaming tier (admission
/// window + transfer/compute overlap) armed.
fn run_serving(workload: &Workload, streamed: bool) -> Result<ServiceReport, String> {
    let cfg = SchedulerConfig {
        seed: 0,
        batch_window_ms: if streamed { 0.1 } else { 0.0 },
        overlap: streamed,
        ..SchedulerConfig::default()
    };
    let mut service = SortService::new(parse_mix("test", 1)?, cfg, None)?;
    service.run(workload)
}

/// The sequential and the streamed drain of `workload`, or why either run
/// is unusable (an error, or a report that violates its invariants).
fn serving_runs(workload: &Workload) -> Result<(ServiceReport, ServiceReport), String> {
    let sequential = run_serving(workload, false)?;
    let streamed = run_serving(workload, true)?;
    for (label, r) in [("sequential", &sequential), ("streamed", &streamed)] {
        let violations = r.invariant_violations();
        if !violations.is_empty() {
            return Err(format!(
                "{label} serving run violated invariants:\n  {}",
                violations.join("\n  ")
            ));
        }
    }
    Ok((sequential, streamed))
}

fn requests_per_s(requests: usize, report: &ServiceReport) -> f64 {
    requests as f64 / report.makespan_ms * 1000.0
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = bench::parse_scale(&args, 0.02);
    let mut baseline_path = default_out_dir().join("baseline-fig2.json");
    let mut tolerance = 0.02;
    let mut trace_dir: Option<PathBuf> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                if let Some(v) = it.next() {
                    baseline_path = PathBuf::from(v);
                }
            }
            "--tolerance" => {
                if let Some(v) = it.next() {
                    tolerance = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad --tolerance {v:?}, using 0.02");
                        0.02
                    });
                }
            }
            "--trace-dir" => trace_dir = it.next().map(PathBuf::from),
            "--update" => update = true,
            _ => {}
        }
    }

    println!(
        "# bench-smoke — Fig. 2 regression gate (scale {scale}, tolerance ±{:.0}%)\n",
        tolerance * 100.0
    );
    let report = run_fig2_traced(scale, trace_dir.as_deref());
    let current = Fig2Baseline::from_report(scale, &report);
    for r in &report.rows {
        println!(
            "n={:<5} measured {:>9.4} ms   theoretical {:>9.4} ms   fused {:>9.4} ms ({:.2}×)   \
             warp {:>9.4} ms ({:.2}×)",
            r.n,
            r.measured_ms,
            r.theoretical_ms,
            r.fused_ms,
            r.measured_ms / r.fused_ms.max(f64::MIN_POSITIVE),
            r.warp_ms,
            r.measured_ms / r.warp_ms.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "fit scale {:.4e}, NRMSE {:.2}%\n",
        report.fitted_scale,
        report.nrmse * 100.0
    );

    let mut failed: Vec<&str> = Vec::new();

    let fused_violations = fused_speed_gate(&current, tolerance);
    if fused_violations.is_empty() {
        println!(
            "fused speed gate: PASS — gas-fused beats the three-kernel pipeline and gas-warp \
             beats gas-fused on all {} points\n",
            current.rows.len()
        );
    } else {
        eprintln!("FAIL — fused speed gate:");
        for v in &fused_violations {
            eprintln!("  {v}");
        }
        failed.push("fused speed gate");
    }

    // Ablation F: the three bucketing strategies of the fused kernel.
    // run_warp_ablation asserts the warp claims in-run (kernel time and
    // bank passes); a failed assertion prints its panic message and fails
    // this gate without stopping the others.
    println!("# Ablation F — histogram vs. warp-multisplit vs. conflict-free scatter");
    match std::panic::catch_unwind(|| run_warp_ablation(scale)) {
        Ok(rows) => {
            println!(
                "{:<6} {:>10} {:>12} {:>10} {:>12} {:>12} {:>12} {:>12}",
                "n",
                "hist ms",
                "msplit ms",
                "warp ms",
                "hist passes",
                "warp passes",
                "hist txns",
                "warp txns"
            );
            for r in rows {
                println!(
                    "{:<6} {:>10.4} {:>12.4} {:>10.4} {:>12} {:>12} {:>12} {:>12}",
                    r.array_len,
                    r.hist_kernel_ms,
                    r.multisplit_kernel_ms,
                    r.warp_kernel_ms,
                    r.hist_bank_passes,
                    r.warp_bank_passes,
                    r.hist_global_txns,
                    r.warp_global_txns
                );
            }
            println!(
                "warp ablation: PASS — conflict-free scatter bills strictly fewer bank passes\n"
            );
        }
        Err(_) => {
            eprintln!("FAIL — warp ablation: an in-run assertion failed (message above)\n");
            failed.push("warp ablation");
        }
    }

    // Streaming serving gate: on the canned high-QPS small-request
    // burst, the coalescing + overlap dispatch path must beat the
    // sequential drain outright. Both runs come from this build, so the
    // gate needs no stored baseline.
    println!("# Streaming serving gate — coalesced/overlapped vs. sequential dispatch");
    let workload = serving_workload();
    let requests = workload.requests.len();
    let serving = match serving_runs(&workload) {
        Ok(runs) => Some(runs),
        Err(e) => {
            eprintln!("FAIL — streaming serving gate: {e}");
            failed.push("streaming serving gate");
            None
        }
    };
    if let Some((sequential, streamed)) = &serving {
        println!(
            "{requests} × 4×32 requests: sequential {:.4} ms ({:.0} req/s) vs \
             streamed {:.4} ms ({:.0} req/s)",
            sequential.makespan_ms,
            requests_per_s(requests, sequential),
            streamed.makespan_ms,
            requests_per_s(requests, streamed)
        );
        if streamed.makespan_ms < sequential.makespan_ms {
            println!(
                "streaming serving gate: PASS — {:.2}× makespan win\n",
                sequential.makespan_ms / streamed.makespan_ms
            );
        } else {
            eprintln!(
                "FAIL — streaming serving gate: coalesced/overlapped makespan {:.4} ms does not \
                 beat sequential {:.4} ms",
                streamed.makespan_ms, sequential.makespan_ms
            );
            failed.push("streaming serving gate");
        }
    }

    // Machine-readable drop for downstream tooling: every Fig. 2 point
    // across all variant series, plus the serving-throughput section.
    // Written only when both serving runs completed.
    if let Some((sequential, streamed)) = &serving {
        let pr10_path = default_out_dir().join("BENCH_PR10.json");
        let pr10 = support::json!({
            "scale": scale,
            "figure2": report.rows.iter().map(|r| support::json!({
                "n": r.n,
                "three_kernel_ms": r.measured_ms,
                "theoretical_ms": r.theoretical_ms,
                "fused_ms": r.fused_ms,
                "warp_ms": r.warp_ms,
            })).collect::<Vec<_>>(),
            "serving": {
                "requests": requests,
                "num_arrays": 4,
                "array_len": 32,
                "sequential_makespan_ms": sequential.makespan_ms,
                "streamed_makespan_ms": streamed.makespan_ms,
                "sequential_requests_per_s": requests_per_s(requests, sequential),
                "streamed_requests_per_s": requests_per_s(requests, streamed),
                "speedup": sequential.makespan_ms / streamed.makespan_ms,
            },
        });
        match std::fs::write(&pr10_path, support::json::to_string_pretty(&pr10) + "\n") {
            Ok(()) => println!("wrote {}", pr10_path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", pr10_path.display());
                failed.push("summary write");
            }
        }
    }

    match record_or_compare(&baseline_path, &current, tolerance, update) {
        Err(e) => {
            eprintln!("error: {e}");
            failed.push("Fig. 2 baseline");
        }
        Ok(GateOutcome::Recorded {
            reason,
            was_bootstrap,
        }) => {
            if was_bootstrap {
                println!(
                    "NOTICE: recording bootstrap baseline — the checked-in file was the \
                     {{\"bootstrap\": true}} sentinel, so this first run records real \
                     numbers for all three series (three-kernel, fused and warp \
                     pipeline times per sweep point) instead of comparing."
                );
            }
            println!(
                "baseline recorded ({reason}): {} (commit this file)",
                baseline_path.display()
            );
        }
        Ok(GateOutcome::Passed { points }) => {
            println!(
                "PASS — all {points} points within ±{:.0}% of {}",
                tolerance * 100.0,
                baseline_path.display()
            );
        }
        Ok(GateOutcome::Drifted { drifts }) => {
            eprintln!(
                "FAIL — simulated cost model drifted from {}:",
                baseline_path.display()
            );
            for d in &drifts {
                eprintln!("  {d}");
            }
            eprintln!(
                "if this change is intentional, rerun with --update and commit the new baseline"
            );
            failed.push("Fig. 2 baseline");
        }
    }

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nbench-smoke: {} gate(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
