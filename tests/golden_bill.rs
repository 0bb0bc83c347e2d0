//! Golden simulated bills: the exact cycles, wall time bits and every
//! operation counter of the GAS launches (deterministic and regular
//! sampling splitters) and of the STA baseline's launches on one fixed,
//! seeded, skewed batch. The replay tests elsewhere compare two runs
//! inside one binary; this file pins the numbers themselves, so a change
//! to the host-side code that is meant to be bill-neutral (faster
//! analysis, fewer allocations) cannot move a simulated number unseen.
//!
//! A deliberate change to the cost model or to a kernel's charges must
//! update the table below and say so in the change log.

use array_sort::{ArraySortConfig, FusedSort, FusedStrategy, GpuArraySort, SplitterPolicy};
use gpu_sim::{Counters, DeviceSpec, Gpu, KernelStats};
use support::ChaCha8Rng;

const ARRAY_LEN: usize = 1000;
const NUM_ARRAYS: usize = 12;

/// Arrays cycling through three shapes: one heavy value (~90 % of the
/// elements), at most eight distinct values, and uniform floats.
fn skewed_batch() -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D_B111);
    let mut out = Vec::with_capacity(NUM_ARRAYS * ARRAY_LEN);
    for i in 0..NUM_ARRAYS {
        match i % 3 {
            0 => {
                let heavy = rng.gen_range(0.0f32..1000.0);
                out.extend((0..ARRAY_LEN).map(|_| {
                    if rng.gen_range(0u32..10) < 9 {
                        heavy
                    } else {
                        rng.gen_range(0.0f32..1000.0)
                    }
                }));
            }
            1 => {
                let palette: Vec<f32> = (0..rng.gen_range(1usize..=8))
                    .map(|_| rng.gen_range(0.0f32..1000.0))
                    .collect();
                out.extend((0..ARRAY_LEN).map(|_| palette[rng.gen_range(0..palette.len())]));
            }
            _ => out.extend((0..ARRAY_LEN).map(|_| rng.gen_range(0.0f32..1000.0))),
        }
    }
    out
}

fn deterministic() -> ArraySortConfig {
    ArraySortConfig {
        splitter_policy: SplitterPolicy::Deterministic,
        ..ArraySortConfig::default()
    }
}

/// The pinned part of one launch's bill.
#[derive(Debug, PartialEq)]
struct Bill {
    name: String,
    cycles: u64,
    time_bits: u64,
    counters: Counters,
}

impl From<&KernelStats> for Bill {
    fn from(k: &KernelStats) -> Self {
        Bill {
            name: k.name.clone(),
            cycles: k.cycles,
            time_bits: k.time_ms.to_bits(),
            counters: k.counters.clone(),
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sorts the batch with `sort` on a fresh K40c and returns the bill of
/// every kernel it launched, in launch order, with the bits of the
/// device's total elapsed time. The output must match the CPU oracle, or
/// the table would pin a wrong answer.
fn run(sort: impl FnOnce(&mut Gpu, &mut [f32])) -> (Vec<Bill>, u64) {
    let input = skewed_batch();
    let mut data = input.clone();
    let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
    sort(&mut gpu, &mut data);
    assert_eq!(
        array_sort::cpu_ref::verify_against(&input, &data, ARRAY_LEN),
        None,
        "the sort must match the CPU oracle"
    );
    let bills = gpu.timeline().kernels.iter().map(Bill::from).collect();
    (bills, gpu.elapsed_ms().to_bits())
}

fn launches(sort: impl FnOnce(&mut Gpu, &mut [f32])) -> Vec<Bill> {
    run(sort).0
}

fn fused(strategy: FusedStrategy) -> Vec<Bill> {
    let sorter = FusedSort::with_config_and_strategy(deterministic(), strategy)
        .expect("the deterministic config is valid");
    launches(|gpu, data| {
        sorter
            .sort(gpu, data, ARRAY_LEN)
            .expect("fused sort runs clean");
    })
}

fn three_kernel() -> Vec<Bill> {
    let sorter =
        GpuArraySort::with_config(deterministic()).expect("the deterministic config is valid");
    launches(|gpu, data| {
        sorter
            .sort(gpu, data, ARRAY_LEN)
            .expect("three-kernel sort runs clean");
    })
}

/// `gas_fused`: histogram atomics serialized by the measured same-bucket
/// contention of each warp group, deterministic splitters in Stage 2 and
/// the in-shared re-split of overflowing buckets.
#[test]
fn gas_fused_bill_is_pinned() {
    let want = vec![Bill {
        name: "gas_fused".into(),
        cycles: 80_540,
        time_bits: 0x3FBCF49AFCFD66F7,
        counters: Counters {
            alu: 264_692,
            shared_accesses: 569_588,
            global_elems: 24_600,
            global_txn_micro: 768_750_000,
            atomics_global: 0,
            atomics_shared: 24_000,
            syncs: 80,
            divergence_events: 0,
            baseline_cycles: 0,
            shared_bank_passes: 587_442,
            warp_votes: 0,
            warp_shuffles: 0,
            bucket_overflows: 25,
        },
    }];
    assert_eq!(fused(FusedStrategy::Histogram), want);
}

/// `gas_warp`: ballot/match bucketing (leader-only atomics) and the
/// measured bank-conflict degree of the padded scatter.
#[test]
fn gas_warp_bill_is_pinned() {
    let want = vec![Bill {
        name: "gas_warp".into(),
        cycles: 80_185,
        time_bits: 0x3FBCD56079D5DBA2,
        counters: Counters {
            alu: 303_692,
            shared_accesses: 538_388,
            global_elems: 24_600,
            global_txn_micro: 768_750_000,
            atomics_global: 0,
            atomics_shared: 4490,
            syncs: 80,
            divergence_events: 0,
            baseline_cycles: 0,
            shared_bank_passes: 555_408,
            warp_votes: 72_000,
            warp_shuffles: 15_000,
            bucket_overflows: 25,
        },
    }];
    assert_eq!(fused(FusedStrategy::WarpConflictFree), want);
}

/// The three-kernel pipeline under deterministic splitters: the
/// tile-sorting Phase 1, bucketing with overflow detection, the re-split
/// of the overflowing buckets and the bucket sort.
#[test]
fn deterministic_three_kernel_bills_are_pinned() {
    let want = vec![
        Bill {
            name: "gas_phase1_splitters_det".into(),
            cycles: 85_643,
            time_bits: 0x3FBEB58149B408C9,
            counters: Counters {
                alu: 144_592,
                shared_accesses: 331_688,
                global_elems: 12_612,
                global_txn_micro: 2_112_000_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 12,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 331_688,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        },
        Bill {
            name: "gas_phase2_bucketing".into(),
            cycles: 9967,
            time_bits: 0x3F92D1D1D55A246A,
            counters: Counters {
                alu: 3_603_600,
                shared_accesses: 32_400,
                global_elems: 1_213_800,
                global_txn_micro: 37_931_250_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 60,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 32_400,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 25,
            },
        },
        Bill {
            name: "gas_resplit".into(),
            cycles: 12_993,
            time_bits: 0x3F96FA94EC88CD08,
            counters: Counters {
                alu: 7598,
                shared_accesses: 15_196,
                global_elems: 15_246,
                global_txn_micro: 1_905_750_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 8,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 15_196,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        },
        Bill {
            name: "gas_phase3_bucket_sort".into(),
            cycles: 2436,
            time_bits: 0x3F80EFC1963C382E,
            counters: Counters {
                alu: 24_878,
                shared_accesses: 78_638,
                global_elems: 8865,
                global_txn_micro: 8_512_812_500,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 12,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 78_638,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        },
    ];
    assert_eq!(three_kernel(), want);
}

/// The three-kernel pipeline under the default regular-sampling
/// splitters: Phase 2 runs 50 threads per block (a partial second warp).
#[test]
fn regular_sampling_three_kernel_bills_are_pinned() {
    let want = vec![
        Bill {
            name: "gas_phase1_splitters".into(),
            cycles: 27_488,
            time_bits: 0x3FA5737A1A1EF58B,
            counters: Counters {
                alu: 23_384,
                shared_accesses: 74_182,
                global_elems: 12_612,
                global_txn_micro: 2_112_000_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 12,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 74_182,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        },
        Bill {
            name: "gas_phase2_bucketing".into(),
            cycles: 10_071,
            time_bits: 0x3F92F66A0CF8418F,
            counters: Counters {
                alu: 3_603_600,
                shared_accesses: 32_400,
                global_elems: 1_213_800,
                global_txn_micro: 37_931_250_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 60,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 32_400,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 43,
            },
        },
        Bill {
            name: "gas_phase3_bucket_sort".into(),
            cycles: 212_318,
            time_bits: 0x3FD28F34C01C535C,
            counters: Counters {
                alu: 83_804,
                shared_accesses: 263_803,
                global_elems: 24_600,
                global_txn_micro: 24_018_750_000,
                atomics_global: 0,
                atomics_shared: 0,
                syncs: 12,
                divergence_events: 0,
                baseline_cycles: 0,
                shared_bank_passes: 263_803,
                warp_votes: 0,
                warp_shuffles: 0,
                bucket_overflows: 0,
            },
        },
    ];
    let (bills, elapsed_bits) = run(|gpu, data| {
        GpuArraySort::new()
            .sort(gpu, data, ARRAY_LEN)
            .expect("three-kernel sort runs clean");
    });
    assert_eq!(bills, want);
    assert_eq!(elapsed_bits, 0x3FD8_37CB_2742_24BE);
}

/// The STA baseline: the tagging kernel, then two stable radix sorts of
/// four passes each. The 12 000 elements make three radix tiles (the last
/// one partial) and a 768-entry digit table, so every pass's scan
/// recurses once: histogram, scan of the tiles, scan of the tile sums,
/// uniform add, scatter. The rows are hashed (FNV-1a-64 over each bill's
/// `Debug` form, one per line) because there are 41 of them.
#[test]
fn sta_bills_are_pinned() {
    let (bills, elapsed_bits) = run(|gpu, data| {
        thrust_sim::sta::sort_arrays(gpu, data, ARRAY_LEN).expect("STA runs clean");
    });
    let pass = [
        "radix_histogram",
        "scan_tiles",
        "scan_tiles",
        "scan_uniform_add",
        "radix_scatter",
    ];
    let mut names = vec!["sta_tagging"];
    for _ in 0..8 {
        names.extend(pass);
    }
    assert_eq!(
        bills.iter().map(|b| b.name.as_str()).collect::<Vec<_>>(),
        names
    );
    let rows: String = bills.iter().map(|b| format!("{b:?}\n")).collect();
    assert_eq!(
        (fnv1a(rows.as_bytes()), elapsed_bits),
        (0x1FAB_DE7F_E85F_0F2D, 0x3FF6_FBFE_A5C2_408E)
    );
}
