//! Cross-variant properties of the splitter policies.
//!
//! Two guarantees are exercised here end-to-end, through the public API
//! only:
//!
//! 1. **The deterministic bound.** Under
//!    [`SplitterPolicy::Deterministic`] no sortable (non-tie) bucket
//!    segment ever exceeds `2·⌈n/p⌉` — for *arbitrary* inputs, not just
//!    the curated adversarial suite. Regular sampling offers no such
//!    bound; that contrast is measured by the bench crate's Ablation G.
//! 2. **Recovery transparency.** Overflow detection plus re-split,
//!    combined with fault-injected retries and CPU fallback, yields
//!    output bit-for-bit equal to the CPU oracle — chaos and skew
//!    change cycle bills, never bytes.

use array_sort::{
    cpu_ref, overflow_limit, ArraySortConfig, FusedSort, FusedStrategy, GpuArraySort, RetryPolicy,
    Sorter, SplitterPolicy, Variant,
};
use datagen::{adversarial_suite, ArrayBatch};
use gpu_sim::{DeviceSpec, FaultPlan, Gpu};
use support::check::{check, vec};
use support::ChaCha8Rng;

fn gpu() -> Gpu {
    Gpu::new(DeviceSpec::tesla_k40c())
}

fn det_cfg() -> ArraySortConfig {
    ArraySortConfig {
        splitter_policy: SplitterPolicy::Deterministic,
        ..Default::default()
    }
}

/// A value pool that loves collisions: point masses, denormal-adjacent
/// values and a continuous range, so the property explores heavy ties,
/// near-sorted runs and plain noise alike.
fn skewed_value(rng: &mut ChaCha8Rng) -> f32 {
    // Weights 3 : 2 : 1 : 4.
    match rng.gen_range(0..10) {
        0..=2 => 42.0,
        3..=4 => 0.0,
        5 => 1.0e6,
        _ => rng.gen_range(0.0f32..1.0e6),
    }
}

/// The tentpole invariant, for arbitrary shapes and values: after a
/// deterministic-policy sort every array is sorted, the multiset is
/// preserved, and the largest *sortable* segment respects 2·⌈n/p⌉.
#[test]
fn deterministic_policy_never_exceeds_the_bound() {
    check(24, |rng| {
        let num_arrays = rng.gen_range(1usize..6);
        let array_len = rng.gen_range(2usize..240);
        let seed_values = vec(rng, 0..64, skewed_value);
        // Tile the sampled pool across the whole batch so short pools
        // still cover large batches (and maximise duplication).
        let total = num_arrays * array_len;
        let mut data: Vec<f32> = (0..total)
            .map(|i| {
                if seed_values.is_empty() {
                    (i % 7) as f32
                } else {
                    seed_values[i % seed_values.len()]
                }
            })
            .collect();
        let original = data.clone();

        let sorter = GpuArraySort::with_config(det_cfg()).unwrap();
        let stats = sorter.sort(&mut gpu(), &mut data, array_len).unwrap();

        assert!(cpu_ref::is_each_sorted(&data, array_len));
        assert_eq!(cpu_ref::verify_against(&original, &data, array_len), None);

        let p = det_cfg().buckets_for(array_len);
        let limit = overflow_limit(array_len, p);
        assert_eq!(stats.overflow.limit as usize, limit);
        assert!(
            (stats.overflow.post_max_sortable as usize) <= limit,
            "sortable segment {} exceeds 2·⌈n/p⌉ = {} (n = {}, p = {})",
            stats.overflow.post_max_sortable,
            limit,
            array_len,
            p
        );
    });
}

/// Overflow + re-split is invisible in the bytes even under injected
/// device faults: whatever mix of retries, rollbacks and CPU
/// fallback the fault plan provokes, the output equals the CPU
/// oracle bit-for-bit.
#[test]
fn faulted_resplit_matches_cpu_oracle_bit_for_bit() {
    check(24, |rng| {
        let seed = rng.gen_range(0u64..1024);
        let fault_seed = rng.gen_range(0u64..1024);
        let launch_rate = rng.gen_range(0.0f64..0.4);
        let abort_rate = rng.gen_range(0.0f64..0.3);
        let array_len = 200;
        // single-heavy at 60 % mass guarantees a bucket past 2n/p, so
        // every iteration exercises detection *and* re-split.
        let (_, dist, arrangement) = adversarial_suite()
            .into_iter()
            .find(|(name, _, _)| *name == "single-heavy")
            .unwrap();
        let mut batch = ArrayBatch::generate(seed, 8, array_len, dist, arrangement);
        let mut oracle = batch.as_flat().to_vec();
        cpu_ref::sort_arrays_seq(&mut oracle, array_len);

        let mut g = gpu();
        g.set_fault_plan(Some(
            FaultPlan::seeded(fault_seed)
                .with_launch_failure(launch_rate)
                .with_transfer_abort(abort_rate),
        ));
        let sorter = Sorter::new(Variant::ThreeKernel, det_cfg()).unwrap();
        let (stats, _report) = sorter
            .sort_recovering(
                &mut g,
                batch.as_flat_mut(),
                array_len,
                &RetryPolicy::default(),
            )
            .unwrap();

        assert_eq!(batch.as_flat(), oracle.as_slice());
        if let Some(stats) = stats {
            // The device path really did overflow and repair.
            let overflow = stats.overflow().expect("GAS reports overflows");
            assert!(overflow.overflowed_buckets >= 1);
            assert!(overflow.resplit_segments >= 1);
            assert!(
                (overflow.post_max_sortable as usize)
                    <= overflow_limit(array_len, det_cfg().buckets_for(array_len))
            );
        }
    });
}

/// Every adversarial distribution, every variant: the deterministic
/// policy holds its bound and all three variants agree bit-for-bit with
/// the CPU oracle.
#[test]
fn adversarial_suite_is_bounded_on_every_variant() {
    let array_len = 400;
    let num_arrays = 24;
    let p = det_cfg().buckets_for(array_len);
    let limit = overflow_limit(array_len, p);

    for (i, (name, dist, arrangement)) in adversarial_suite().into_iter().enumerate() {
        let batch =
            ArrayBatch::generate(0x5117 + i as u64, num_arrays, array_len, dist, arrangement);
        let mut oracle = batch.as_flat().to_vec();
        cpu_ref::sort_arrays_seq(&mut oracle, array_len);

        // Three-kernel pipeline.
        let mut gas_data = batch.as_flat().to_vec();
        let gas = GpuArraySort::with_config(det_cfg())
            .unwrap()
            .sort(&mut gpu(), &mut gas_data, array_len)
            .unwrap();
        assert_eq!(gas_data, oracle, "{name}: gas output != oracle");
        assert!(
            (gas.overflow.post_max_sortable as usize) <= limit,
            "{name}: gas sortable max {} > {limit}",
            gas.overflow.post_max_sortable
        );

        // Fused single-kernel, both strategies.
        for (label, strategy) in [
            ("gas-fused", FusedStrategy::default()),
            ("gas-warp", FusedStrategy::WarpConflictFree),
        ] {
            let mut data = batch.as_flat().to_vec();
            let stats = FusedSort::with_config_and_strategy(det_cfg(), strategy)
                .unwrap()
                .sort(&mut gpu(), &mut data, array_len)
                .unwrap();
            assert_eq!(data, oracle, "{name}: {label} output != oracle");
            assert!(
                (stats.overflow.post_max_sortable as usize) <= limit,
                "{name}: {label} sortable max {} > {limit}",
                stats.overflow.post_max_sortable
            );
        }
    }
}

/// The all-equal distribution is pure ties: detection must fire (one
/// bucket swallows the whole array), re-split must classify it as a tie
/// segment rather than loop, and the bound applies to what remains.
#[test]
fn all_equal_arrays_resolve_as_tie_segments() {
    let array_len = 300;
    let data: Vec<f32> = vec![42.0; 6 * array_len];
    let mut sorted = data.clone();
    let stats = GpuArraySort::with_config(det_cfg())
        .unwrap()
        .sort(&mut gpu(), &mut sorted, array_len)
        .unwrap();
    assert_eq!(sorted, data, "all-equal input is a fixed point");
    assert!(stats.overflow.overflowed_buckets >= 1);
    assert!(stats.overflow.tie_segments >= 1);
    assert_eq!(stats.overflow.pre_max as usize, array_len);
    let limit = overflow_limit(array_len, det_cfg().buckets_for(array_len));
    assert!((stats.overflow.post_max_sortable as usize) <= limit);
}
