//! Phase 2 — bucketing (paper §5.2, Algorithm 2).
//!
//! One block per array, one thread per bucket (Definition 5: thread `j`
//! owns the splitter pair `(S[j], S[j+1])`). Each thread traverses the
//! whole array and collects the elements falling inside its pair — a
//! branch-divergence-free loop, since every thread executes the identical
//! compare-and-maybe-store sequence. Two sentinel splitters added in Phase
//! 1 guarantee the pairs tile the key space, so the buckets partition the
//! array exactly.
//!
//! The pass runs twice: once *counting* (filling the global bucket-size
//! table `Z`, Definition 4 — these counts are what later parallelizes the
//! write-back), then once *staging* the buckets at their prefix offsets.
//! Staging normally lives in block shared memory (arrays up to ~12 K
//! elements fit in 48 KB), and the staged, bucketed array is finally
//! copied back **over its own global memory** — the in-place write-back
//! the paper credits with "saving about 50 % of device's global memory".
//! Arrays too large for shared memory fall back to a bounded global
//! staging area sized by the device's resident-block capacity (not by N).
//!
//! `threads_per_bucket > 1` (the paper's rejected design, kept for the
//! ablation) assigns k threads to each bucket: every one of them still
//! traverses the whole array (the pair predicate is per-bucket, not
//! per-segment) and matched elements are claimed through a shared-memory
//! atomic cursor — k× the warps for the same scan, plus atomic traffic.
//! That is exactly the "additional overhead" that made the authors drop
//! the idea (§5.2), and the ablation bench shows it.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, KernelStats, LaunchConfig, SimResult};

use crate::config::ArraySortConfig;
use crate::geometry::BatchGeometry;
use crate::key::SortKey;

/// Where Phase 2 stages buckets before the write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagingStrategy {
    /// Block shared memory (the paper's in-place path).
    Shared,
    /// A bounded global scratch area (resident-blocks × n elements),
    /// used when the array exceeds shared memory or when
    /// [`ArraySortConfig::shared_staging`] is off.
    Global,
}

support::impl_to_json!(
    enum StagingStrategy {
        Shared = "Shared",
        Global = "Global",
    }
);

/// Result of the bucketing phase.
#[derive(Debug, Clone)]
pub struct BucketingOutcome {
    /// Launch statistics.
    pub kernel: KernelStats,
    /// Staging path taken.
    pub staging: StagingStrategy,
}

// The splitter binary search lives in `splitters` (one definition shared
// by every variant); re-exported here because Phase 2 is its historical
// home and downstream callers import it from both paths.
pub use crate::splitters::bucket_index;

use crate::splitters::overflow_limit;

/// Runs the bucketing kernel: reorders `data` so each array's buckets are
/// contiguous and in splitter order, and fills `bucket_sizes` (table `Z`).
pub fn bucket_arrays<K: SortKey>(
    gpu: &mut Gpu,
    data: &DeviceBuffer<K>,
    splitters: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &BatchGeometry,
    config: &ArraySortConfig,
) -> SimResult<BucketingOutcome> {
    assert_eq!(
        data.len(),
        geom.total_elems(),
        "data buffer does not match geometry"
    );
    assert_eq!(
        splitters.len(),
        geom.splitter_table_len(),
        "splitter table mismatch"
    );
    assert_eq!(
        bucket_sizes.len(),
        geom.bucket_table_len(),
        "Z table mismatch"
    );

    let staging = if config.shared_staging && geom.fits_in_shared(K::ELEM_BYTES, gpu.spec()) {
        StagingStrategy::Shared
    } else {
        StagingStrategy::Global
    };

    // Global-staging fallback: charge the ledger for the bounded scratch
    // (resident blocks × n). Blocks use private host scratch for the real
    // permutation either way; this allocation models the device footprint.
    let _global_stage: Option<DeviceBuffer<K>> = match staging {
        StagingStrategy::Shared => None,
        StagingStrategy::Global => {
            let resident = (gpu.spec().sm_count * gpu.spec().max_blocks_per_sm) as usize;
            Some(gpu.alloc(resident.min(geom.num_arrays) * geom.array_len)?)
        }
    };

    let n = geom.array_len;
    let p = geom.buckets_per_array;
    let k = config.threads_per_bucket;
    let threads = geom.block_threads(config, gpu.spec());
    let dv = data.view();
    let sv = splitters.view();
    let zv = bucket_sizes.view();
    let geom = *geom;

    let shared_bytes = match staging {
        StagingStrategy::Shared => geom.shared_bytes_needed(K::ELEM_BYTES),
        StagingStrategy::Global => {
            (geom.boundaries_per_array * K::ELEM_BYTES as usize + p * 4) as u32
        }
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, threads).with_shared(shared_bytes);
    let elem_bytes = K::ELEM_BYTES;
    let log2p = (usize::BITS - p.leading_zeros()) as u64;

    let stats = gpu.launch("gas_phase2_bucketing", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let srow = geom.splitter_offset(i);
        let zrow = geom.bucket_offset(i);
        let t_count = threads as usize;
        // Slots: bucket j is served by k threads (segment s of k).
        let slots = p * k;
        let slots_per_thread = slots.div_ceil(t_count) as u64;

        // ---- Real work, once per block (tid 0 of the count phase): the
        // exact data movement the threads collectively perform. Done up
        // front so per-bucket counts are available for exact charging.
        // SAFETY: this block exclusively owns array i's rows of data/S/Z.
        let bounds = unsafe { sv.slice(srow, geom.boundaries_per_array) };
        let arr = unsafe { dv.slice_mut(base, n) };
        // Classify every element once; the count and the stable partition
        // below both read these bucket indices.
        let buckets: Vec<u32> = arr
            .iter()
            .map(|&x| bucket_index(bounds, x) as u32)
            .collect();
        let mut counts = vec![0u32; p];
        for &j in &buckets {
            counts[j as usize] += 1;
        }
        // Overflow detection (always on, every policy): a bucket beyond
        // the Dehne–Zaboli limit 2·⌈n/p⌉ is an observable event, never a
        // silent slow path. The compare rides the existing count loop, so
        // it costs nothing extra; the recording itself is zero-cycle.
        let limit = overflow_limit(n, p) as u32;
        let overflowed = counts.iter().filter(|&&c| c > limit).count() as u64;
        let mut cursors = vec![0usize; p + 1];
        for j in 0..p {
            cursors[j + 1] = cursors[j] + counts[j] as usize;
            zv.set(zrow + j, counts[j]);
        }
        // Stable partition into scratch (= the staged copy), then the
        // in-place write-back over the original array.
        let mut staged: Vec<K> = vec![K::default(); n];
        for (&x, &j) in arr.iter().zip(&buckets) {
            let c = &mut cursors[j as usize];
            staged[*c] = x;
            *c += 1;
        }
        arr.copy_from_slice(&staged);

        // ---- Cost model: the phases the device executes.
        // Phase L: cooperative load of the boundary row into shared.
        block.uniform(|t| {
            let per = (geom.boundaries_per_array as u64).div_ceil(t_count as u64);
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
            t.charge_shared(per);
        });

        // Phase C (count): every slot's thread scans the whole array (the
        // splitter-pair predicate is bucket-wide); all threads step through
        // the array in lockstep, so reads broadcast.
        let seg = n as u64;
        block.threads(|t| {
            if t.tid == 0 && overflowed > 0 {
                t.record_bucket_overflow(overflowed);
            }
            for s in 0..slots_per_thread {
                let slot = t.tid as u64 + s * t_count as u64;
                if slot >= slots as u64 {
                    break;
                }
                t.charge_global(seg, elem_bytes, AccessPattern::Broadcast);
                t.charge_alu(3 * seg); // two compares + counter bump
                if k > 1 {
                    // Partial counts combined through shared atomics.
                    t.charge_atomic_shared(1);
                    t.charge_divergence(1);
                }
                // One Z store per bucket (slot segment 0 writes it).
                if (slot as usize).is_multiple_of(k) {
                    t.charge_global(1, 4, AccessPattern::Coalesced);
                }
            }
        });

        // Phase P: exclusive prefix of the p counts in shared memory.
        block.uniform(|t| {
            t.charge_shared(2 * log2p);
            t.charge_alu(log2p);
        });

        // Phase S (stage): rescan; matched elements go to the staging area
        // at the bucket's cursor. Shared staging pays a shared write per
        // match; global staging pays a strided global write.
        block.threads(|t| {
            for s in 0..slots_per_thread {
                let slot = t.tid as u64 + s * t_count as u64;
                if slot >= slots as u64 {
                    break;
                }
                let j = (slot as usize) / k;
                t.charge_global(seg, elem_bytes, AccessPattern::Broadcast);
                t.charge_alu(3 * seg);
                let matched = (counts[j] as u64).div_ceil(k as u64);
                match staging {
                    StagingStrategy::Shared => t.charge_shared(matched),
                    StagingStrategy::Global => {
                        t.charge_global(matched, elem_bytes, AccessPattern::Strided(4))
                    }
                }
                if k > 1 {
                    t.charge_atomic_shared(matched);
                }
            }
        });

        // Phase W: cooperative write-back of the staged array over the
        // original global memory — coalesced, and parallel thanks to the
        // counts gathered in Phase C.
        block.uniform(|t| {
            let per = (n as u64).div_ceil(t_count as u64);
            match staging {
                StagingStrategy::Shared => t.charge_shared(per),
                StagingStrategy::Global => {
                    t.charge_global(per, elem_bytes, AccessPattern::Coalesced)
                }
            }
            t.charge_global(per, elem_bytes, AccessPattern::Coalesced);
        });
    })?;

    Ok(BucketingOutcome {
        kernel: stats,
        staging,
    })
}

/// Bucket-size statistics read back from the `Z` table — the load-balance
/// evidence behind the paper's 10 %-sampling claim (ablation B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    /// Smallest bucket across the batch.
    pub min: u32,
    /// Largest bucket across the batch.
    pub max: u32,
    /// Mean bucket size (= n / p).
    pub mean: f64,
    /// Coefficient of variation of bucket sizes.
    pub cv: f64,
    /// `max / mean` — the factor the slowest Phase-3 thread is overloaded
    /// by; 1.0 is perfect balance.
    pub imbalance: f64,
}

support::impl_to_json!(struct BalanceStats { min, max, mean, cv, imbalance });

/// Computes [`BalanceStats`] from the `Z` table.
pub fn bucket_balance(bucket_sizes: &mut DeviceBuffer<u32>, geom: &BatchGeometry) -> BalanceStats {
    let z = bucket_sizes.as_slice();
    assert_eq!(z.len(), geom.bucket_table_len());
    let count = z.len() as f64;
    let mut min = u32::MAX;
    let mut max = 0u32;
    let mut sum = 0f64;
    let mut sumsq = 0f64;
    for &c in z {
        min = min.min(c);
        max = max.max(c);
        sum += c as f64;
        sumsq += (c as f64) * (c as f64);
    }
    let mean = sum / count;
    let var = (sumsq / count - mean * mean).max(0.0);
    BalanceStats {
        min,
        max,
        mean,
        cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitters::select_splitters;
    use gpu_sim::DeviceSpec;
    use support::ChaCha8Rng;

    fn full_phase2(
        num: usize,
        n: usize,
        config: &ArraySortConfig,
        data: Vec<f32>,
    ) -> (Vec<f32>, Vec<u32>, BucketingOutcome, BatchGeometry) {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let geom = BatchGeometry::new(num, n, config);
        let dbuf = gpu.htod_copy(&data).unwrap();
        let sbuf = gpu.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let mut zbuf = gpu.alloc::<u32>(geom.bucket_table_len()).unwrap();
        select_splitters(&mut gpu, &dbuf, &sbuf, &geom).unwrap();
        let outcome = bucket_arrays(&mut gpu, &dbuf, &sbuf, &zbuf, &geom, config).unwrap();
        let mut dbuf = dbuf;
        (dbuf.to_host_vec(), zbuf.to_host_vec(), outcome, geom)
    }

    fn random_data(num: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..num * n).map(|_| rng.gen_range(0.0f32..1e9)).collect()
    }

    #[test]
    fn bucket_index_respects_boundaries() {
        let bounds = [f32::min_sentinel(), 10.0, 20.0, f32::max_sentinel()];
        assert_eq!(bucket_index(&bounds, 5.0), 0);
        assert_eq!(bucket_index(&bounds, 10.0), 1, "left-closed intervals");
        assert_eq!(bucket_index(&bounds, 19.9), 1);
        assert_eq!(bucket_index(&bounds, 20.0), 2);
        assert_eq!(
            bucket_index(&bounds, 1e9),
            2,
            "last bucket is upper-inclusive"
        );
        assert_eq!(
            bucket_index(&bounds, f32::NAN),
            2,
            "NaN lands in the last bucket"
        );
    }

    #[test]
    fn bucket_index_handles_duplicate_splitters() {
        let bounds = [f32::min_sentinel(), 5.0, 5.0, 5.0, f32::max_sentinel()];
        // All 5.0s go to the last pair whose lower bound is 5.0.
        assert_eq!(bucket_index(&bounds, 5.0), 3);
        assert_eq!(bucket_index(&bounds, 4.0), 0);
        assert_eq!(bucket_index(&bounds, 6.0), 3);
    }

    #[test]
    fn buckets_partition_and_preserve_multiset() {
        let cfg = ArraySortConfig::default();
        let num = 30;
        let n = 500;
        let data = random_data(num, n, 11);
        let (out, z, outcome, geom) = full_phase2(num, n, &cfg, data.clone());
        assert_eq!(outcome.staging, StagingStrategy::Shared);
        for i in 0..num {
            // Multiset preserved per array.
            let mut a: Vec<u32> = data[i * n..(i + 1) * n]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let mut b: Vec<u32> = out[i * n..(i + 1) * n]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "array {i} multiset");
            // Z sums to n.
            let zsum: u32 = z
                [geom.bucket_offset(i)..geom.bucket_offset(i) + geom.buckets_per_array]
                .iter()
                .sum();
            assert_eq!(zsum, n as u32, "array {i} bucket sizes sum to n");
        }
    }

    #[test]
    fn buckets_are_ordered_between_themselves() {
        let cfg = ArraySortConfig::default();
        let num = 10;
        let n = 400;
        let data = random_data(num, n, 13);
        let (out, z, _, geom) = full_phase2(num, n, &cfg, data);
        for i in 0..num {
            let zrow = &z[geom.bucket_offset(i)..geom.bucket_offset(i) + geom.buckets_per_array];
            let arr = &out[i * n..(i + 1) * n];
            let mut off = 0usize;
            let mut prev_max: Option<f32> = None;
            for &c in zrow {
                let bucket = &arr[off..off + c as usize];
                if let (Some(pm), Some(bmin)) = (
                    prev_max,
                    bucket
                        .iter()
                        .copied()
                        .reduce(|a, b| if a.lt(b) { a } else { b }),
                ) {
                    assert!(pm.le(bmin), "bucket floors must not precede prior ceilings");
                }
                if let Some(bmax) = bucket
                    .iter()
                    .copied()
                    .reduce(|a, b| if a.lt(b) { b } else { a })
                {
                    prev_max = Some(bmax);
                }
                off += c as usize;
            }
            assert_eq!(off, n);
        }
    }

    #[test]
    fn stable_within_bucket() {
        // Elements of the same bucket must keep array order (each thread
        // scans the array front to back).
        let cfg = ArraySortConfig {
            target_bucket_size: 4,
            ..Default::default()
        };
        let num = 1;
        let n = 16;
        // Two distinct values per bucket region, interleaved.
        let data = vec![
            8.0f32, 1.0, 8.0, 1.0, 9.0, 2.0, 9.0, 2.0, 8.5, 1.5, 8.5, 1.5, 9.5, 2.5, 9.5, 2.5,
        ];
        let (out, _, _, _) = full_phase2(num, n, &cfg, data);
        // All 1.x elements precede all 8.x/9.x elements and each duplicate
        // pair keeps its relative order; verifying full stability needs the
        // positions: equal values are indistinguishable, so check ordering
        // of the distinct low group instead.
        let lows: Vec<f32> = out.iter().copied().filter(|x| *x < 4.0).collect();
        assert_eq!(lows, vec![1.0, 1.0, 2.0, 2.0, 1.5, 1.5, 2.5, 2.5]);
    }

    #[test]
    fn global_staging_used_for_oversized_arrays() {
        let cfg = ArraySortConfig::default();
        let num = 3;
        let n = 20_000; // 80 KB > 48 KB shared
        let data = random_data(num, n, 17);
        let (out, z, outcome, geom) = full_phase2(num, n, &cfg, data.clone());
        assert_eq!(outcome.staging, StagingStrategy::Global);
        let zsum: u32 = z[..geom.buckets_per_array].iter().sum();
        assert_eq!(zsum, n as u32);
        let mut a: Vec<u32> = data[..n].iter().map(|x| x.to_bits()).collect();
        let mut b: Vec<u32> = out[..n].iter().map(|x| x.to_bits()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_thread_per_bucket_is_slower() {
        // The paper's §5.2 observation: k > 1 adds overhead.
        let n = 1000;
        let num = 50;
        let data = random_data(num, n, 19);
        let c1 = ArraySortConfig::default();
        let c4 = ArraySortConfig {
            threads_per_bucket: 4,
            ..Default::default()
        };
        let (_, _, o1, _) = full_phase2(num, n, &c1, data.clone());
        let (_, _, o4, _) = full_phase2(num, n, &c4, data);
        assert!(
            o4.kernel.cycles > o1.kernel.cycles,
            "4 threads/bucket ({}) should cost more than 1 ({})",
            o4.kernel.cycles,
            o1.kernel.cycles
        );
    }

    #[test]
    fn overflow_detection_counts_blown_buckets() {
        // Adversarial input for regular sampling: every sampled position
        // (stride 10) holds the minimum, so the splitters collapse and
        // one bucket swallows ~90 % of the array — which the kernel must
        // record as observable overflow events.
        let cfg = ArraySortConfig::default();
        let n = 1000;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let data: Vec<f32> = (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(1.0f32..1e9)
                }
            })
            .collect();
        let (_, z, outcome, geom) = full_phase2(1, n, &cfg, data);
        let limit = overflow_limit(n, geom.buckets_per_array) as u32;
        let blown = z.iter().filter(|&&c| c > limit).count() as u64;
        assert!(blown >= 1, "collapse input must blow at least one bucket");
        assert_eq!(
            outcome.kernel.counters.bucket_overflows, blown,
            "every blown bucket is counted, none silently"
        );
    }

    #[test]
    fn clean_buckets_record_no_overflow() {
        let cfg = ArraySortConfig::default();
        // Perfectly striped data: every bucket gets exactly n/p elements.
        let n = 400;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let (_, _, outcome, _) = full_phase2(1, n, &cfg, data);
        assert_eq!(outcome.kernel.counters.bucket_overflows, 0);
    }

    #[test]
    fn balance_stats_on_uniform_data_are_tight() {
        let cfg = ArraySortConfig::default();
        let num = 40;
        let n = 1000;
        let data = random_data(num, n, 23);
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let geom = BatchGeometry::new(num, n, &cfg);
        let dbuf = gpu.htod_copy(&data).unwrap();
        let sbuf = gpu.alloc::<f32>(geom.splitter_table_len()).unwrap();
        let mut zbuf = gpu.alloc::<u32>(geom.bucket_table_len()).unwrap();
        select_splitters(&mut gpu, &dbuf, &sbuf, &geom).unwrap();
        bucket_arrays(&mut gpu, &dbuf, &sbuf, &zbuf, &geom, &cfg).unwrap();
        let bal = bucket_balance(&mut zbuf, &geom);
        assert!((bal.mean - 20.0).abs() < 1e-9, "mean bucket = n/p = 20");
        assert!(
            bal.imbalance < 6.0,
            "uniform data with 10% sampling stays balanced, got {}",
            bal.imbalance
        );
        assert!(
            bal.cv < 1.0,
            "coefficient of variation stays moderate, got {}",
            bal.cv
        );
        assert!(bal.min <= 20 && bal.max >= 20);
    }
}
