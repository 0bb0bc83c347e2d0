//! Key–value batch sorting: sort each array of *keys* and carry a
//! payload array through the same permutation.
//!
//! The paper's motivating pipelines need exactly this — a spectrum is a
//! list of (m/z, intensity) peaks, sorted "either with respect to
//! intensities or mass-to-charge ratios" (§1) — and the STA baseline gets
//! it for free from `sort_by_key`. This module extends GPU-ArraySort the
//! natural way: Phase 1 samples keys only; Phase 2 buckets key and value
//! together (double the staging traffic, same comparisons); Phase 3 runs
//! [`insertion_sort_pairs`] per bucket. The footprint stays in-place-plus-
//! tables: data (keys + values) + S + Z.

use gpu_sim::{
    check_batch_shape, AccessPattern, DeviceBuffer, Gpu, KernelStats, LaunchConfig, SimError,
    SimResult,
};

use crate::bucketing::{bucket_index, StagingStrategy};
use crate::config::ArraySortConfig;
use crate::geometry::BatchGeometry;
use crate::insertion::insertion_sort_pairs;
use crate::key::SortKey;
use crate::pipeline::GpuArraySort;
use crate::splitters::{select_splitters, Phase1Strategy};

/// A payload element that rides along with keys.
pub trait PairValue: Copy + Default + Send + Sync + 'static {
    /// Size in bytes, for memory-transaction charging.
    const VAL_BYTES: u32;
}
impl PairValue for f32 {
    const VAL_BYTES: u32 = 4;
}
impl PairValue for u32 {
    const VAL_BYTES: u32 = 4;
}
impl PairValue for i32 {
    const VAL_BYTES: u32 = 4;
}
impl PairValue for u64 {
    const VAL_BYTES: u32 = 8;
}
impl PairValue for (f32, f32) {
    const VAL_BYTES: u32 = 8;
}

/// Timing/footprint report of one [`sort_pairs`] run.
#[derive(Debug, Clone)]
pub struct PairSortStats {
    /// H2D upload of keys + values.
    pub upload_ms: f64,
    /// Phase 1 (splitter selection on keys).
    pub phase1_ms: f64,
    /// Phase 2 (pair bucketing).
    pub phase2_ms: f64,
    /// Phase 3 (per-bucket pair insertion sort).
    pub phase3_ms: f64,
    /// D2H download of keys + values.
    pub download_ms: f64,
    /// Peak device memory over the run.
    pub peak_bytes: u64,
    /// Phase-1 strategy taken.
    pub phase1_strategy: Phase1Strategy,
    /// Phase-2 staging path taken.
    pub staging: StagingStrategy,
}

support::impl_to_json!(struct PairSortStats {
    upload_ms, phase1_ms, phase2_ms, phase3_ms, download_ms, peak_bytes, phase1_strategy,
    staging
});

impl PairSortStats {
    /// Total simulated time, transfers included.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.kernel_ms() + self.download_ms
    }

    /// Kernel time only.
    pub fn kernel_ms(&self) -> f64 {
        self.phase1_ms + self.phase2_ms + self.phase3_ms
    }
}

/// Sorts every length-`array_len` segment of `keys` ascending, permuting
/// `values` identically, end to end on `gpu`.
pub fn sort_pairs<K: SortKey, V: PairValue>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    keys: &mut [K],
    values: &mut [V],
    array_len: usize,
) -> SimResult<PairSortStats> {
    if keys.len() != values.len() {
        return Err(SimError::TransferSizeMismatch {
            src_len: keys.len(),
            dst_len: values.len(),
        });
    }
    let geom = sorter.geometry(check_batch_shape(keys.len(), array_len)?, array_len);
    let config = sorter.config();

    let t0 = gpu.elapsed_ms();
    let kbuf = gpu.htod_copy(keys)?;
    let vbuf = gpu.htod_copy(values)?;
    let upload_ms = gpu.elapsed_ms() - t0;

    let sbuf: DeviceBuffer<K> = gpu.alloc(geom.splitter_table_len())?;
    let zbuf: DeviceBuffer<u32> = gpu.alloc(geom.bucket_table_len())?;

    let t1 = gpu.elapsed_ms();
    let (_, phase1_strategy) = select_splitters(gpu, &kbuf, &sbuf, &geom)?;
    let t2 = gpu.elapsed_ms();
    let staging = bucket_pairs(gpu, &kbuf, &vbuf, &sbuf, &zbuf, &geom, config)?;
    let t3 = gpu.elapsed_ms();
    sort_buckets_pairs(gpu, &kbuf, &vbuf, &zbuf, &geom, config)?;
    let t4 = gpu.elapsed_ms();
    let peak_bytes = gpu.ledger().peak();

    let mut kbuf = kbuf;
    let mut vbuf = vbuf;
    gpu.dtoh_into(&mut kbuf, keys)?;
    gpu.dtoh_into(&mut vbuf, values)?;
    let download_ms = gpu.elapsed_ms() - t4;

    Ok(PairSortStats {
        upload_ms,
        phase1_ms: t2 - t1,
        phase2_ms: t3 - t2,
        phase3_ms: t4 - t3,
        download_ms,
        peak_bytes,
        phase1_strategy,
        staging,
    })
}

/// Phase 2 for pairs: identical traversal/comparison structure to the
/// key-only kernel, with the payload staged and written back alongside.
#[allow(clippy::too_many_arguments)]
fn bucket_pairs<K: SortKey, V: PairValue>(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<K>,
    values: &DeviceBuffer<V>,
    splitters: &DeviceBuffer<K>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &BatchGeometry,
    config: &ArraySortConfig,
) -> SimResult<StagingStrategy> {
    let pair_bytes = K::ELEM_BYTES + V::VAL_BYTES;
    let staging = if config.shared_staging && geom.fits_in_shared(pair_bytes, gpu.spec()) {
        StagingStrategy::Shared
    } else {
        StagingStrategy::Global
    };
    let _global_stage: Option<DeviceBuffer<u8>> = match staging {
        StagingStrategy::Shared => None,
        StagingStrategy::Global => {
            let resident = (gpu.spec().sm_count * gpu.spec().max_blocks_per_sm) as usize;
            Some(gpu.alloc(resident.min(geom.num_arrays) * geom.array_len * pair_bytes as usize)?)
        }
    };

    let n = geom.array_len;
    let p = geom.buckets_per_array;
    let threads = geom.block_threads(config, gpu.spec());
    let kv = keys.view();
    let vv = values.view();
    let sv = splitters.view();
    let zv = bucket_sizes.view();
    let geom = *geom;
    let kb = K::ELEM_BYTES;
    let vb = V::VAL_BYTES;
    let log2p = (usize::BITS - p.leading_zeros()) as u64;

    let shared_bytes = match staging {
        StagingStrategy::Shared => {
            let arr = (n * pair_bytes as usize) as u64;
            let bounds = (geom.boundaries_per_array * kb as usize) as u64;
            (arr + bounds + (p * 4) as u64).min(u32::MAX as u64) as u32
        }
        StagingStrategy::Global => (geom.boundaries_per_array * kb as usize + p * 4) as u32,
    };
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, threads).with_shared(shared_bytes);

    gpu.launch("gas_phase2_bucketing_pairs", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let srow = geom.splitter_offset(i);
        let zrow = geom.bucket_offset(i);
        let t_count = threads as usize;
        let buckets_per_thread = p.div_ceil(t_count) as u64;

        // Real work once per block: stable pair partition + write-back.
        // SAFETY: block-exclusive rows of keys/values/S/Z.
        let bounds = unsafe { sv.slice(srow, geom.boundaries_per_array) };
        let arr_k = unsafe { kv.slice_mut(base, n) };
        let arr_v = unsafe { vv.slice_mut(base, n) };
        let mut counts = vec![0u32; p];
        for &x in arr_k.iter() {
            counts[bucket_index(bounds, x)] += 1;
        }
        let mut offsets = vec![0usize; p + 1];
        for j in 0..p {
            offsets[j + 1] = offsets[j] + counts[j] as usize;
            zv.set(zrow + j, counts[j]);
        }
        let mut staged_k: Vec<K> = vec![K::default(); n];
        let mut staged_v: Vec<V> = vec![V::default(); n];
        let mut cursors = offsets.clone();
        for (&x, &y) in arr_k.iter().zip(arr_v.iter()) {
            let j = bucket_index(bounds, x);
            staged_k[cursors[j]] = x;
            staged_v[cursors[j]] = y;
            cursors[j] += 1;
        }
        arr_k.copy_from_slice(&staged_k);
        arr_v.copy_from_slice(&staged_v);

        // Cost phases mirror the key-only kernel, plus value traffic.
        block.threads(|t| {
            let per = (geom.boundaries_per_array as u64).div_ceil(t_count as u64);
            t.charge_global(per, kb, AccessPattern::Coalesced);
            t.charge_shared(per);
        });
        let seg = n as u64;
        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = t.tid as u64 + s * t_count as u64;
                if j >= p as u64 {
                    break;
                }
                t.charge_global(seg, kb, AccessPattern::Broadcast);
                t.charge_alu(3 * seg);
                t.charge_global(1, 4, AccessPattern::Coalesced); // Z store
            }
        });
        block.threads(|t| {
            t.charge_shared(2 * log2p);
            t.charge_alu(log2p);
        });
        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = (t.tid as u64 + s * t_count as u64) as usize;
                if j >= p {
                    break;
                }
                // Re-scan keys; matched pairs (key + value) go to staging.
                t.charge_global(seg, kb, AccessPattern::Broadcast);
                t.charge_alu(3 * seg);
                let matched = counts[j] as u64;
                // The value of a match must also be fetched (broadcast does
                // not help: each match is a different index per thread).
                t.charge_global(matched, vb, AccessPattern::Scattered);
                match staging {
                    StagingStrategy::Shared => t.charge_shared(2 * matched),
                    StagingStrategy::Global => {
                        t.charge_global(matched, kb, AccessPattern::Strided(4));
                        t.charge_global(matched, vb, AccessPattern::Strided(4));
                    }
                }
            }
        });
        block.threads(|t| {
            let per = (n as u64).div_ceil(t_count as u64);
            match staging {
                StagingStrategy::Shared => t.charge_shared(2 * per),
                StagingStrategy::Global => {
                    t.charge_global(per, kb, AccessPattern::Coalesced);
                    t.charge_global(per, vb, AccessPattern::Coalesced);
                }
            }
            t.charge_global(per, kb, AccessPattern::Coalesced);
            t.charge_global(per, vb, AccessPattern::Coalesced);
        });
    })?;
    Ok(staging)
}

/// Phase 3 for pairs: per-bucket [`insertion_sort_pairs`], values riding
/// along through shared memory.
fn sort_buckets_pairs<K: SortKey, V: PairValue>(
    gpu: &mut Gpu,
    keys: &DeviceBuffer<K>,
    values: &DeviceBuffer<V>,
    bucket_sizes: &DeviceBuffer<u32>,
    geom: &BatchGeometry,
    config: &ArraySortConfig,
) -> SimResult<KernelStats> {
    let n = geom.array_len;
    let p = geom.buckets_per_array;
    let threads = geom.block_threads(config, gpu.spec());
    let kvw = keys.view();
    let vvw = values.view();
    let zv = bucket_sizes.view();
    let geom = *geom;
    let kb = K::ELEM_BYTES;
    let vb = V::VAL_BYTES;

    let shared_want = (n * (kb + vb) as usize).min(gpu.spec().shared_mem_per_block as usize) as u32;
    let cfg = LaunchConfig::grid(geom.num_arrays as u32, threads).with_shared(shared_want);

    gpu.launch("gas_phase3_bucket_sort_pairs", cfg, move |block| {
        let i = block.block_idx() as usize;
        let base = i * n;
        let zrow = geom.bucket_offset(i);
        let t_count = threads as usize;
        let buckets_per_thread = p.div_ceil(t_count);

        let mut offsets = vec![0usize; p + 1];
        for j in 0..p {
            offsets[j + 1] = offsets[j] + zv.get(zrow + j) as usize;
        }

        block.threads(|t| {
            for s in 0..buckets_per_thread {
                let j = t.tid as usize + s * t_count;
                if j >= p {
                    break;
                }
                let start = offsets[j];
                let len = offsets[j + 1] - offsets[j];
                t.charge_global(1, 4, AccessPattern::Coalesced);
                t.charge_alu(4);
                if len < 2 {
                    continue;
                }
                t.charge_global(len as u64, kb, AccessPattern::Scattered);
                t.charge_global(len as u64, vb, AccessPattern::Scattered);
                t.charge_shared(2 * len as u64);
                // SAFETY: disjoint bucket ranges, unique (block, thread) owner.
                let bk = unsafe { kvw.slice_mut(base + start, len) };
                let bv = unsafe { vvw.slice_mut(base + start, len) };
                let work = insertion_sort_pairs(bk, bv);
                // Each comparison touches keys; each move shifts key+value.
                t.charge_shared(2 * work.comparisons + 2 * work.moves);
                t.charge_alu(work.comparisons);
                t.charge_shared(2 * len as u64);
                t.charge_global(len as u64, kb, AccessPattern::Scattered);
                t.charge_global(len as u64, vb, AccessPattern::Scattered);
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use support::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    fn cpu_pair_sort(keys: &mut [f32], vals: &mut [u32], n: usize) {
        for (ks, vs) in keys.chunks_mut(n).zip(vals.chunks_mut(n)) {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| ks[a].total_cmp(&ks[b]).then(a.cmp(&b)));
            let k2: Vec<f32> = idx.iter().map(|&i| ks[i]).collect();
            let v2: Vec<u32> = idx.iter().map(|&i| vs[i]).collect();
            ks.copy_from_slice(&k2);
            vs.copy_from_slice(&v2);
        }
    }

    #[test]
    fn pairs_sort_matches_cpu_stable_order() {
        let mut g = gpu();
        let (num, n) = (60, 300);
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let mut keys: Vec<f32> = (0..num * n)
            .map(|_| rng.gen_range(0.0f32..1000.0).floor())
            .collect();
        let mut vals: Vec<u32> = (0..(num * n) as u32).collect();
        let mut ck = keys.clone();
        let mut cv = vals.clone();
        let stats = sort_pairs(&GpuArraySort::new(), &mut g, &mut keys, &mut vals, n).unwrap();
        cpu_pair_sort(&mut ck, &mut cv, n);
        assert_eq!(keys, ck);
        // Keys with duplicates: our pipeline is stable (phase 2 preserves
        // order within buckets, insertion sort is stable) so values match
        // the stable CPU permutation exactly.
        assert_eq!(vals, cv);
        assert!(stats.kernel_ms() > 0.0);
        assert_eq!(stats.staging, StagingStrategy::Shared);
    }

    #[test]
    fn spectra_shaped_payload_f32() {
        // Sort intensities carrying m/z — the §1 use case.
        let mut g = gpu();
        let (num, n) = (20, 500);
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let mut intensity: Vec<f32> = (0..num * n).map(|_| rng.gen_range(0.0f32..1e5)).collect();
        let mz: Vec<f32> = intensity.iter().map(|x| x * 2.0 + 1.0).collect();
        let mut mz_sorted = mz.clone();
        sort_pairs(
            &GpuArraySort::new(),
            &mut g,
            &mut intensity,
            &mut mz_sorted,
            n,
        )
        .unwrap();
        // The payload must still equal 2·key + 1 pointwise after the sort.
        for (k, v) in intensity.iter().zip(&mz_sorted) {
            assert_eq!(*v, *k * 2.0 + 1.0, "pair binding broken");
        }
        for seg in intensity.chunks(n) {
            assert!(seg.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn pair_memory_stays_near_in_place() {
        let mut g = gpu();
        let (num, n) = (200, 1000);
        let mut keys = vec![1.0f32; num * n];
        let mut vals = vec![0u32; num * n];
        let stats = sort_pairs(&GpuArraySort::new(), &mut g, &mut keys, &mut vals, n).unwrap();
        let data_bytes = (num * n * 8) as u64; // keys + values
        let overhead = stats.peak_bytes as f64 / data_bytes as f64;
        assert!(
            (1.0..1.2).contains(&overhead),
            "pairs stay in place: {overhead}×"
        );
    }

    #[test]
    fn pair_shape_errors() {
        let mut g = gpu();
        let mut k = vec![1.0f32; 10];
        let mut v = vec![0u32; 9];
        assert!(sort_pairs(&GpuArraySort::new(), &mut g, &mut k, &mut v, 5).is_err());
        let mut v = vec![0u32; 10];
        assert!(sort_pairs(&GpuArraySort::new(), &mut g, &mut k, &mut v, 3).is_err());
        assert!(sort_pairs(&GpuArraySort::new(), &mut g, &mut k, &mut v, 0).is_err());
    }

    #[test]
    fn wide_payload_spills_to_global_staging_sooner() {
        // (f32,f32) payload: pair = 12 B/elem, so shared staging fits only
        // up to ~4000 elements instead of ~12000.
        let mut g = gpu();
        let n = 6000; // 72 KB of pair data > 48 KB shared
        let mut keys: Vec<f32> = (0..n).rev().map(|x| x as f32).collect();
        let mut vals: Vec<(f32, f32)> = (0..n).map(|x| (x as f32, 0.5)).collect();
        let stats = sort_pairs(&GpuArraySort::new(), &mut g, &mut keys, &mut vals, n).unwrap();
        assert_eq!(stats.staging, StagingStrategy::Global);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            vals.windows(2).all(|w| w[0].0 >= w[1].0),
            "payload followed the reversal"
        );
    }

    #[test]
    fn pairs_cost_more_than_keys_alone() {
        let (num, n) = (100, 1000);
        let keys: Vec<f32> = (0..num * n).map(|x| (x * 7919 % 10007) as f32).collect();

        let mut g = gpu();
        let mut k1 = keys.clone();
        let key_stats = GpuArraySort::new().sort(&mut g, &mut k1, n).unwrap();

        let mut g = gpu();
        let mut k2 = keys;
        let mut v2 = vec![0u32; num * n];
        let pair_stats = sort_pairs(&GpuArraySort::new(), &mut g, &mut k2, &mut v2, n).unwrap();
        assert!(
            pair_stats.kernel_ms() > key_stats.kernel_ms(),
            "value traffic must cost: {} vs {}",
            pair_stats.kernel_ms(),
            key_stats.kernel_ms()
        );
    }
}
