//! STA — "Sorting using Tagged Approach", the paper's baseline (§7.1).
//!
//! The make-shift way to sort N arrays with a 1-D sorting library: tag every
//! element with its array index, flatten, then exploit the *stability* of
//! `stable_sort_by_key`:
//!
//! 1. build the tag array (`tags[i] = i / n`) on the device;
//! 2. stable-sort the **values**, carrying tags (paper's step III/IV);
//! 3. stable-sort by **tag**, carrying values — stability keeps each
//!    array's values in ascending order, so the segments come back sorted
//!    and in their original positions (paper's step V).
//!
//! The cost the paper charges this baseline is reproduced structurally: two
//! full radix sorts over all N·n elements, a tag array as large as the
//! data, and the radix sort's O(N) double buffers — the "about 3× more
//! memory" of §7.1 — all of it allocated on the device ledger so capacity
//! experiments (Table 1) hit the same wall the authors did.

use gpu_sim::{
    check_batch_shape, AccessPattern, DeviceBuffer, DeviceSpec, Gpu, LaunchConfig, SimResult,
};

use crate::radix::{stable_sort_by_key, RADIX_TILE};

/// Threads per tagging block.
const TAG_THREADS: u32 = 256;

/// Byte-level memory plan for an STA run — what must fit on the device at
/// peak (during either radix sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaMemoryPlan {
    /// The values being sorted: N·n·4 bytes.
    pub values_bytes: u64,
    /// The tag array: N·n·4 bytes (u32 tags).
    pub tags_bytes: u64,
    /// Radix double buffers (alternate values + alternate tags).
    pub alt_bytes: u64,
    /// Digit histogram + scan temporaries.
    pub hist_bytes: u64,
}

support::impl_to_json!(struct StaMemoryPlan { values_bytes, tags_bytes, alt_bytes, hist_bytes });

impl StaMemoryPlan {
    /// Builds the plan for `num_arrays` arrays of `array_len` f32 elements.
    pub fn new(num_arrays: u64, array_len: u64) -> Self {
        let elems = num_arrays * array_len;
        let values_bytes = elems * 4;
        let tags_bytes = elems * 4;
        let alt_bytes = values_bytes + tags_bytes;
        let tiles = elems.div_ceil(RADIX_TILE as u64);
        // hist itself plus the first-level scan sums buffer.
        let hist = 256 * tiles * 4;
        let hist_bytes = hist + (256 * tiles).div_ceil(crate::scan::SCAN_TILE as u64) * 4;
        Self {
            values_bytes,
            tags_bytes,
            alt_bytes,
            hist_bytes,
        }
    }

    /// Total peak bytes.
    pub fn total_bytes(&self) -> u64 {
        self.values_bytes + self.tags_bytes + self.alt_bytes + self.hist_bytes
    }

    /// Memory multiplier relative to the raw data (the paper's "about 3
    /// times more memory than may actually be required" — with the radix
    /// double buffers counted it is ≈ 4× the data, i.e. 3× *extra*).
    pub fn overhead_factor(&self) -> f64 {
        self.total_bytes() as f64 / self.values_bytes as f64
    }
}

/// Largest N (number of arrays of `array_len` floats) whose STA memory plan
/// fits on `spec` — one row of the paper's Table 1.
pub fn max_arrays(spec: &DeviceSpec, array_len: u64) -> u64 {
    let usable = spec.usable_mem_bytes();
    // The plan is monotone in N; binary search the boundary.
    let mut lo = 0u64;
    let mut hi = usable / (array_len * 4) + 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if StaMemoryPlan::new(mid, array_len).total_bytes() <= usable {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Timing breakdown of one STA run (simulated milliseconds).
#[derive(Debug, Clone)]
pub struct StaStats {
    /// H2D upload of the values.
    pub upload_ms: f64,
    /// Tag-array construction kernel.
    pub tagging_ms: f64,
    /// First stable sort (values as keys, tags as payload).
    pub sort_by_value_ms: f64,
    /// Second stable sort (tags as keys, values as payload).
    pub sort_by_tag_ms: f64,
    /// D2H download of the sorted values.
    pub download_ms: f64,
    /// Peak device memory over the run.
    pub peak_bytes: u64,
}

support::impl_to_json!(struct StaStats {
    upload_ms, tagging_ms, sort_by_value_ms, sort_by_tag_ms, download_ms, peak_bytes
});

impl StaStats {
    /// Total simulated time.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms
            + self.tagging_ms
            + self.sort_by_value_ms
            + self.sort_by_tag_ms
            + self.download_ms
    }

    /// Device-side time only (no PCIe).
    pub fn kernel_ms(&self) -> f64 {
        self.tagging_ms + self.sort_by_value_ms + self.sort_by_tag_ms
    }
}

/// Sorts every length-`array_len` segment of `data` ascending, in place
/// (host-visible result), using the STA baseline on `gpu`.
pub fn sort_arrays(gpu: &mut Gpu, data: &mut [f32], array_len: usize) -> SimResult<StaStats> {
    check_batch_shape(data.len(), array_len)?;
    let peak_before = gpu.ledger().peak();
    let t0 = gpu.elapsed_ms();

    // Step I–II: upload the flattened values and build the tag array.
    let span = gpu.begin_span("sta/upload");
    let mut values = gpu.htod_copy(data)?;
    gpu.end_span(span);
    let t_upload = gpu.elapsed_ms();

    let span = gpu.begin_span("sta/tagging");
    let mut tags: DeviceBuffer<u32> = gpu.alloc(data.len())?;
    tagging_kernel(gpu, &tags, data.len(), array_len)?;
    gpu.end_span(span);
    let t_tag = gpu.elapsed_ms();

    // Step III/IV: stable sort values (tags ride along)…
    let span = gpu.begin_span("sta/sort-by-value");
    stable_sort_by_key(gpu, &mut values, &mut tags)?;
    gpu.end_span(span);
    let t_sort1 = gpu.elapsed_ms();

    // Step V: …then stable sort by tag (values ride along); stability
    // restores array order with each segment internally sorted.
    let span = gpu.begin_span("sta/sort-by-tag");
    stable_sort_by_key(gpu, &mut tags, &mut values)?;
    gpu.end_span(span);
    let t_sort2 = gpu.elapsed_ms();

    let span = gpu.begin_span("sta/download");
    gpu.dtoh_into(&mut values, data)?;
    gpu.end_span(span);
    let t_down = gpu.elapsed_ms();

    Ok(StaStats {
        upload_ms: t_upload - t0,
        tagging_ms: t_tag - t_upload,
        sort_by_value_ms: t_sort1 - t_tag,
        sort_by_tag_ms: t_sort2 - t_sort1,
        download_ms: t_down - t_sort2,
        peak_bytes: gpu.ledger().peak().max(peak_before),
    })
}

/// Builds `tags[i] = i / array_len` on the device.
fn tagging_kernel(
    gpu: &mut Gpu,
    tags: &DeviceBuffer<u32>,
    len: usize,
    array_len: usize,
) -> SimResult<()> {
    let view = tags.view();
    let tile = TAG_THREADS as usize * 16;
    let blocks = len.div_ceil(tile) as u32;
    gpu.launch(
        "sta_tagging",
        LaunchConfig::grid(blocks, TAG_THREADS),
        |block| {
            let start = block.block_idx() as usize * tile;
            let tlen = tile.min(len - start);
            let per_thread = (tlen as u64).div_ceil(TAG_THREADS as u64);
            // SAFETY: block-exclusive range of the tag buffer.
            let out = unsafe { view.slice_mut(start, tlen) };
            for (off, v) in out.iter_mut().enumerate() {
                *v = ((start + off) / array_len) as u32;
            }
            block.uniform(|t| {
                // One integer divide + coalesced store per element.
                t.charge_alu(20 * per_thread);
                t.charge_global(per_thread, 4, AccessPattern::Coalesced);
            });
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use support::ChaCha8Rng;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    #[test]
    fn sorts_each_segment_independently() {
        let mut g = gpu();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 64;
        let num = 50;
        let mut data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let mut expect = data.clone();
        let stats = sort_arrays(&mut g, &mut data, n).unwrap();
        for seg in expect.chunks_mut(n) {
            seg.sort_by(f32::total_cmp);
        }
        assert_eq!(data, expect);
        assert!(stats.total_ms() > 0.0);
        assert!(stats.sort_by_value_ms > 0.0 && stats.sort_by_tag_ms > 0.0);
    }

    #[test]
    fn malformed_shapes_are_errors_not_panics() {
        let mut g = gpu();
        for (len, array_len) in [(5, 0), (5, 2), (0, 2)] {
            let mut data = vec![1.0f32; len];
            let err = sort_arrays(&mut g, &mut data, array_len).unwrap_err();
            assert!(
                matches!(err, gpu_sim::SimError::InvalidLaunch { .. }),
                "array_len {array_len}: {err}"
            );
        }
        assert_eq!(g.elapsed_ms(), 0.0, "nothing reached the device");
    }

    #[test]
    fn single_array_degenerates_to_plain_sort() {
        let mut g = gpu();
        let mut data = vec![5.0f32, -1.0, 3.0, 2.0];
        sort_arrays(&mut g, &mut data, 4).unwrap();
        assert_eq!(data, vec![-1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn many_tiny_arrays() {
        let mut g = gpu();
        let mut data = vec![2.0f32, 1.0, 9.0, 3.0, 0.5, 0.1];
        sort_arrays(&mut g, &mut data, 2).unwrap();
        assert_eq!(data, vec![1.0, 2.0, 3.0, 9.0, 0.1, 0.5]);
    }

    #[test]
    fn negative_values_sort_correctly() {
        let mut g = gpu();
        let mut data = vec![-1.0f32, -5.0, 2.0, -0.0, 0.0, -2.5];
        sort_arrays(&mut g, &mut data, 3).unwrap();
        assert_eq!(data, vec![-5.0, -1.0, 2.0, -2.5, -0.0, 0.0]);
    }

    #[test]
    fn memory_plan_shows_4x_overhead() {
        let plan = StaMemoryPlan::new(1000, 1000);
        let f = plan.overhead_factor();
        assert!(
            (3.9..4.3).contains(&f),
            "overhead factor {f} should be ≈4× data"
        );
    }

    #[test]
    fn peak_memory_matches_plan_scale() {
        let mut g = gpu();
        let n = 256;
        let num = 400;
        let mut data: Vec<f32> = (0..n * num).map(|i| i as f32).collect();
        let stats = sort_arrays(&mut g, &mut data, n).unwrap();
        let plan = StaMemoryPlan::new(num as u64, n as u64);
        let ratio = stats.peak_bytes as f64 / plan.total_bytes() as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "measured peak {} vs planned {} (ratio {ratio})",
            stats.peak_bytes,
            plan.total_bytes()
        );
    }

    #[test]
    fn max_arrays_reproduces_table1_row_shape() {
        // Paper Table 1 on the K40c: STA handles ~0.7M arrays of 1000.
        let spec = DeviceSpec::tesla_k40c();
        let m = max_arrays(&spec, 1000);
        assert!(
            (500_000..900_000).contains(&m),
            "K40c STA capacity for n=1000 should be ≈0.7M, got {m}"
        );
        // Monotone in array size.
        assert!(max_arrays(&spec, 2000) < m);
        assert!(max_arrays(&spec, 4000) < max_arrays(&spec, 2000));
    }

    #[test]
    fn oom_beyond_capacity() {
        let mut g = Gpu::new(DeviceSpec::test_device()); // 60 MiB usable
        let n = 1000usize;
        let num = 4_000usize; // 16 MB data → ~64 MB plan: over budget
        let mut data = vec![0.0f32; n * num];
        let err = sort_arrays(&mut g, &mut data, n).unwrap_err();
        assert!(matches!(err, gpu_sim::SimError::OutOfMemory { .. }));
    }

    #[test]
    fn run_emits_phase_spans_covering_elapsed() {
        let mut g = gpu();
        let mut data = vec![3.0f32; 64 * 100];
        sort_arrays(&mut g, &mut data, 64).unwrap();
        let spans = &g.timeline().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sta/upload",
                "sta/tagging",
                "sta/sort-by-value",
                "sta/sort-by-tag",
                "sta/download"
            ]
        );
        let total: f64 = spans.iter().map(|s| s.duration_ms()).sum();
        assert!((total - g.elapsed_ms()).abs() < 1e-6);
    }

    #[test]
    fn timing_scales_with_data() {
        let mut g = gpu();
        let mut small = vec![1.0f32; 64 * 100];
        let s1 = sort_arrays(&mut g, &mut small, 64).unwrap();
        let mut large = vec![1.0f32; 64 * 1000];
        let s2 = sort_arrays(&mut g, &mut large, 64).unwrap();
        assert!(s2.kernel_ms() > s1.kernel_ms());
    }
}
