//! Out-of-core batch sorting — the paper's §9 future work, implemented.
//!
//! When the dataset exceeds device memory, the batch is split into chunks
//! that fit *twice* on the device (double buffering), each chunk is sorted
//! with the normal three-phase pipeline, and the transfer latency is
//! hidden by overlapping chunk `i`'s kernels with chunk `i+1`'s upload and
//! chunk `i−1`'s download — "a carefully designed algorithm which hides
//! data transfer latencies" (§9).
//!
//! The simulator's clock is inherently serial (one stream), so the run
//! reports both views: `serial_ms` (what the naive one-stream schedule
//! costs, as charged to the GPU clock) and `pipelined_ms` (the
//! double-buffered schedule computed from the same per-chunk
//! measurements: `upload₀ + Σᵢ max(kernelᵢ, uploadᵢ₊₁, downloadᵢ₋₁) +
//! download_last`).

use gpu_sim::{check_batch_shape, Gpu, SimError, SimResult};

use crate::geometry::GasMemoryPlan;
use crate::key::SortKey;
use crate::pipeline::{GasStats, GpuArraySort};

/// Per-chunk timing of an out-of-core run.
#[derive(Debug, Clone)]
pub struct ChunkStats {
    /// Arrays in this chunk.
    pub num_arrays: usize,
    /// H2D time.
    pub upload_ms: f64,
    /// Three-phase kernel time.
    pub kernel_ms: f64,
    /// D2H time.
    pub download_ms: f64,
}

support::impl_to_json!(struct ChunkStats { num_arrays, upload_ms, kernel_ms, download_ms });

/// Result of an out-of-core sort.
#[derive(Debug, Clone)]
pub struct OocStats {
    /// Chunks the batch was split into.
    pub chunks: Vec<ChunkStats>,
    /// Arrays per full chunk.
    pub chunk_arrays: usize,
    /// Serial single-stream time (transfers never overlap kernels).
    pub serial_ms: f64,
    /// Double-buffered schedule time (transfers overlap kernels).
    pub pipelined_ms: f64,
}

support::impl_to_json!(struct OocStats { chunks, chunk_arrays, serial_ms, pipelined_ms });

impl OocStats {
    /// Fraction of the serial time the overlap saves.
    pub fn overlap_saving(&self) -> f64 {
        if self.serial_ms > 0.0 {
            1.0 - self.pipelined_ms / self.serial_ms
        } else {
            0.0
        }
    }
}

/// Sorts a batch of any size, chunking so that two chunks (plus the
/// auxiliary tables) fit on the device at once. `data` is fully sorted on
/// return regardless of device capacity.
pub fn sort_out_of_core<K: SortKey>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
) -> SimResult<OocStats> {
    for_each_chunk(sorter, gpu, data, array_len, |gpu, chunk, _, label| {
        let span = gpu.begin_span(label);
        let stats = sorter.sort(gpu, chunk, array_len)?;
        gpu.end_span(span);
        Ok(Some(stats))
    })
}

/// The chunk loop of [`sort_out_of_core`] and
/// [`crate::recovery::sort_out_of_core_recovering`]: sizes chunks with
/// [`max_chunk_arrays`] and hands each to `sort_chunk` with its index and
/// its `ooc/chunk-{i}` span label. A chunk that reports no stats was
/// sorted off the device and adds zeroed timings.
pub(crate) fn for_each_chunk<K: SortKey>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
    mut sort_chunk: impl FnMut(&mut Gpu, &mut [K], usize, &str) -> SimResult<Option<GasStats>>,
) -> SimResult<OocStats> {
    check_batch_shape(data.len(), array_len)?;
    let chunk_arrays = max_chunk_arrays(sorter, gpu, array_len)?;

    let mut chunks = Vec::new();
    for (i, chunk) in data.chunks_mut(chunk_arrays * array_len).enumerate() {
        let stats = sort_chunk(gpu, chunk, i, &format!("ooc/chunk-{i}"))?;
        let (upload_ms, kernel_ms, download_ms) = stats.map_or((0.0, 0.0, 0.0), |s| {
            (s.upload_ms, s.kernel_ms(), s.download_ms)
        });
        chunks.push(ChunkStats {
            num_arrays: chunk.len() / array_len,
            upload_ms,
            kernel_ms,
            download_ms,
        });
    }

    let serial_ms = chunks
        .iter()
        .map(|c| c.upload_ms + c.kernel_ms + c.download_ms)
        .sum();
    let pipelined_ms = pipelined_schedule(&chunks);
    Ok(OocStats {
        chunks,
        chunk_arrays,
        serial_ms,
        pipelined_ms,
    })
}

/// Result of a [`sort_out_of_core_streamed`] run: measured on the
/// simulator's stream scheduler instead of the analytic formula.
#[derive(Debug, Clone)]
pub struct StreamedOocStats {
    /// Chunks processed.
    pub chunks: usize,
    /// Arrays per full chunk.
    pub chunk_arrays: usize,
    /// Wall time measured by issuing the whole pipeline on two CUDA-style
    /// streams and synchronizing.
    pub streamed_ms: f64,
    /// Peak device bytes (both chunk slots resident).
    pub peak_bytes: u64,
}

support::impl_to_json!(struct StreamedOocStats { chunks, chunk_arrays, streamed_ms, peak_bytes });

/// Out-of-core sort on **two real streams** (the §9 design, executed):
/// chunk `i` runs on stream `i % 2`, so its kernels overlap chunk
/// `i+1`'s upload and chunk `i−1`'s download on the device's independent
/// engines. Two persistent chunk slots double-buffer the device memory.
///
/// The serial [`sort_out_of_core`] reports an *analytic* pipelined time;
/// this function measures the schedule on [`gpu_sim`]'s engine model —
/// the two agree within the engine model's extra fidelity (uploads of
/// different chunks contend on the single H2D engine, which the analytic
/// bound ignores).
pub fn sort_out_of_core_streamed<K: SortKey>(
    sorter: &GpuArraySort,
    gpu: &mut Gpu,
    data: &mut [K],
    array_len: usize,
) -> SimResult<StreamedOocStats> {
    check_batch_shape(data.len(), array_len)?;
    let chunk_arrays = max_chunk_arrays(sorter, gpu, array_len)?;
    let chunk_elems = chunk_arrays * array_len;

    let streams = [gpu.create_stream(), gpu.create_stream()];
    // Two persistent slots; the last (possibly short) chunk reallocates.
    let mut slots: [Option<gpu_sim::DeviceBuffer<K>>; 2] = [None, None];

    let t0 = gpu.synchronize();
    let num_chunks = data.chunks(chunk_elems).count();
    for (i, chunk) in data.chunks_mut(chunk_elems).enumerate() {
        let slot = i % 2;
        gpu.set_stream(Some(streams[slot]));
        let span = gpu.begin_span(&format!("ooc/chunk-{i}"));
        let need_realloc = match &slots[slot] {
            Some(buf) => buf.len() != chunk.len(),
            None => true,
        };
        if need_realloc {
            slots[slot] = None; // release before re-reserving
            slots[slot] = Some(gpu.alloc(chunk.len())?);
        }
        let buf = slots[slot].as_mut().expect("slot just filled");
        gpu.htod_into(chunk, buf)?;
        let geom = sorter.geometry(chunk.len() / array_len, array_len);
        let buf = slots[slot].as_ref().expect("slot filled");
        sorter.sort_device(gpu, buf, &geom)?;
        let buf = slots[slot].as_mut().expect("slot filled");
        gpu.dtoh_into(buf, chunk)?;
        gpu.end_span(span);
    }
    let peak_bytes = gpu.ledger().peak();
    gpu.set_stream(None);
    let streamed_ms = gpu.synchronize() - t0;

    Ok(StreamedOocStats {
        chunks: num_chunks,
        chunk_arrays,
        streamed_ms,
        peak_bytes,
    })
}

/// Largest number of arrays per chunk such that two chunks' memory plans
/// fit on the device simultaneously (double buffering).
pub fn max_chunk_arrays(sorter: &GpuArraySort, gpu: &Gpu, array_len: usize) -> SimResult<usize> {
    let usable = gpu.spec().usable_mem_bytes();
    let mut lo = 0usize;
    let mut hi = (usable / (array_len as u64 * 4)) as usize + 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let plan = GasMemoryPlan::new(&sorter.geometry(mid, array_len), 4, gpu.spec());
        if 2 * plan.total_bytes() <= usable {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    if lo == 0 {
        return Err(SimError::OutOfMemory {
            requested: 2 * GasMemoryPlan::new(&sorter.geometry(1, array_len), 4, gpu.spec())
                .total_bytes(),
            available: usable,
        });
    }
    Ok(lo)
}

/// The classic double-buffered schedule: chunk i's kernel runs while
/// chunk i+1 uploads and chunk i−1 downloads (duplex PCIe assumed, as on
/// the paper's Tesla-class hardware).
fn pipelined_schedule(chunks: &[ChunkStats]) -> f64 {
    if chunks.is_empty() {
        return 0.0;
    }
    let mut total = chunks[0].upload_ms;
    for i in 0..chunks.len() {
        let next_upload = chunks.get(i + 1).map_or(0.0, |c| c.upload_ms);
        let prev_download = if i == 0 {
            0.0
        } else {
            chunks[i - 1].download_ms
        };
        total += chunks[i].kernel_ms.max(next_upload).max(prev_download);
    }
    total += chunks.last().unwrap().download_ms;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorter::{Sorter, Variant};
    use gpu_sim::DeviceSpec;
    use support::ChaCha8Rng;

    fn small_gpu() -> Gpu {
        Gpu::new(DeviceSpec::test_device()) // 60 MiB usable
    }

    #[test]
    fn dataset_larger_than_device_sorts_correctly() {
        let mut g = small_gpu();
        let n = 1000;
        let num = 30_000; // 120 MB of data on a 60 MiB device
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let sorter = GpuArraySort::new();
        let stats = sort_out_of_core(&sorter, &mut g, &mut data, n).unwrap();
        assert!(
            stats.chunks.len() >= 5,
            "must have chunked: {} chunks",
            stats.chunks.len()
        );
        assert!(crate::cpu_ref::is_each_sorted(&data, n));
        // Every chunk fit the device: peak stayed under capacity.
        assert!(g.ledger().peak() <= g.ledger().capacity());
    }

    #[test]
    fn overlap_saves_time() {
        let mut g = small_gpu();
        let n = 500;
        let num = 40_000;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let stats = sort_out_of_core(&GpuArraySort::new(), &mut g, &mut data, n).unwrap();
        assert!(stats.pipelined_ms < stats.serial_ms);
        assert!(stats.overlap_saving() > 0.0 && stats.overlap_saving() < 1.0);
    }

    #[test]
    fn fused_out_of_core_sorts_and_is_faster() {
        let n = 1000;
        let num = 30_000; // 120 MB on a 60 MiB device
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();

        let mut paper_data = data.clone();
        let mut g = small_gpu();
        let paper = sort_out_of_core(&GpuArraySort::new(), &mut g, &mut paper_data, n).unwrap();

        // The fused path's device footprint is a strict subset of the
        // three-kernel plan, so the same double-buffered chunks fit it.
        let mut fused_data = data;
        let mut g = small_gpu();
        let fused = Sorter::new(Variant::Fused, Default::default()).unwrap();
        let chunk_elems = max_chunk_arrays(&GpuArraySort::new(), &g, n).unwrap() * n;
        let mut fused_chunks = 0;
        let mut fused_serial_ms = 0.0;
        for chunk in fused_data.chunks_mut(chunk_elems) {
            fused_serial_ms += fused.sort(&mut g, chunk, n).unwrap().total_ms();
            fused_chunks += 1;
        }

        assert_eq!(paper_data, fused_data, "same sorted output");
        assert_eq!(fused_chunks, paper.chunks.len(), "same chunking");
        assert!(
            fused_serial_ms < paper.serial_ms,
            "fused chunks must be cheaper: {} vs {}",
            fused_serial_ms,
            paper.serial_ms
        );
    }

    #[test]
    fn in_core_dataset_uses_one_chunk() {
        let mut g = small_gpu();
        let n = 100;
        let num = 50;
        let mut data: Vec<f32> = (0..n * num).map(|i| (n * num - i) as f32).collect();
        let stats = sort_out_of_core(&GpuArraySort::new(), &mut g, &mut data, n).unwrap();
        assert_eq!(stats.chunks.len(), 1);
        assert!(crate::cpu_ref::is_each_sorted(&data, n));
        // One chunk: pipelining degenerates to the serial schedule.
        assert!((stats.pipelined_ms - stats.serial_ms).abs() < 1e-9);
    }

    #[test]
    fn streamed_out_of_core_sorts_and_overlaps() {
        let n = 1000;
        let num = 30_000;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();

        // Serial reference run.
        let mut serial_data = data.clone();
        let mut g = small_gpu();
        let serial = sort_out_of_core(&GpuArraySort::new(), &mut g, &mut serial_data, n).unwrap();

        // Streamed run on the engine scheduler.
        let mut streamed_data = data;
        let mut g = small_gpu();
        let streamed =
            sort_out_of_core_streamed(&GpuArraySort::new(), &mut g, &mut streamed_data, n).unwrap();

        assert_eq!(
            serial_data, streamed_data,
            "scheduling must not change results"
        );
        assert_eq!(streamed.chunks, serial.chunks.len());
        assert!(
            streamed.streamed_ms < serial.serial_ms,
            "streams must beat the serial schedule: {} vs {}",
            streamed.streamed_ms,
            serial.serial_ms
        );
        // The engine model is at least as pessimistic as the analytic bound
        // (single H2D engine) but must be close to it.
        assert!(
            streamed.streamed_ms >= serial.pipelined_ms * 0.999,
            "engine model can't beat the analytic lower schedule: {} vs {}",
            streamed.streamed_ms,
            serial.pipelined_ms
        );
        assert!(
            streamed.streamed_ms <= serial.pipelined_ms * 1.1,
            "and should be within 10% of it: {} vs {}",
            streamed.streamed_ms,
            serial.pipelined_ms
        );
        // Overlap actually happened: some compute op starts before an
        // earlier-issued transfer op ends.
        let events = g.async_events();
        let overlapped = events.iter().enumerate().any(|(i, e)| {
            events[..i]
                .iter()
                .any(|prev| prev.end_ms > e.start_ms && prev.stream != e.stream)
        });
        assert!(overlapped, "schedule must contain cross-stream overlap");
    }

    #[test]
    fn streamed_version_double_buffers_memory() {
        let n = 500;
        let num = 40_000;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut data: Vec<f32> = (0..n * num).map(|_| rng.gen_range(0.0f32..1e9)).collect();
        let mut g = small_gpu();
        let stats = sort_out_of_core_streamed(&GpuArraySort::new(), &mut g, &mut data, n).unwrap();
        // Peak must show two chunk slots but stay on the device.
        let one_chunk = (stats.chunk_arrays * n * 4) as u64;
        assert!(stats.peak_bytes >= 2 * one_chunk, "two slots resident");
        assert!(stats.peak_bytes <= g.ledger().capacity());
        assert!(crate::cpu_ref::is_each_sorted(&data, n));
    }

    #[test]
    fn single_array_too_big_for_device_errors() {
        let g = small_gpu();
        // One array of 16M floats = 64 MB > 60 MiB usable even once.
        let err = max_chunk_arrays(&GpuArraySort::new(), &g, 16_000_000).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn chunk_sizing_uses_at_most_half_the_device() {
        let g = small_gpu();
        let sorter = GpuArraySort::new();
        let m = max_chunk_arrays(&sorter, &g, 1000).unwrap();
        let plan = GasMemoryPlan::new(&sorter.geometry(m, 1000), 4, g.spec());
        assert!(2 * plan.total_bytes() <= g.spec().usable_mem_bytes());
        let plan_next = GasMemoryPlan::new(&sorter.geometry(m + 1, 1000), 4, g.spec());
        assert!(
            2 * plan_next.total_bytes() > g.spec().usable_mem_bytes(),
            "m is maximal"
        );
    }
}
