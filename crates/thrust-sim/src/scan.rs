//! Device-wide exclusive prefix sum (scan).
//!
//! The classic three-kernel recursion Thrust/CUB use, after Harris et al.'s
//! GPU Gems 3 chapter (the paper's reference \[17\]): a work-efficient
//! Blelloch scan per block tile, a recursive scan of the per-tile totals,
//! and a uniform add that folds the scanned totals back into the tiles.
//! The radix sort ranks its digit histograms with this.
//!
//! Simulation note: each block charges the Blelloch cost pattern for every
//! thread (loads/stores coalesced, `2·log₂(tile)` shared-memory sweep
//! steps) as one uniform phase, while the equivalent data movement is
//! performed once per block.
//! Results are bit-identical to a sequential exclusive scan.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimResult};

/// Threads per scan block.
pub const SCAN_THREADS: u32 = 256;
/// Elements scanned by one block (two per thread, Blelloch style).
pub const SCAN_TILE: usize = 512;

const LOG2_TILE: u64 = SCAN_TILE.trailing_zeros() as u64;

/// Implementation shared by the public entry points: scan tiles → scan tile
/// sums (recursively) → uniform add. Returns the grand total.
fn exclusive_scan_impl(gpu: &mut Gpu, buf: &DeviceBuffer<u32>, len: usize) -> SimResult<u64> {
    if len == 0 {
        return Ok(0);
    }
    let num_tiles = len.div_ceil(SCAN_TILE);
    let mut sums: DeviceBuffer<u32> = gpu.alloc(num_tiles)?;
    let view = buf.view();
    let sums_view = sums.view();

    scan_tiles_kernel(gpu, view, len, num_tiles as u32, Some(sums_view))?;

    let total = if num_tiles == 1 {
        // The lone tile's total is in sums[0].
        sums.as_slice()[0] as u64
    } else {
        let t = exclusive_scan_impl(gpu, &sums, num_tiles)?;
        uniform_add_kernel(gpu, view, sums_view, len, num_tiles as u32)?;
        t
    };
    Ok(total)
}

/// Per-tile Blelloch scan. Writes each tile's pre-scan total into
/// `sums[block]` when provided.
fn scan_tiles_kernel(
    gpu: &mut Gpu,
    view: gpu_sim::GlobalView<'_, u32>,
    len: usize,
    num_tiles: u32,
    sums: Option<gpu_sim::GlobalView<'_, u32>>,
) -> SimResult<gpu_sim::KernelStats> {
    let cfg = LaunchConfig::grid(num_tiles, SCAN_THREADS)
        .with_shared((SCAN_TILE * std::mem::size_of::<u32>()) as u32);
    gpu.launch("scan_tiles", cfg, |block| {
        let b = block.block_idx() as usize;
        let tile_start = b * SCAN_TILE;
        let tile_len = SCAN_TILE.min(len - tile_start);
        // Exclusive scan of the tile; its total to sums[block].
        // SAFETY: this block exclusively owns its tile; sums slot is written
        // only by this block.
        let tile = unsafe { view.slice_mut(tile_start, tile_len) };
        let mut acc = 0u32;
        for v in tile.iter_mut() {
            let x = *v;
            *v = acc;
            acc = acc.wrapping_add(x);
        }
        if let Some(s) = sums {
            s.set(b, acc);
        }
        let elems_per_thread = 2u64;
        block.uniform(|t| {
            // Cost model: load 2 elements coalesced, run the up/down
            // sweeps (4 shared accesses + 2 ALU per step), store 2.
            t.charge_global(elems_per_thread, 4, AccessPattern::Coalesced);
            t.charge_shared(elems_per_thread);
            t.charge_shared(4 * LOG2_TILE);
            t.charge_alu(2 * LOG2_TILE);
            t.charge_global(elems_per_thread, 4, AccessPattern::Coalesced);
        });
    })
}

/// Adds the scanned tile totals back into every tile but the first
/// conceptually — offsets are exclusive, so tile `b` adds `sums[b]`.
fn uniform_add_kernel(
    gpu: &mut Gpu,
    view: gpu_sim::GlobalView<'_, u32>,
    sums: gpu_sim::GlobalView<'_, u32>,
    len: usize,
    num_tiles: u32,
) -> SimResult<gpu_sim::KernelStats> {
    let cfg = LaunchConfig::grid(num_tiles, SCAN_THREADS);
    gpu.launch("scan_uniform_add", cfg, |block| {
        let b = block.block_idx() as usize;
        let tile_start = b * SCAN_TILE;
        let tile_len = SCAN_TILE.min(len - tile_start);
        let offset = sums.get(b);
        // SAFETY: block-exclusive tile.
        let tile = unsafe { view.slice_mut(tile_start, tile_len) };
        for v in tile.iter_mut() {
            *v = v.wrapping_add(offset);
        }
        block.uniform(|t| {
            t.charge_global(1, 4, AccessPattern::Broadcast); // read sums[b]
            t.charge_global(4, 4, AccessPattern::Coalesced); // 2 loads + 2 stores
            t.charge_alu(2);
        });
    })
}

/// In-place device-wide **exclusive** scan of `buf`; returns the total sum
/// of the input (the value that would follow the last output element).
/// Like the device scan it models, arithmetic is `u32` wrapping — the
/// returned total is the wrapped `u32` sum widened to `u64`.
pub fn exclusive_scan(gpu: &mut Gpu, buf: &mut DeviceBuffer<u32>) -> SimResult<u64> {
    let len = buf.len();
    exclusive_scan_impl(gpu, buf, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn scan_host(input: &[u32]) -> (Vec<u32>, u64) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u64;
        for &x in input {
            out.push(acc as u32);
            acc += x as u64;
        }
        (out, acc)
    }

    fn check(input: Vec<u32>) {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut buf = gpu.htod_copy(&input).unwrap();
        let total = exclusive_scan(&mut gpu, &mut buf).unwrap();
        let (expect, expect_total) = scan_host(&input);
        assert_eq!(buf.as_slice(), expect.as_slice());
        assert_eq!(total, expect_total);
    }

    #[test]
    fn empty_scan() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut buf = gpu.alloc::<u32>(0).unwrap();
        assert_eq!(exclusive_scan(&mut gpu, &mut buf).unwrap(), 0);
    }

    #[test]
    fn single_element() {
        check(vec![7]);
    }

    #[test]
    fn single_tile_exact() {
        check((0..SCAN_TILE as u32).collect());
    }

    #[test]
    fn single_tile_partial() {
        check((0..100).map(|i| i * 3 + 1).collect());
    }

    #[test]
    fn two_tiles_partial() {
        check((0..700).map(|i| (i * 7919) % 13).collect());
    }

    #[test]
    fn three_levels_of_recursion() {
        // > SCAN_TILE^2 elements forces two recursive levels.
        let n = SCAN_TILE * SCAN_TILE + 1234;
        check((0..n as u32).map(|i| i % 5).collect());
    }

    #[test]
    fn all_zeros() {
        check(vec![0; 2000]);
    }

    #[test]
    fn wrapping_behaviour_matches_host_u32() {
        // Sums that overflow u32 wrap — in the buffer and in the total —
        // exactly like a device-side u32 scan.
        let input = vec![u32::MAX / 2; 8];
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut buf = gpu.htod_copy(&input).unwrap();
        let total = exclusive_scan(&mut gpu, &mut buf).unwrap();
        let wrapped = input.iter().fold(0u32, |a, &x| a.wrapping_add(x));
        assert_eq!(total, wrapped as u64);
        let (expect, _) = scan_host(&input);
        assert_eq!(buf.as_slice(), expect.as_slice());
    }

    #[test]
    fn scan_charges_time_and_memory() {
        let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
        let mut buf = gpu.htod_copy(&vec![1u32; 10_000]).unwrap();
        let before = gpu.elapsed_ms();
        exclusive_scan(&mut gpu, &mut buf).unwrap();
        assert!(gpu.elapsed_ms() > before);
        // Sums buffers are freed after the scan.
        assert_eq!(gpu.ledger().used(), buf.size_bytes());
        assert!(gpu.timeline().kernels_named("scan").count() >= 2);
    }
}
