//! Device-wide reductions (Thrust's `reduce` / `minmax_element`).
//!
//! Tree reduction per block tile into a partials buffer, recursing until a
//! single value remains. Used by tests and by the bucket-balance
//! diagnostics in the array-sort crate's ablations.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimResult};

/// Threads per reduction block.
pub const REDUCE_THREADS: u32 = 256;
/// Elements reduced by one block.
pub const REDUCE_TILE: usize = 2048;

const LOG2_THREADS: u64 = REDUCE_THREADS.trailing_zeros() as u64;

/// A binary, associative, commutative combine step on `u64` world values.
/// The reduction loads `u32` elements and widens, so sums cannot overflow.
pub trait ReduceOp: Copy + Send + Sync {
    /// Identity element.
    fn identity(&self) -> u64;
    /// Combines two partial results.
    fn combine(&self, a: u64, b: u64) -> u64;
}

/// Sum.
#[derive(Clone, Copy, Debug)]
pub struct SumOp;
impl ReduceOp for SumOp {
    fn identity(&self) -> u64 {
        0
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Maximum.
#[derive(Clone, Copy, Debug)]
pub struct MaxOp;
impl ReduceOp for MaxOp {
    fn identity(&self) -> u64 {
        0
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Minimum.
#[derive(Clone, Copy, Debug)]
pub struct MinOp;
impl ReduceOp for MinOp {
    fn identity(&self) -> u64 {
        u64::MAX
    }
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Reduces a `u32` device buffer with `op`, returning the scalar.
pub fn reduce_u32<O: ReduceOp>(gpu: &mut Gpu, buf: &DeviceBuffer<u32>, op: O) -> SimResult<u64> {
    let mut len = buf.len();
    if len == 0 {
        return Ok(op.identity());
    }
    // First level reads the input; subsequent levels reduce partials. The
    // partials are u64 stored as two u32s? Keep it simple and exact: store
    // partials in a host-mirrored u64 vec inside device buffers of u64...
    // u64 device buffers are fine — the ledger charges 8 bytes each.
    let mut partials: DeviceBuffer<u64> = gpu.alloc(len.div_ceil(REDUCE_TILE))?;
    reduce_level_u32(gpu, buf, &partials, len, op)?;
    len = partials.len();
    while len > 1 {
        let next: DeviceBuffer<u64> = gpu.alloc(len.div_ceil(REDUCE_TILE))?;
        reduce_level_u64(gpu, &partials, &next, len, op)?;
        partials = next;
        len = partials.len();
    }
    Ok(partials.as_slice()[0])
}

fn reduce_level_u32<O: ReduceOp>(
    gpu: &mut Gpu,
    src: &DeviceBuffer<u32>,
    dst: &DeviceBuffer<u64>,
    len: usize,
    op: O,
) -> SimResult<()> {
    let sv = src.view();
    let dv = dst.view();
    let tiles = len.div_ceil(REDUCE_TILE) as u32;
    let cfg = LaunchConfig::grid(tiles, REDUCE_THREADS)
        .with_shared(REDUCE_THREADS * std::mem::size_of::<u64>() as u32);
    gpu.launch("reduce_u32", cfg, |block| {
        let b = block.block_idx() as usize;
        let start = b * REDUCE_TILE;
        let tlen = REDUCE_TILE.min(len - start);
        let per_thread = (tlen as u64).div_ceil(REDUCE_THREADS as u64);
        // SAFETY: block-exclusive tile; dst slot unique per block.
        let tile = unsafe { sv.slice(start, tlen) };
        let mut acc = op.identity();
        for &x in tile {
            acc = op.combine(acc, x as u64);
        }
        dv.set(b, acc);
        block.uniform(|t| {
            // Grid-stride loads + shared-memory tree (log2 steps).
            t.charge_global(per_thread, 4, AccessPattern::Coalesced);
            t.charge_alu(per_thread + 2 * LOG2_THREADS);
            t.charge_shared(2 * LOG2_THREADS);
        });
    })?;
    Ok(())
}

fn reduce_level_u64<O: ReduceOp>(
    gpu: &mut Gpu,
    src: &DeviceBuffer<u64>,
    dst: &DeviceBuffer<u64>,
    len: usize,
    op: O,
) -> SimResult<()> {
    let sv = src.view();
    let dv = dst.view();
    let tiles = len.div_ceil(REDUCE_TILE) as u32;
    let cfg = LaunchConfig::grid(tiles, REDUCE_THREADS)
        .with_shared(REDUCE_THREADS * std::mem::size_of::<u64>() as u32);
    gpu.launch("reduce_u64", cfg, |block| {
        let b = block.block_idx() as usize;
        let start = b * REDUCE_TILE;
        let tlen = REDUCE_TILE.min(len - start);
        let per_thread = (tlen as u64).div_ceil(REDUCE_THREADS as u64);
        // SAFETY: block-exclusive tile; dst slot unique per block.
        let tile = unsafe { sv.slice(start, tlen) };
        let mut acc = op.identity();
        for &x in tile {
            acc = op.combine(acc, x);
        }
        dv.set(b, acc);
        block.uniform(|t| {
            t.charge_global(per_thread, 8, AccessPattern::Coalesced);
            t.charge_alu(per_thread + 2 * LOG2_THREADS);
            t.charge_shared(2 * LOG2_THREADS);
        });
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::tesla_k40c())
    }

    #[test]
    fn empty_reduction_yields_identity() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(0).unwrap();
        assert_eq!(reduce_u32(&mut g, &buf, SumOp).unwrap(), 0);
        assert_eq!(reduce_u32(&mut g, &buf, MinOp).unwrap(), u64::MAX);
    }

    #[test]
    fn sum_small() {
        let mut g = gpu();
        let buf = g.htod_copy(&[1u32, 2, 3, 4]).unwrap();
        assert_eq!(reduce_u32(&mut g, &buf, SumOp).unwrap(), 10);
    }

    #[test]
    fn sum_multi_level() {
        let mut g = gpu();
        let n = REDUCE_TILE * REDUCE_TILE / 4 + 999; // forces ≥2 levels
        let buf = g.htod_copy(&vec![3u32; n]).unwrap();
        assert_eq!(reduce_u32(&mut g, &buf, SumOp).unwrap(), 3 * n as u64);
    }

    #[test]
    fn min_max() {
        let mut g = gpu();
        let data: Vec<u32> = (0..5000)
            .map(|i| (i * 2654435761u64 % 1_000_003) as u32)
            .collect();
        let buf = g.htod_copy(&data).unwrap();
        let lo = reduce_u32(&mut g, &buf, MinOp).unwrap();
        let hi = reduce_u32(&mut g, &buf, MaxOp).unwrap();
        assert_eq!(lo, *data.iter().min().unwrap() as u64);
        assert_eq!(hi, *data.iter().max().unwrap() as u64);
    }

    #[test]
    fn sum_survives_u32_overflow() {
        let mut g = gpu();
        let buf = g.htod_copy(&[u32::MAX; 10]).unwrap();
        assert_eq!(
            reduce_u32(&mut g, &buf, SumOp).unwrap(),
            10 * u32::MAX as u64
        );
    }
}
