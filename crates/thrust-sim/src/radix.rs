//! Stable LSD radix sort, the algorithm under Thrust's
//! `stable_sort_by_key` (Satish/Harris/Garland, the paper's reference
//! \[18\]).
//!
//! Four 8-bit passes over 32-bit keys; each pass is the histogram → scan →
//! stable scatter pipeline:
//!
//! 1. **histogram** — every block counts the digit occurrences of its tile
//!    into shared counters and writes them to a digit-major global table
//!    `hist[digit][tile]`;
//! 2. **scan** — a device-wide exclusive scan of that table yields, for
//!    every (digit, tile) pair, the global base offset of that tile's
//!    elements with that digit (digit-major order is what makes the
//!    scatter stable across tiles);
//! 3. **scatter** — every block recomputes local stable ranks for its tile
//!    and writes each key (and its value) to `base[digit][tile] + rank`.
//!
//! Like Thrust, the sort ping-pongs between the primary buffers and an
//! equally sized pair of temporaries — this O(N) extra space is exactly
//! the memory overhead the paper charges against the STA baseline (§7.1),
//! and it is allocated on the device ledger so capacity experiments see it.
//!
//! Simulation note: charges model a shared-memory ranking implementation
//! (coalesced tile reads, per-element shared-memory traffic, semi-coalesced
//! scatter writes — consecutive same-digit elements land contiguously, so
//! writes average a few transactions per warp, charged as `Strided(2)`).
//! The charges are the same for every thread, so each phase is billed
//! through `BlockCtx::uniform`; the equivalent data movement runs once per
//! block in the kernel body, and the scatter does what that design does:
//! rank the tile locally, then copy each digit's run to its base.

use gpu_sim::{AccessPattern, DeviceBuffer, Gpu, LaunchConfig, SimError, SimResult};

use crate::key::RadixKey;
use crate::scan::exclusive_scan;

/// Bits sorted per pass.
pub const RADIX_BITS: u32 = 8;
/// Number of digit bins per pass.
pub const RADIX_DIGITS: usize = 1 << RADIX_BITS;
/// Passes needed for a 32-bit key.
pub const RADIX_PASSES: u32 = 32 / RADIX_BITS;
/// Threads per radix block.
pub const RADIX_THREADS: u32 = 256;
/// Elements per radix tile (16 per thread).
pub const RADIX_TILE: usize = 4096;

/// A value type that can ride along with keys ("values" of
/// `sort_by_key`).
pub trait DeviceValue: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> DeviceValue for T {}

/// Sorts `keys` (with `values` permuted identically) stably and in
/// ascending key order. Buffer lengths must match: mismatched lengths are
/// [`SimError::InvalidLaunch`], and nothing reaches the device.
///
/// Allocates two temporary buffers of the same size (the Thrust/radix O(N)
/// overhead) plus the digit histogram; all are freed on return.
pub fn stable_sort_by_key<K: RadixKey, V: DeviceValue>(
    gpu: &mut Gpu,
    keys: &mut DeviceBuffer<K>,
    values: &mut DeviceBuffer<V>,
) -> SimResult<()> {
    if keys.len() != values.len() {
        return Err(SimError::InvalidLaunch {
            reason: format!(
                "key/value length mismatch: {} keys with {} values",
                keys.len(),
                values.len()
            ),
        });
    }
    let len = keys.len();
    if len <= 1 {
        return Ok(());
    }

    let alt_keys: DeviceBuffer<K> = gpu.alloc(len)?;
    let alt_values: DeviceBuffer<V> = gpu.alloc(len)?;
    let num_tiles = len.div_ceil(RADIX_TILE);
    let mut hist: DeviceBuffer<u32> = gpu.alloc(RADIX_DIGITS * num_tiles)?;

    // Ping-pong: pass 0 reads (keys, values) -> (alt, alt); pass 1 back, …
    // RADIX_PASSES is even, so the final output lands in the primary pair.
    for pass in 0..RADIX_PASSES {
        let shift = pass * RADIX_BITS;
        let forward = pass % 2 == 0;
        let (src_k, dst_k) = if forward {
            (&*keys, &alt_keys)
        } else {
            (&alt_keys, &*keys)
        };
        let (src_v, dst_v) = if forward {
            (&*values, &alt_values)
        } else {
            (&alt_values, &*values)
        };

        histogram_kernel(gpu, src_k, &hist, len, num_tiles, shift)?;
        exclusive_scan(gpu, &mut hist)?;
        scatter_kernel(
            gpu, src_k, src_v, dst_k, dst_v, &hist, len, num_tiles, shift,
        )?;
    }
    Ok(())
}

/// Sorts `keys` only (no payload).
pub fn sort_keys<K: RadixKey>(gpu: &mut Gpu, keys: &mut DeviceBuffer<K>) -> SimResult<()> {
    // A zero-sized payload would dodge the value traffic the cost model
    // should see; use a 1-byte payload: cheap, but honest about the pass structure.
    let mut dummy: DeviceBuffer<u8> = gpu.alloc(keys.len())?;
    stable_sort_by_key(gpu, keys, &mut dummy)
}

/// The `shift`ed 8-bit digit of `k`.
fn digit<K: RadixKey>(k: K, shift: u32) -> usize {
    ((k.to_radix_bits() >> shift) & (RADIX_DIGITS as u32 - 1)) as usize
}

/// How many keys of `tile` hold each digit.
fn digit_counts<K: RadixKey>(tile: &[K], shift: u32) -> [u32; RADIX_DIGITS] {
    let mut counts = [0u32; RADIX_DIGITS];
    for &k in tile {
        counts[digit(k, shift)] += 1;
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn histogram_kernel<K: RadixKey>(
    gpu: &mut Gpu,
    src: &DeviceBuffer<K>,
    hist: &DeviceBuffer<u32>,
    len: usize,
    num_tiles: usize,
    shift: u32,
) -> SimResult<()> {
    let src_view = src.view();
    let hist_view = hist.view();
    let cfg = LaunchConfig::grid(num_tiles as u32, RADIX_THREADS)
        .with_shared((RADIX_DIGITS * std::mem::size_of::<u32>()) as u32);
    gpu.launch("radix_histogram", cfg, |block| {
        let b = block.block_idx() as usize;
        let tile_start = b * RADIX_TILE;
        let tile_len = RADIX_TILE.min(len - tile_start);
        let elems_per_thread = (tile_len as u64).div_ceil(RADIX_THREADS as u64).min(16);
        // Count the tile's digits and publish them to the digit-major table.
        // SAFETY: tile is block-exclusive; hist rows are written at column
        // block_idx only by this block.
        let tile = unsafe { src_view.slice(tile_start, tile_len) };
        for (d, &c) in digit_counts(tile, shift).iter().enumerate() {
            hist_view.set(d * num_tiles + b, c);
        }
        block.uniform(|t| {
            // Read the tile coalesced; one shared-atomic bump per element.
            t.charge_global(elems_per_thread, 4, AccessPattern::Coalesced);
            t.charge_alu(3 * elems_per_thread); // shift/mask/index math
            t.charge_atomic_shared(elems_per_thread);
            // Calibrated Thrust-on-Kepler overhead (30% of a pass's bill
            // lands in the histogram kernel) — see CostModel::thrust_elem_cycles.
            t.charge_baseline_sort(elems_per_thread, 0.3);
        });
        // Publishing 256 counters to the digit-major table: one store per
        // counter, strided by num_tiles → effectively scattered.
        block.uniform(|t| {
            t.charge_global(1, 4, AccessPattern::Scattered);
        });
    })?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn scatter_kernel<K: RadixKey, V: DeviceValue>(
    gpu: &mut Gpu,
    src_k: &DeviceBuffer<K>,
    src_v: &DeviceBuffer<V>,
    dst_k: &DeviceBuffer<K>,
    dst_v: &DeviceBuffer<V>,
    hist: &DeviceBuffer<u32>,
    len: usize,
    num_tiles: usize,
    shift: u32,
) -> SimResult<()> {
    let sk = src_k.view();
    let sv = src_v.view();
    let dk = dst_k.view();
    let dv = dst_v.view();
    let hv = hist.view();
    let val_bytes = std::mem::size_of::<V>() as u32;
    let cfg = LaunchConfig::grid(num_tiles as u32, RADIX_THREADS)
        .with_shared((RADIX_DIGITS * std::mem::size_of::<u32>() * 2) as u32);
    gpu.launch("radix_scatter", cfg, |block| {
        let b = block.block_idx() as usize;
        let tile_start = b * RADIX_TILE;
        let tile_len = RADIX_TILE.min(len - tile_start);
        let elems_per_thread = (tile_len as u64).div_ceil(RADIX_THREADS as u64).min(16);
        // Rank the tile stably into block-local scratch: per-digit counts,
        // their exclusive prefix, then every element to its digit's run in
        // element order.
        // SAFETY: src tile is block-exclusive.
        let keys = unsafe { sk.slice(tile_start, tile_len) };
        let vals = unsafe { sv.slice(tile_start, tile_len) };
        let counts = digit_counts(keys, shift);
        let mut runs = [0usize; RADIX_DIGITS + 1];
        for d in 0..RADIX_DIGITS {
            runs[d + 1] = runs[d] + counts[d] as usize;
        }
        let mut cursors = runs;
        let mut ranked_k = vec![K::default(); tile_len];
        let mut ranked_v = vec![V::default(); tile_len];
        for (&k, &v) in keys.iter().zip(vals) {
            let c = &mut cursors[digit(k, shift)];
            ranked_k[*c] = k;
            ranked_v[*c] = v;
            *c += 1;
        }
        // Each digit's run is contiguous in the destination, starting at
        // the scanned digit-major base `hist[digit][tile]`.
        for d in 0..RADIX_DIGITS {
            let run = runs[d]..runs[d + 1];
            if run.is_empty() {
                continue;
            }
            let dst = hv.get(d * num_tiles + b) as usize;
            // SAFETY: the scanned offsets partition [0, len) into disjoint
            // (digit, tile) runs, so no two blocks or digits overlap.
            unsafe { dk.slice_mut(dst, run.len()) }.copy_from_slice(&ranked_k[run.clone()]);
            unsafe { dv.slice_mut(dst, run.len()) }.copy_from_slice(&ranked_v[run]);
        }
        block.uniform(|t| {
            // Re-read tile (key + value) coalesced, compute a stable local
            // rank via shared-memory digit scan (~8 ALU + 4 shared per
            // element, the amortized cost of the per-digit flag scans),
            // then write key+value to the destination. Consecutive
            // same-digit elements write contiguously, so stores average a
            // couple of transactions per warp: Strided(2).
            t.charge_global(elems_per_thread, 4, AccessPattern::Coalesced);
            t.charge_global(elems_per_thread, val_bytes, AccessPattern::Coalesced);
            t.charge_alu(8 * elems_per_thread);
            t.charge_shared(4 * elems_per_thread);
            t.charge_global(elems_per_thread, 4, AccessPattern::Strided(2));
            t.charge_global(elems_per_thread, val_bytes, AccessPattern::Strided(2));
            // Calibrated Thrust-on-Kepler overhead (70% of a pass's bill
            // lands in the scatter) — see CostModel::thrust_elem_cycles.
            t.charge_baseline_sort(elems_per_thread, 0.7);
        });
    })?;
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

    fn sort_u32(input: Vec<u32>) -> Vec<u32> {
        let mut g = gpu();
        let mut keys = g.htod_copy(&input).unwrap();
        let mut vals = g.htod_copy(&vec![0u8; input.len()]).unwrap();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        keys.to_host_vec()
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sort_u32(vec![]), Vec::<u32>::new());
        assert_eq!(sort_u32(vec![9]), vec![9]);
    }

    #[test]
    fn small_reverse() {
        assert_eq!(
            sort_u32((0..100).rev().collect()),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_tile_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let input: Vec<u32> = (0..3 * RADIX_TILE + 123).map(|_| rng.gen()).collect();
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(sort_u32(input), expect);
    }

    #[test]
    fn sorts_all_digit_positions() {
        // Values differing only in the high byte exercise the last pass.
        let input: Vec<u32> = (0..512u32).rev().map(|i| i << 24).collect();
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(sort_u32(input), expect);
    }

    #[test]
    fn f32_keys_sort_in_float_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let input: Vec<f32> = (0..10_000).map(|_| rng.gen_range(-1e6f32..1e6)).collect();
        let mut g = gpu();
        let mut keys = g.htod_copy(&input).unwrap();
        let mut vals = g.htod_copy(&vec![0u8; input.len()]).unwrap();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        let out = keys.to_host_vec();
        let mut expect = input;
        expect.sort_by(f32::total_cmp);
        assert_eq!(out, expect);
    }

    #[test]
    fn f32_special_values_sort_in_total_cmp_order() {
        let input = vec![
            f32::NAN,
            f32::INFINITY,
            -0.0f32,
            1.5,
            f32::NEG_INFINITY,
            -f32::NAN,
            0.0,
            -1.5,
            f32::MIN_POSITIVE,
        ];
        let mut g = gpu();
        let mut keys = g.htod_copy(&input).unwrap();
        let mut vals = g.htod_copy(&vec![0u8; input.len()]).unwrap();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        let out = keys.to_host_vec();
        let mut expect = input;
        expect.sort_by(f32::total_cmp);
        assert_eq!(
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "NaNs, infinities and signed zeros in total_cmp order"
        );
    }

    #[test]
    fn payload_follows_keys() {
        let keys_in: Vec<u32> = vec![5, 3, 9, 1, 7];
        let vals_in: Vec<u32> = vec![50, 30, 90, 10, 70];
        let mut g = gpu();
        let mut keys = g.htod_copy(&keys_in).unwrap();
        let mut vals = g.htod_copy(&vals_in).unwrap();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        assert_eq!(keys.to_host_vec(), vec![1, 3, 5, 7, 9]);
        assert_eq!(vals.to_host_vec(), vec![10, 30, 50, 70, 90]);
    }

    #[test]
    fn stability_on_duplicate_keys() {
        // Many duplicate keys across tiles; payload records original index.
        let n = 2 * RADIX_TILE + 777;
        let keys_in: Vec<u32> = (0..n).map(|i| (i % 7) as u32).collect();
        let vals_in: Vec<u32> = (0..n as u32).collect();
        let mut g = gpu();
        let mut keys = g.htod_copy(&keys_in).unwrap();
        let mut vals = g.htod_copy(&vals_in).unwrap();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        let k = keys.to_host_vec();
        let v = vals.to_host_vec();
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        // Within each equal-key run the original indices must ascend.
        for w in k.iter().zip(&v).collect::<Vec<_>>().windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated for key {}", w[0].0);
            }
        }
    }

    #[test]
    fn temporaries_are_freed_and_counted() {
        let mut g = gpu();
        let n = 100_000usize;
        let mut keys = g.htod_copy(&vec![1u32; n]).unwrap();
        let mut vals = g.htod_copy(&vec![2u32; n]).unwrap();
        let data_bytes = keys.size_bytes() + vals.size_bytes();
        stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap();
        assert_eq!(g.ledger().used(), data_bytes, "alt buffers freed");
        // Peak must include both alt buffers: ≥ 2× the data.
        assert!(
            g.ledger().peak() >= 2 * data_bytes,
            "peak {} should show the Thrust O(N) overhead over data {}",
            g.ledger().peak(),
            data_bytes
        );
        assert!(g.timeline().kernels_named("radix").count() >= 8);
    }

    #[test]
    fn mismatched_lengths_are_errors_not_panics() {
        let mut g = gpu();
        let mut keys: DeviceBuffer<u32> = g.alloc(3).unwrap();
        let mut vals: DeviceBuffer<u8> = g.alloc(2).unwrap();
        let err = stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidLaunch { .. }),
            "want InvalidLaunch, got {err}"
        );
        assert!(err.to_string().contains("3 keys with 2 values"), "{err}");
        assert_eq!(g.elapsed_ms(), 0.0, "nothing reached the device");
        assert!(g.timeline().kernels.is_empty(), "no kernel launched");
    }

    #[test]
    fn sort_keys_convenience() {
        let mut g = gpu();
        let mut keys = g.htod_copy(&[3u32, 1, 2]).unwrap();
        sort_keys(&mut g, &mut keys).unwrap();
        assert_eq!(keys.to_host_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn oom_when_alt_buffers_do_not_fit() {
        let mut g = Gpu::new(DeviceSpec::test_device()); // 60 MiB usable
                                                         // 10M u32 keys + 10M u32 values = 80 MB primary... too big already;
                                                         // use 5M+5M = 40 MB primary, alts need another 40 MB > 20 MB left.
        let n = 5_000_000;
        let mut keys = g.htod_copy(&vec![0u32; n]).unwrap();
        let mut vals = g.htod_copy(&vec![0u32; n]).unwrap();
        let err = stable_sort_by_key(&mut g, &mut keys, &mut vals).unwrap_err();
        assert!(matches!(err, gpu_sim::SimError::OutOfMemory { .. }));
    }
}
