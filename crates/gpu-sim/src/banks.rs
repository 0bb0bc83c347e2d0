//! Shared-memory bank-conflict analysis.
//!
//! Kepler shared memory is striped across 32 four-byte banks; a warp
//! access completes in as many passes as the most-contended bank (lanes
//! reading the *same word* broadcast for free). Most charges take a flat
//! conflict-free cost ([`crate::cost::CostModel::shared_access`]); where
//! the addresses matter, this analyzer measures them. The fused and
//! warp-multisplit kernels run it once per warp group on the real scatter
//! destinations of every array, so it sits on their host hot path and
//! allocates nothing. Tests also use it to validate layouts — e.g. the
//! Phase-2 staging writes are conflict-prone when bucket cursors collide
//! modulo 32, which is one reason the paper sizes buckets at ≥ 20
//! elements.

/// Number of banks on Kepler-class parts.
pub const NUM_BANKS: u32 = 32;
/// Bank word width, bytes.
pub const BANK_WIDTH: u32 = 4;

/// Degree of conflict of one warp-wide shared-memory access: the number
/// of serialized passes (1 = conflict-free, 32 = fully serialized).
/// Lanes touching the *same word* count once (broadcast). Panics past 64
/// lanes, like the warp intrinsics (no real part has them).
pub fn conflict_degree(byte_addrs: &[u64]) -> u32 {
    lanes_degree(byte_addrs.len(), |i| byte_addrs[i])
}

/// The degree of `lanes` lanes, lane `i` touching byte `addr(i)`. A fixed
/// per-bank table holds a bitmask of the lanes that brought the bank a
/// new word, so a lane is checked for a broadcast only against those
/// lanes, and the degree is the largest mask's popcount. Allocates
/// nothing.
fn lanes_degree(lanes: usize, addr: impl Fn(usize) -> u64) -> u32 {
    assert!(lanes <= 64, "bank analysis supports at most 64 lanes");
    let word = |i: usize| addr(i) / BANK_WIDTH as u64;
    let mut new_word_lanes = [0u64; NUM_BANKS as usize];
    for i in 0..lanes {
        let w = word(i);
        let bank = &mut new_word_lanes[(w % NUM_BANKS as u64) as usize];
        let mut earlier = *bank;
        while earlier != 0 && word(earlier.trailing_zeros() as usize) != w {
            earlier &= earlier - 1;
        }
        if earlier == 0 {
            *bank |= 1 << i;
        }
    }
    new_word_lanes
        .iter()
        .map(|m| m.count_ones())
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Conflict degree of a strided warp access (`lane i` touches byte
/// `base + i · stride_bytes`) — the common pattern to check.
///
/// Edge cases (pinned by tests):
///
/// * **`stride_bytes == 0`** — every lane reads the same word, which the
///   hardware serves as a broadcast: degree 1, never a conflict.
/// * **Non-power-of-two `warp_size`** — the degree is computed over
///   exactly `warp_size` lanes, so a partial warp can only improve (never
///   worsen) the degree of the same stride at 32 lanes; `warp_size == 0`
///   degenerates to the empty access, degree 1. Past 64 lanes it panics,
///   as [`conflict_degree`] does.
pub fn strided_conflict_degree(base: u64, stride_bytes: u64, warp_size: u32) -> u32 {
    lanes_degree(warp_size as usize, |i| base + i as u64 * stride_bytes)
}

/// The Sitchinava–Weichert padded index: logical word `i` of a shared
/// array is stored at physical word `i + ⌊i / NUM_BANKS⌋`, i.e. one pad
/// word is inserted after every 32 — so walking a *column* of a 32-wide
/// tile (stride 32 words, the fully-serialized worst case) lands on
/// stride 33, which is conflict-free. Costs `len / 32` extra words of
/// shared memory; [`padded_len`] gives the padded allocation size.
pub fn padded_index(index: u64) -> u64 {
    index + index / NUM_BANKS as u64
}

/// Physical words needed to store `len` logical words under
/// [`padded_index`].
pub fn padded_len(len: u64) -> u64 {
    if len == 0 {
        0
    } else {
        padded_index(len - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use support::check::{check, vec};

    /// The original analyzer, kept as the oracle: a map from bank to the
    /// distinct words seen on it.
    fn reference_degree(byte_addrs: &[u64]) -> u32 {
        let mut per_bank: HashMap<u64, Vec<u64>> = HashMap::new();
        for &a in byte_addrs {
            let word = a / BANK_WIDTH as u64;
            let bank = word % NUM_BANKS as u64;
            let words = per_bank.entry(bank).or_default();
            if !words.contains(&word) {
                words.push(word);
            }
        }
        per_bank
            .values()
            .map(|w| w.len() as u32)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Random warp accesses of 0..=64 lanes over 4- and 8-byte elements.
    /// The index range is drawn per case, so some cases crowd many lanes
    /// onto a few words (broadcasts) and others spread them over many
    /// banks; unaligned byte offsets share words with their neighbours.
    #[test]
    fn conflict_degree_matches_the_reference() {
        check(512, |rng| {
            let elem = [1u64, 4, 8][rng.gen_range(0..3)];
            let span = rng.gen_range(1u64..=512);
            let base = rng.gen_range(0u64..4096);
            let addrs = vec(rng, 0..=64, |r| base + r.gen_range(0..span) * elem);
            assert_eq!(
                conflict_degree(&addrs),
                reference_degree(&addrs),
                "{addrs:?}"
            );
        });
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn more_than_64_lanes_is_rejected() {
        conflict_degree(&[0u64; 65]);
    }

    #[test]
    fn strided_degree_matches_the_reference() {
        check(256, |rng| {
            let base = rng.gen_range(0u64..1024);
            let stride = rng.gen_range(0u64..=300);
            let lanes = rng.gen_range(0u32..=64);
            let addrs: Vec<u64> = (0..lanes as u64).map(|i| base + i * stride).collect();
            assert_eq!(
                strided_conflict_degree(base, stride, lanes),
                reference_degree(&addrs),
                "base {base}, stride {stride}, {lanes} lanes"
            );
        });
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(strided_conflict_degree(0, 4, 32), 1);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflicts() {
        assert_eq!(strided_conflict_degree(0, 8, 32), 2);
    }

    #[test]
    fn stride_32_words_fully_serializes() {
        assert_eq!(strided_conflict_degree(0, 128, 32), 32);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![64u64; 32];
        assert_eq!(conflict_degree(&addrs), 1, "same word broadcasts");
    }

    #[test]
    fn same_bank_different_words_conflict() {
        // Lanes 0 and 1 hit bank 0 at different words.
        let addrs = vec![0u64, 128];
        assert_eq!(conflict_degree(&addrs), 2);
    }

    #[test]
    fn odd_strides_avoid_conflicts() {
        // Classic padding trick: stride of 33 words is conflict-free.
        assert_eq!(strided_conflict_degree(0, 33 * 4, 32), 1);
    }

    #[test]
    fn empty_access_is_degree_one() {
        assert_eq!(conflict_degree(&[]), 1);
    }

    #[test]
    fn zero_stride_is_a_broadcast() {
        // All lanes on one word: served in a single pass at any base.
        assert_eq!(strided_conflict_degree(0, 0, 32), 1);
        assert_eq!(strided_conflict_degree(123, 0, 32), 1);
        assert_eq!(strided_conflict_degree(0, 0, 64), 1);
    }

    #[test]
    fn partial_warps_never_worsen_the_degree() {
        for stride in [0u64, 4, 8, 64, 128, 132] {
            for ws in [1u32, 3, 7, 17, 24, 31, 32] {
                assert!(
                    strided_conflict_degree(0, stride, ws)
                        <= strided_conflict_degree(0, stride, 32),
                    "stride {stride} at {ws} lanes"
                );
            }
        }
        // Degenerate zero-lane access is the empty access.
        assert_eq!(strided_conflict_degree(0, 128, 0), 1);
    }

    #[test]
    fn non_pow2_warp_sizes_are_exact() {
        // 24 lanes at 2-word stride cover words 0,2,…,46: banks 0..=30
        // even, each bank hit at most… words 0..46 mod 32: words 32..46
        // re-hit banks 0,2,…,14 → degree 2.
        assert_eq!(strided_conflict_degree(0, 8, 24), 2);
        // 17 lanes at full-serialization stride: 17 distinct words, one bank.
        assert_eq!(strided_conflict_degree(0, 128, 17), 17);
    }

    #[test]
    fn padding_defeats_the_column_walk() {
        // A column walk of a 32-wide tile is the worst case…
        assert_eq!(strided_conflict_degree(0, 32 * 4, 32), 32);
        // …but through the padded layout every lane lands on its own bank.
        let addrs: Vec<u64> = (0..32u64)
            .map(|lane| padded_index(lane * 32) * BANK_WIDTH as u64)
            .collect();
        assert_eq!(conflict_degree(&addrs), 1);
    }

    #[test]
    fn padded_len_counts_pad_words() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(32), 32, "first pad word appears at index 32");
        assert_eq!(padded_len(33), 34);
        assert_eq!(padded_len(64), 65);
        // Round trip: padded indices are strictly increasing and unique.
        let idx: Vec<u64> = (0..200).map(padded_index).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }
}
