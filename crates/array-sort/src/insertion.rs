//! Insertion sort — the paper's choice for both the Phase-1 sample sort
//! and the Phase-3 bucket sort ("insertion sort has proven to be the
//! fastest known sorting algorithm for very small number of elements",
//! §5.3, citing PetaBricks).
//!
//! The device kernels run this *for real* on the staged data and charge
//! the exact comparison/shift counts it reports, so adaptive behaviour
//! (nearly-sorted buckets finish early, reversed buckets pay the full
//! quadratic bill) shows up in the simulated timings, as it would on
//! hardware.

use gpu_sim::AccessPattern;

use crate::key::SortKey;

/// Work performed by one insertion sort, for cycle charging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertionWork {
    /// Key comparisons executed.
    pub comparisons: u64,
    /// Element moves (shifts + final placements).
    pub moves: u64,
}

impl InsertionWork {
    /// Accumulates another sort's work.
    pub fn add(&mut self, other: InsertionWork) {
        self.comparisons += other.comparisons;
        self.moves += other.moves;
    }
}

/// Sorts `a` ascending in place; returns the exact work done.
pub fn insertion_sort<K: SortKey>(a: &mut [K]) -> InsertionWork {
    let mut work = InsertionWork::default();
    for i in 1..a.len() {
        let x = a[i];
        let mut j = i;
        // Shift larger elements right until x's slot is found.
        while j > 0 {
            work.comparisons += 1;
            if x.lt(a[j - 1]) {
                a[j] = a[j - 1];
                work.moves += 1;
                j -= 1;
            } else {
                break;
            }
        }
        if j != i {
            a[j] = x;
            work.moves += 1;
        }
    }
    work
}

/// Length below which [`simulated_insertion_sort`] runs the real
/// [`insertion_sort`]: on short inputs its quadratic scan is cheaper on
/// the host than the inversion count's three allocations and sort.
const REAL_SORT_CUTOFF: usize = 32;

/// Sorts `a` and returns the **exact** work a real [`insertion_sort`]
/// would have done — without paying its O(s²) host time.
///
/// Used by the Phase-1 kernel, which sorts a ~100–400 element sample in
/// every one of up to millions of blocks: the host uses an O(s·log s)
/// inversion count (the shift count of insertion sort equals the inversion
/// count; the comparison count adds one non-shifting probe per element that
/// doesn't land at index 0), while the simulated cycles charged are
/// identical to the quadratic algorithm the paper runs. Inputs shorter
/// than `REAL_SORT_CUTOFF` (32), such as the deterministic policy's
/// ~20-element tiles, simply run [`insertion_sort`], whose counts are
/// exact by definition.
pub fn simulated_insertion_sort<K: SortKey>(a: &mut [K]) -> InsertionWork {
    let n = a.len();
    if n < REAL_SORT_CUTOFF {
        return insertion_sort(a);
    }
    // Count, for each element, how many earlier elements exceed it
    // (= shifts it causes), plus whether it stops against a smaller
    // element (one extra comparison) — both derivable from a merge-count.
    let mut work = InsertionWork::default();
    // inversions[i] is not needed individually: total shifts = total
    // inversions; comparisons = inversions + #elements with steps_i < i
    // (the probe that stops the scan); moves = inversions + #elements that
    // moved at all. Compute per-element inversion counts in O(n log n)
    // with a merge sort over (key, original index).
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by(|&x, &y| a[x as usize].total_order(a[y as usize]).then(x.cmp(&y)));
    // rank[i] = final position of element i. steps_i (= elements > a[i]
    // among a[0..i]) is computed via a Fenwick tree over final ranks.
    let mut rank = vec![0u32; n];
    for (r, &i) in idx.iter().enumerate() {
        rank[i as usize] = r as u32;
    }
    let mut fenwick = vec![0u32; n + 1];
    let add = |f: &mut Vec<u32>, mut i: usize| {
        i += 1;
        while i <= n {
            f[i] += 1;
            i += i & i.wrapping_neg();
        }
    };
    let query = |f: &Vec<u32>, mut i: usize| -> u32 {
        // Count of inserted ranks in [0, i].
        let mut s = 0;
        i += 1;
        while i > 0 {
            s += f[i];
            i -= i & i.wrapping_neg();
        }
        s
    };
    for (i, &ri) in rank.iter().enumerate() {
        let r = ri as usize;
        let leq = query(&fenwick, r); // earlier elements with rank ≤ r
        let steps = i as u32 - leq; // earlier elements strictly greater
        work.comparisons += steps as u64;
        if (steps as usize) < i {
            work.comparisons += 1; // the probe that stops the scan
        }
        if steps > 0 {
            work.moves += steps as u64 + 1; // shifts plus final placement
        }
        add(&mut fenwick, r);
    }
    a.sort_by(|x, y| x.total_order(*y));
    work
}

/// Charges the in-shared compare/shift traffic of an insertion sort whose
/// measured [`InsertionWork`] is `work`: two shared accesses per
/// comparison (read the probe, read the neighbour), one per element move,
/// and one ALU op per comparison. Every kernel that runs an insertion
/// sort on staged data bills it through this single function so the cost
/// model cannot drift between call sites.
pub fn charge_insertion_work(t: &mut gpu_sim::ThreadCtx<'_>, work: InsertionWork) {
    t.charge_shared(2 * work.comparisons + work.moves);
    t.charge_alu(work.comparisons);
}

/// The per-thread "stage, sort, write back" primitive shared by the
/// Phase-3 bucket sort and the merge variant's chunk sort: loads a
/// per-thread contiguous (warp-scattered) segment into shared memory,
/// insertion-sorts it there, and stores it back, charging the exact
/// traffic of each step. Returns the sort's measured work.
///
/// The segment really is sorted in place (through the global view the
/// caller sliced), so the data effect and the cycle bill stay welded
/// together at one call site.
pub fn charged_staged_insertion_sort<K: SortKey>(
    t: &mut gpu_sim::ThreadCtx<'_>,
    segment: &mut [K],
) -> InsertionWork {
    let len = segment.len() as u64;
    t.charge_global(len, K::ELEM_BYTES, AccessPattern::Scattered);
    t.charge_shared(len);
    let work = insertion_sort(segment);
    charge_insertion_work(t, work);
    t.charge_shared(len);
    t.charge_global(len, K::ELEM_BYTES, AccessPattern::Scattered);
    work
}

/// Insertion sort over parallel key/value slices: `values[i]` follows
/// `keys[i]` through every shift — the kernel primitive behind
/// [`crate::pairs`] (sorting spectra by intensity while carrying m/z).
/// Returns the exact work (each key move implies a value move; the cost
/// model charges value traffic separately by element size).
pub fn insertion_sort_pairs<K: SortKey, V: Copy>(
    keys: &mut [K],
    values: &mut [V],
) -> InsertionWork {
    assert_eq!(keys.len(), values.len(), "key/value length mismatch");
    let mut work = InsertionWork::default();
    for i in 1..keys.len() {
        let xk = keys[i];
        let xv = values[i];
        let mut j = i;
        while j > 0 {
            work.comparisons += 1;
            if xk.lt(keys[j - 1]) {
                keys[j] = keys[j - 1];
                values[j] = values[j - 1];
                work.moves += 1;
                j -= 1;
            } else {
                break;
            }
        }
        if j != i {
            keys[j] = xk;
            values[j] = xv;
            work.moves += 1;
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use support::check::check;

    #[test]
    fn empty_and_singleton_do_no_work() {
        let mut a: [f32; 0] = [];
        assert_eq!(insertion_sort(&mut a), InsertionWork::default());
        let mut a = [3.0f32];
        assert_eq!(insertion_sort(&mut a), InsertionWork::default());
    }

    #[test]
    fn sorts_reverse_input_with_quadratic_work() {
        let mut a: Vec<u32> = (0..20).rev().collect();
        let w = insertion_sort(&mut a);
        assert!(a.windows(2).all(|x| x[0] <= x[1]));
        // Reverse input: every pair inverted => n(n-1)/2 = 190 comparisons.
        assert_eq!(w.comparisons, 190);
    }

    #[test]
    fn sorted_input_is_linear() {
        let mut a: Vec<u32> = (0..100).collect();
        let w = insertion_sort(&mut a);
        assert_eq!(w.comparisons, 99, "one comparison per element, no shifts");
        assert_eq!(w.moves, 0);
    }

    #[test]
    fn handles_duplicates_stably_by_value() {
        let mut a = vec![2.0f32, 1.0, 2.0, 1.0, 1.0];
        insertion_sort(&mut a);
        assert_eq!(a, vec![1.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn sorts_nan_via_total_order() {
        let mut a = vec![1.0f32, f32::NAN, -1.0, f32::NEG_INFINITY];
        insertion_sort(&mut a);
        assert_eq!(a[0], f32::NEG_INFINITY);
        assert_eq!(a[1], -1.0);
        assert_eq!(a[2], 1.0);
        assert!(a[3].is_nan());
    }

    #[test]
    fn simulated_work_matches_real_insertion_sort() {
        // Pseudo-random, duplicate-heavy, sorted and reversed inputs must
        // all report identical work to the quadratic reference.
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            (0..64).collect(),
            (0..64).rev().collect(),
            (0..257).map(|i| (i * 2654435761u64 % 97) as u32).collect(),
            vec![5; 40],
            (0..100).map(|i| (i * 31 % 7) as u32).collect(),
        ];
        for case in cases {
            let mut real = case.clone();
            let mut sim = case.clone();
            let wr = insertion_sort(&mut real);
            let ws = simulated_insertion_sort(&mut sim);
            assert_eq!(real, sim, "sorted outputs agree for {case:?}");
            assert_eq!(wr, ws, "work counts agree for {case:?}");
        }
    }

    #[test]
    fn simulated_work_matches_real_on_floats_with_nan() {
        let case = vec![3.0f32, f32::NAN, -1.0, 3.0, 0.0, f32::NAN, -0.0];
        let mut real = case.clone();
        let mut sim = case;
        let wr = insertion_sort(&mut real);
        let ws = simulated_insertion_sort(&mut sim);
        assert_eq!(wr, ws);
        assert_eq!(
            real.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            sim.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Every length on both sides of the cutoff, on inputs drawn from a
    /// per-case alphabet (from all-equal to nearly distinct) and on
    /// floats mixing NaN, ±0 and ±∞ into a few finite values.
    #[test]
    fn simulated_work_matches_real_for_every_length() {
        const SPECIAL: [f32; 6] = [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, -1.5];
        for len in 0..=80usize {
            check(8, |rng| {
                let alphabet = rng.gen_range(1u32..=len.max(1) as u32 * 2);
                let ints: Vec<u32> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
                let (mut real, mut sim) = (ints.clone(), ints);
                assert_eq!(
                    simulated_insertion_sort(&mut sim),
                    insertion_sort(&mut real),
                    "len {len}"
                );
                assert_eq!(sim, real, "len {len}");

                let floats: Vec<f32> = (0..len)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
                        _ => rng.gen_range(0u32..4) as f32,
                    })
                    .collect();
                let (mut real, mut sim) = (floats.clone(), floats);
                assert_eq!(
                    simulated_insertion_sort(&mut sim),
                    insertion_sort(&mut real),
                    "len {len}"
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sim), bits(&real), "len {len}");
            });
        }
    }

    #[test]
    fn pairs_sort_carries_values_and_matches_key_only_work() {
        let keys_in = vec![5u32, 3, 9, 1, 7, 3];
        let vals_in = vec![50u32, 30, 90, 10, 70, 31];
        let mut k = keys_in.clone();
        let mut v = vals_in;
        let wp = insertion_sort_pairs(&mut k, &mut v);
        assert_eq!(k, vec![1, 3, 3, 5, 7, 9]);
        assert_eq!(
            v,
            vec![10, 30, 31, 50, 70, 90],
            "stable for equal keys, values follow"
        );
        let mut k2 = keys_in;
        let wk = insertion_sort(&mut k2);
        assert_eq!(
            wp, wk,
            "pair sort does the same comparisons/moves as key-only"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pairs_sort_rejects_ragged_inputs() {
        let mut k = [1u32, 2];
        let mut v = [1u32];
        insertion_sort_pairs(&mut k, &mut v);
    }

    #[test]
    fn work_counts_are_monotone_in_disorder() {
        let sorted: Vec<u32> = (0..50).collect();
        let mut nearly = sorted.clone();
        nearly.swap(10, 11);
        let mut reversed: Vec<u32> = (0..50).rev().collect();
        let mut s = sorted.clone();
        let ws = insertion_sort(&mut s);
        let wn = insertion_sort(&mut nearly);
        let wr = insertion_sort(&mut reversed);
        assert!(ws.comparisons <= wn.comparisons);
        assert!(wn.comparisons < wr.comparisons);
    }
}
