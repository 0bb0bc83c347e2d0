//! Data parallelism on `std::thread::scope`.
//!
//! Work is cut into contiguous pieces, several per worker, and the workers
//! claim pieces in turn, so one slow core does not hold up the rest.
//! Results come back in index order: a fold whose merge is associative
//! gives the same answer as a sequential fold, bit for bit.

use std::ops::Range;
use std::sync::Mutex;
use std::thread;

/// Pieces per worker; more pieces balance uneven work better.
const PIECES_PER_WORKER: usize = 16;

/// `available_parallelism`, or 1 if it is unknown.
fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cuts `0..len` into at most `parts` non-empty contiguous ranges, in order.
fn split(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let (base, extra) = (len / parts, len % parts);
    (0..parts).scan(0, move |start, i| {
        let end = *start + base + usize::from(i < extra);
        let r = *start..end;
        *start = end;
        Some(r)
    })
}

/// Runs `work` on every piece with up to `workers` threads (the caller is
/// one of them) and returns the results in piece order. A panic in any
/// piece is resumed on the caller.
fn run<P: Send, A: Send>(workers: usize, pieces: Vec<P>, work: impl Fn(P) -> A + Sync) -> Vec<A> {
    let workers = workers.clamp(1, pieces.len().max(1));
    if workers == 1 {
        return pieces.into_iter().map(work).collect();
    }
    let count = pieces.len();
    let queue = Mutex::new(pieces.into_iter().enumerate());
    let worker = || {
        // Room for every piece up front: how the pieces fall between the
        // workers varies from run to run, and a buffer that grew with its
        // share would make the host's allocation pattern (and so its
        // heap layout and peak memory) vary with it.
        let mut done = Vec::with_capacity(count);
        loop {
            let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
            match next {
                Some((i, p)) => done.push((i, work(p))),
                None => return done,
            }
        }
    };
    let mut done = thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, a)| a).collect()
}

/// Folds `0..len` in parallel: each contiguous piece folds from
/// `identity()` with `fold_op`, and the pieces' results are merged left to
/// right in index order.
pub fn fold<A: Send>(
    len: usize,
    identity: impl Fn() -> A + Sync,
    fold_op: impl Fn(A, usize) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> A {
    fold_on(workers(), len, identity, fold_op, merge)
}

/// [`fold`] with an explicit worker count.
fn fold_on<A: Send>(
    workers: usize,
    len: usize,
    identity: impl Fn() -> A + Sync,
    fold_op: impl Fn(A, usize) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> A {
    let pieces: Vec<_> = split(len, workers * PIECES_PER_WORKER).collect();
    run(workers, pieces, |r| r.fold(identity(), &fold_op))
        .into_iter()
        .reduce(merge)
        .unwrap_or_else(identity)
}

/// Calls `f` on every `chunk`-long piece of `data` in parallel (the last
/// piece may be shorter).
pub fn for_each_chunk_mut<T: Send>(data: &mut [T], chunk: usize, f: impl Fn(&mut [T]) + Sync) {
    assert!(chunk > 0, "chunk length must be positive");
    let count = data.len().div_ceil(chunk);
    let mut rest = data;
    let mut pieces = Vec::new();
    for r in split(count, workers() * PIECES_PER_WORKER) {
        let (piece, tail) = rest.split_at_mut((r.len() * chunk).min(rest.len()));
        pieces.push(piece);
        rest = tail;
    }
    run(workers(), pieces, |piece| {
        piece.chunks_mut(chunk).for_each(&f)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_equals_the_sequential_fold_for_any_worker_count() {
        // Order-sensitive: the merge concatenates, so any reordering of
        // pieces would show.
        for workers in 1..=9 {
            for len in [0, 1, 2, 3, 5, 8, 9, 17, 100, 1000] {
                let got = fold_on(
                    workers,
                    len,
                    Vec::new,
                    |mut v, i| {
                        v.push(i);
                        v
                    },
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                );
                assert_eq!(
                    got,
                    (0..len).collect::<Vec<_>>(),
                    "{workers} workers, {len}"
                );
            }
        }
    }

    #[test]
    fn fold_resumes_a_worker_panic() {
        let r = std::panic::catch_unwind(|| {
            fold_on(
                4,
                100,
                || 0,
                |a, i| if i == 57 { panic!("boom") } else { a + i },
                |a, b| a + b,
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn for_each_chunk_mut_visits_every_chunk_once() {
        for len in [0, 1, 7, 64, 1001] {
            let mut data: Vec<usize> = (0..len).collect();
            for_each_chunk_mut(&mut data, 8, |c| c.iter_mut().for_each(|x| *x *= 2));
            assert_eq!(data, (0..len).map(|x| x * 2).collect::<Vec<_>>());
        }
    }
}
