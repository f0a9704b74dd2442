//! Deterministic fork-join execution for the parallel engine.
//!
//! [`Exec`] decomposes each phase of the summarization loop into at most
//! `threads` tasks with a *fixed, schedule-independent* assignment of
//! items to tasks and a *fixed* reassembly order. Combined with the rule
//! that worker tasks never touch an RNG (all randomness is drawn serially
//! by the driver and handed to workers as seeds), this makes every
//! parallel phase produce bit-identical results for any thread count —
//! the property the determinism tests in `tests/parallel_determinism.rs`
//! pin down.
//!
//! Work is distributed round-robin (item `i` goes to worker `i mod t`),
//! which balances the heavy-tailed group-size distributions produced by
//! shingle bucketing better than contiguous chunking, at zero bookkeeping
//! cost: worker `w`'s `k`-th result is global item `w + k·t`, so outputs
//! reassemble by index arithmetic alone.
//!
//! Each fan-out is one [`std::thread::scope`] with one scoped thread per
//! worker, joined before the call returns (DESIGN.md §4).

use std::num::NonZeroUsize;

/// A fork-join executor with a fixed thread-count policy.
#[derive(Clone, Copy, Debug)]
pub struct Exec {
    threads: usize,
}

impl Exec {
    /// An executor running `threads` workers; `0` means one worker per
    /// available hardware thread.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
        } else {
            threads
        };
        Exec { threads }
    }

    /// A strictly serial executor.
    pub fn serial() -> Self {
        Exec { threads: 1 }
    }

    /// The number of workers phases fan out to.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, &items[index])` to every item, returning results
    /// in item order. Items are assigned round-robin to workers; with one
    /// worker (or one item) everything runs inline on the caller's
    /// thread.
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: worker w produced exactly its round-robin share"
    )]
    pub fn map_indexed<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let n = items.len();
        let t = self.threads.min(n);
        if t <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let mut parts: Vec<Vec<O>> = (0..t)
            .map(|w| Vec::with_capacity(n / t + usize::from(w < n % t)))
            .collect();
        std::thread::scope(|s| {
            for (w, part) in parts.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || {
                    for i in (w..n).step_by(t) {
                        part.push(f(i, &items[i]));
                    }
                });
            }
        });
        // Worker w's k-th output is item w + k·t; drain in global order.
        let mut iters: Vec<std::vec::IntoIter<O>> = parts.into_iter().map(Vec::into_iter).collect();
        (0..n)
            .map(|i| iters[i % t].next().expect("round-robin reassembly"))
            .collect()
    }

    /// Fills `out` by running `f(start_index, chunk)` on contiguous
    /// chunks, one per worker. The chunk boundaries depend only on
    /// `out.len()` and the thread count of *this* executor, and `f` is
    /// expected to be a pure function of `(start_index, chunk)` — which
    /// keeps the result independent of scheduling.
    pub fn fill_chunks<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = out.len();
        let t = self.threads.min(n.max(1));
        if t <= 1 {
            f(0, out);
            return;
        }
        let chunk = n.div_ceil(t);
        std::thread::scope(|s| {
            for (c, slice) in out.chunks_mut(chunk).enumerate() {
                let f = &f;
                s.spawn(move || f(c * chunk, slice));
            }
        });
    }

    /// Runs `f` on every run of at most `run` consecutive items of
    /// `items`, in place. Run `r` goes to worker `r mod t` — the
    /// round-robin assignment of [`Exec::map_indexed`], which spreads a
    /// heavy head of the slice over all workers. `f` is expected to be a
    /// pure function of its run, so the result is independent of
    /// scheduling; with one worker (or one run) everything runs inline.
    pub fn for_each_run<T, F>(&self, items: &mut [T], run: usize, f: F)
    where
        T: Send,
        F: Fn(&mut [T]) + Sync,
    {
        let runs: Vec<&mut [T]> = items.chunks_mut(run.max(1)).collect();
        let t = self.threads.min(runs.len());
        if t <= 1 {
            runs.into_iter().for_each(f);
            return;
        }
        let mut shares: Vec<Vec<&mut [T]>> = (0..t).map(|_| Vec::new()).collect();
        for (r, items) in runs.into_iter().enumerate() {
            shares[r % t].push(items);
        }
        std::thread::scope(|s| {
            for share in shares {
                let f = &f;
                s.spawn(move || share.into_iter().for_each(f));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_item_order() {
        for threads in [1, 2, 3, 8, 64] {
            let exec = Exec::new(threads);
            let items: Vec<u64> = (0..57).collect();
            let out = exec.map_indexed(&items, |i, &x| (i as u64) * 1000 + x);
            let expect: Vec<u64> = (0..57).map(|i| i * 1000 + i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_handles_fewer_items_than_threads() {
        let exec = Exec::new(16);
        let out = exec.map_indexed(&[10, 20], |i, &x| i + x);
        assert_eq!(out, vec![10, 21]);
        let empty: Vec<i32> = exec.map_indexed(&[] as &[i32], |_, &x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn fill_chunks_covers_every_slot_once() {
        for threads in [1, 2, 5, 8] {
            let exec = Exec::new(threads);
            let mut out = vec![0usize; 103];
            exec.fill_chunks(&mut out, |start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + k;
                }
            });
            let expect: Vec<usize> = (0..103).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_run_covers_every_item_once() {
        for threads in [1, 2, 5, 8] {
            let exec = Exec::new(threads);
            for run in [1, 4, 200] {
                let mut items: Vec<(usize, usize)> = (0..103).map(|i| (i, 0)).collect();
                exec.for_each_run(&mut items, run, |chunk| {
                    for (i, seen) in chunk.iter_mut() {
                        *seen += *i + 1;
                    }
                });
                assert!(
                    items.iter().all(|&(i, seen)| seen == i + 1),
                    "threads = {threads}, run = {run}"
                );
            }
        }
        // An empty slice runs nothing and does not panic.
        Exec::new(4).for_each_run(&mut [] as &mut [u8], 8, |_| unreachable!());
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(Exec::new(0).threads() >= 1);
        assert_eq!(Exec::serial().threads(), 1);
    }
}
