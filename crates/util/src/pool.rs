//! A std-only worker pool for CPU-bound batch work.
//!
//! The ingest pipeline (chunk → hash → encode) fans per-segment work
//! out across cores. Everything here is deterministic from the
//! caller's point of view: [`WorkerPool::par_map_indexed`] preserves
//! input order by collecting results by index, so the output is
//! byte-identical whatever the thread count or OS scheduling — the
//! property the same-seed experiment gates rely on.
//!
//! Workers are spawned per batch via [`std::thread::scope`], which
//! lets the mapped closure borrow from the caller with no `'static`
//! bound (and therefore no defensive copies). For the work sizes this
//! pool exists for — hashing and erasure-coding megabyte-scale
//! segments — thread spawn cost is noise; a persistent pool would buy
//! nothing but lifetime contortions.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sync::Mutex;

/// A fixed-width worker pool over OS threads.
///
/// # Examples
///
/// ```
/// use unidrive_util::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.par_map_indexed(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1). One worker
    /// means strictly inline execution on the calling thread.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning results **in input
    /// order** regardless of which worker ran which item.
    ///
    /// Items are claimed atomically one at a time, so uneven item costs
    /// balance across workers. The calling thread participates, so a
    /// 1-thread pool (or a single item) degenerates to a plain
    /// sequential map with no spawn or synchronization at all.
    ///
    /// # Panics
    ///
    /// A panic inside `f` propagates to the caller (via
    /// [`std::thread::scope`]).
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        let run = |_worker: usize| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                local.push((i, f(i, &items[i])));
            }
            if !local.is_empty() {
                collected.lock().append(&mut local);
            }
        };
        let helpers = self.threads.min(items.len()) - 1;
        std::thread::scope(|s| {
            for w in 0..helpers {
                let run = &run;
                s.spawn(move || run(w + 1));
            }
            run(0);
        });
        let mut collected = collected.into_inner();
        debug_assert_eq!(collected.len(), items.len());
        collected.sort_unstable_by_key(|&(i, _)| i);
        collected.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.par_map_indexed(&items, |i, &x| {
                assert_eq!(i as u32, x);
                x * 2 + 1
            });
            assert_eq!(out, items.iter().map(|&x| x * 2 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_output_across_thread_counts() {
        // The determinism property the ingest pipeline depends on.
        let items: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 1000 + i as usize]).collect();
        let digest =
            |_: usize, v: &Vec<u8>| v.iter().fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64));
        let reference = WorkerPool::new(1).par_map_indexed(&items, digest);
        for threads in [2, 4, 8] {
            assert_eq!(
                WorkerPool::new(threads).par_map_indexed(&items, digest),
                reference
            );
        }
    }

    #[test]
    fn handles_edge_sizes() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.par_map_indexed(&[] as &[u8], |_, &b| b), Vec::<u8>::new());
        assert_eq!(pool.par_map_indexed(&[7u8], |i, &b| (i, b)), vec![(0, 7)]);
        // More threads than items.
        assert_eq!(
            pool.par_map_indexed(&[1u8, 2], |_, &b| b as u32),
            vec![1, 2]
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn uneven_work_items_all_complete() {
        let items: Vec<usize> = (0..200).map(|i| (i * 7919) % 5000).collect();
        let pool = WorkerPool::new(8);
        let out = pool.par_map_indexed(&items, |_, &n| {
            // Busy-ish loop with data dependence so it is not optimized
            // away; cost varies per item.
            let mut acc = 1u64;
            for j in 0..n {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
            }
            acc
        });
        assert_eq!(out.len(), items.len());
        let reference = WorkerPool::new(1).par_map_indexed(&items, |_, &n| {
            let mut acc = 1u64;
            for j in 0..n {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
            }
            acc
        });
        assert_eq!(out, reference);
    }
}
