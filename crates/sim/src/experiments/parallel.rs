//! Deterministic parallel execution of experiment cells.
//!
//! A sweep is a grid of independent cells — (workload × mechanism × NRH),
//! each one full simulation. Cells share no mutable state and derive all of
//! their randomness from their own identity (runner seed, workload name, core
//! index, mechanism seed), so executing them concurrently cannot change any
//! result: a parallel sweep is bit-identical to the serial one, cell for
//! cell. [`ParallelExecutor`] fans cells out over a fixed-size pool of worker
//! threads and returns results in submission order.
//!
//! The build environment has no access to crates.io, so this is a small
//! `std::thread::scope`-based stand-in for a rayon `par_iter`: workers claim
//! cell indices from a shared atomic counter (work stealing at cell
//! granularity) and collect `(index, result)` pairs that are merged back in
//! order after the scope joins.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Fans independent work items out over a fixed number of worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor using every available core.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_threads(threads)
    }

    /// A serial executor (one worker, no threads spawned) — the reference
    /// the determinism tests compare the parallel path against.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An executor with an explicit worker count (`0` is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        ParallelExecutor { threads: threads.max(1) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `work` to every item, returning results in item order.
    ///
    /// `work` receives the item's index alongside the item so cells can
    /// derive per-cell labels or seeds from their position in the grid.
    pub fn run<T, R, F>(&self, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        match self.try_run(items, |index, item| Ok::<_, std::convert::Infallible>(work(index, item))) {
            Ok(results) => results,
            Err(never) => match never {},
        }
    }

    /// Applies a fallible `work` to every item. Once any cell fails, workers
    /// stop claiming new cells (remaining simulations are skipped, not run
    /// and discarded) and the error of the lowest-indexed cell that failed
    /// among those executed is returned. On the serial path this is exactly
    /// the first failing item.
    pub fn try_run<T, R, E, F>(&self, items: &[T], work: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        if self.threads == 1 || items.len() == 1 {
            let mut results = Vec::with_capacity(items.len());
            for (index, item) in items.iter().enumerate() {
                results.push(work(index, item)?);
            }
            return Ok(results);
        }

        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let workers = self.threads.min(items.len());
        let mut slots: Vec<Option<Result<R, E>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= items.len() {
                                break;
                            }
                            let result = work(index, &items[index]);
                            if result.is_err() {
                                failed.store(true, Ordering::Relaxed);
                            }
                            local.push((index, result));
                        }
                        local
                    })
                })
                .collect();
            let mut slots: Vec<Option<Result<R, E>>> = (0..items.len()).map(|_| None).collect();
            for handle in handles {
                for (index, result) in handle.join().expect("experiment worker panicked") {
                    slots[index] = Some(result);
                }
            }
            slots
        });

        // Report the lowest-indexed executed error, if any.
        if let Some(slot) = slots.iter_mut().find(|s| matches!(s, Some(Err(_)))) {
            match slot.take() {
                Some(Err(error)) => return Err(error),
                _ => unreachable!("slot matched Some(Err(_)) above"),
            }
        }
        Ok(slots
            .iter_mut()
            .map(|slot| {
                slot.take()
                    .expect("with no failure observed, every cell was claimed by exactly one worker")
                    .unwrap_or_else(|_| unreachable!("error slots were handled above"))
            })
            .collect())
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let executor = ParallelExecutor::with_threads(7);
        let doubled = executor.run(&items, |index, &item| {
            assert_eq!(index as u64, item);
            item * 2
        });
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let items: Vec<u64> = (0..100).collect();
        let work = |_: usize, &item: &u64| item.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = ParallelExecutor::serial().run(&items, work);
        let parallel = ParallelExecutor::with_threads(8).run(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_run_reports_the_lowest_indexed_error() {
        let items: Vec<u64> = (0..64).collect();
        let executor = ParallelExecutor::with_threads(8);
        let result: Result<Vec<u64>, String> =
            executor.try_run(
                &items,
                |_, &item| {
                    if item % 10 == 7 {
                        Err(format!("bad item {item}"))
                    } else {
                        Ok(item)
                    }
                },
            );
        // Cell 7 is always claimed before any failure can be observed (no
        // error exists at a lower index), so the reported error is stable
        // even though later cells may be skipped once the failure lands.
        assert_eq!(result.unwrap_err(), "bad item 7");
    }

    #[test]
    fn try_run_skips_remaining_cells_after_a_failure() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..10_000).collect();
        let executed = AtomicUsize::new(0);
        let result: Result<Vec<u64>, String> =
            ParallelExecutor::with_threads(4).try_run(&items, |_, &item| {
                executed.fetch_add(1, Ordering::Relaxed);
                if item == 0 {
                    Err("early failure".to_string())
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(item)
                }
            });
        assert_eq!(result.unwrap_err(), "early failure");
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < items.len() / 2, "workers must stop claiming cells after a failure (ran {ran})");
    }

    #[test]
    fn zero_threads_is_clamped_and_empty_input_is_fine() {
        let executor = ParallelExecutor::with_threads(0);
        assert_eq!(executor.threads(), 1);
        let nothing: Vec<u8> = Vec::new();
        assert!(executor.run(&nothing, |_, &b| b).is_empty());
    }
}
