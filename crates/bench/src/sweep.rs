//! Parallel sweep execution for the experiment binaries.
//!
//! Every figure/table of the paper is a *sweep*: a list of independent
//! simulation points (load × mix × router config) whose results fill a
//! table. [`SweepRunner`] fans such a list across a pool of scoped
//! threads, capped by `--jobs N` (default: all available cores). An
//! interrupted sweep restarts with `--resume` from its points'
//! checkpoints; see [`crate::RunArgs::resume`].
//!
//! # Determinism
//!
//! Results are **bit-identical at any job count**:
//!
//! * each task's RNG seed is derived from `(base_seed, task_index)` alone
//!   via [`derive_seed`] — never from which worker ran it or when;
//! * results come back in task order regardless of completion order
//!   ([`SweepRunner::for_each_in_order`] holds back only those that
//!   finished ahead of an earlier task).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::RunArgs;

/// The splitmix64 output finalizer.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed for sweep task `index` from the sweep's base
/// seed. A splitmix64 finalizer over the pair: adjacent indices give
/// statistically independent streams, and the result depends only on
/// `(base_seed, index)` — not on scheduling.
///
/// The base seed is finalized *before* the index is mixed in. Combining
/// them linearly in one pre-image (`base + index·M`) made structurally
/// related pairs collide exactly — `(b, i)` and `(b + M, i − 1)` produced
/// identical seeds, so two sweeps with related `--seed` values silently
/// shared replica streams. Avalanching the base first leaves no linear
/// relation for the index term to cancel.
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    let h = splitmix_finalize(base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    splitmix_finalize(h.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// One unit of sweep work: which point, and the seed to run it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepTask {
    /// Position in the sweep's task list (also the result slot).
    pub index: usize,
    /// Seed derived from `(base_seed, index)`; see [`derive_seed`].
    pub seed: u64,
}

/// Fans independent simulation points across worker threads.
///
/// # Example
///
/// ```
/// use mediaworm_bench::sweep::SweepRunner;
///
/// let runner = SweepRunner::new(4, 42);
/// let squares = runner.map(8, |task| (task.index * task.index, task.seed));
/// // Input order is preserved and seeds depend only on the index, so the
/// // same call with 1 job gives the identical vector.
/// assert_eq!(squares, SweepRunner::new(1, 42).map(8, |t| (t.index * t.index, t.seed)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
    base_seed: u64,
}

impl SweepRunner {
    /// A runner using at most `jobs` worker threads and deriving task
    /// seeds from `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn new(jobs: usize, base_seed: u64) -> SweepRunner {
        assert!(jobs >= 1, "a sweep needs at least one worker");
        SweepRunner { jobs, base_seed }
    }

    /// A runner configured from the command-line arguments: job count
    /// from `--jobs` or else the available parallelism, base seed from
    /// `--seed`.
    pub fn from_args(args: &RunArgs) -> SweepRunner {
        SweepRunner::new(args.effective_jobs(), args.seed)
    }

    /// Runs every one of `count` tasks through `f` and returns the results
    /// in task order.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(SweepTask) -> T + Sync,
    {
        let mut out = Vec::with_capacity(count);
        self.for_each_in_order(count, f, |value| out.push(value));
        out
    }

    /// Runs every one of `count` tasks through `f` and hands each result
    /// to `done` in task order: a result is handed over as soon as every
    /// earlier task's has been, so only results that finished ahead of an
    /// unfinished earlier task wait in memory. `done` runs on the calling
    /// thread.
    ///
    /// Workers self-schedule off a shared atomic counter, so an expensive
    /// point does not hold up the queue behind it. `f` must not rely on
    /// execution order — only on its [`SweepTask`].
    pub fn for_each_in_order<T, F, D>(&self, count: usize, f: F, mut done: D)
    where
        T: Send,
        F: Fn(SweepTask) -> T + Sync,
        D: FnMut(T),
    {
        let task = |index: usize| SweepTask {
            index,
            seed: derive_seed(self.base_seed, index as u64),
        };
        let workers = self.jobs.min(count);
        if workers <= 1 {
            for i in 0..count {
                done(f(task(i)));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (tx, f, task, next) = (tx.clone(), &f, &task, &next);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // A send fails only after `done` panicked and dropped
                    // the receiver; the scope rethrows that panic.
                    let _ = tx.send((i, f(task(i))));
                });
            }
            drop(tx);
            // Results that finished out of order, keyed by task index.
            let mut early = BTreeMap::new();
            let mut head = 0;
            for (i, value) in rx {
                early.insert(i, value);
                while let Some(value) = early.remove(&head) {
                    done(value);
                    head += 1;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let r = SweepRunner::new(8, 7);
        let out = r.map(100, |t| t.index * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_depend_only_on_index() {
        let a = SweepRunner::new(1, 42).map(16, |t| t.seed);
        let b = SweepRunner::new(8, 42).map(16, |t| t.seed);
        assert_eq!(a, b);
        // All distinct (splitmix64 is a bijection, but check the mix too).
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn different_base_seeds_give_different_streams() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
    }

    #[test]
    fn structurally_related_pairs_do_not_collide() {
        // Regression: with the old linear pre-image `base + index·M`,
        // (b, i) and (b + M, i − 1) collided exactly for every b and i.
        const M: u64 = 0xBF58_476D_1CE4_E5B9;
        for b in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX / 2] {
            for i in 1u64..8 {
                assert_ne!(
                    derive_seed(b, i),
                    derive_seed(b.wrapping_add(M), i - 1),
                    "b={b} i={i}"
                );
            }
        }
        // Same trap for the golden-ratio constant now used on the index.
        const G: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 1u64..8 {
            assert_ne!(derive_seed(7, i), derive_seed(7u64.wrapping_add(G), i - 1));
        }
    }

    #[test]
    fn cross_pair_grid_is_collision_free() {
        // 64 bases × 64 indices: every (base, index) pair gets a distinct
        // seed, including across bases (cross-pair, not just per-sweep).
        let mut seen = std::collections::HashSet::new();
        for b in 0u64..64 {
            for i in 0u64..64 {
                assert!(
                    seen.insert(derive_seed(b * 0x10_0001, i)),
                    "collision at b={b} i={i}"
                );
            }
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let r = SweepRunner::new(4, 0);
        let out: Vec<u64> = r.map(0, |t| t.seed);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_panics() {
        let _ = SweepRunner::new(0, 0);
    }
}
