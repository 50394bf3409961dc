//! A scoped thread-pool trial runner.
//!
//! Every simulated trial in the evaluation is an independent, seeded,
//! deterministic run, so the per-cell/per-site/per-trial loops of the
//! bench harnesses are embarrassingly parallel. [`run_indexed`] fans an
//! indexed work list across `JSK_JOBS` workers (default: available
//! parallelism) with [`std::thread::scope`] — no external thread-pool
//! dependency — and returns results **in index order**, so parallel output
//! is bit-identical to a serial run.
//!
//! Work is distributed dynamically through a shared atomic cursor (cells
//! vary wildly in cost: a Loopscan trial simulates far more events than a
//! clock-edge probe), but since every item's seed is a pure function of
//! its index, the schedule never influences the results.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of bench workers: the `JSK_JOBS` knob, defaulting to the
/// machine's available parallelism (1 if that cannot be determined).
#[must_use]
pub fn jobs() -> usize {
    let default = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    jsk_sim::knob::env_knob("JSK_JOBS", default)
}

/// Number of serving shards for the sharded-fleet targets: the
/// `JSK_SHARDS` knob, default 4 (the chaos matrix's minimum — one shard
/// per fault class plus the baseline comparison). Invalid values warn and
/// fall back exactly like `JSK_JOBS`.
#[must_use]
pub fn shards() -> usize {
    jsk_sim::knob::env_knob("JSK_SHARDS", 4)
}

/// Runs `f(0) .. f(n-1)` across `jobs` scoped worker threads and returns
/// the results in index order.
///
/// With `jobs <= 1` (or `n <= 1`) the work runs serially on the calling
/// thread; either way the returned vector is identical, because each item
/// depends only on its index.
///
/// # Panics
///
/// Propagates a panic from any worker (the first one joined).
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, v) in part {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_in_order() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 8, 200] {
            assert_eq!(run_indexed(97, jobs, |i| i * i), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_work() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn zero_jobs_is_clamped_to_serial() {
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        let _ = run_indexed(50, 4, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn jobs_defaults_to_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn shards_defaults_to_positive() {
        assert!(shards() >= 1);
    }

    #[test]
    fn invalid_shard_knob_falls_back_with_warning() {
        // `JSK_SHARDS` rides the same parse/fallback path as `JSK_JOBS`:
        // unparsable or non-positive values yield the default (the warning
        // itself goes to stderr).
        use jsk_sim::knob::parse_knob;
        assert_eq!(parse_knob("JSK_SHARDS", "abc", 4), 4);
        assert_eq!(parse_knob("JSK_SHARDS", "0", 4), 4);
        assert_eq!(parse_knob("JSK_SHARDS", "-3", 4), 4);
        assert_eq!(parse_knob("JSK_SHARDS", "6", 4), 6);
    }
}
