//! A tiny **scoped, work-stealing-free** thread pool: [`scatter`] runs
//! `tasks` uniform jobs on up to `threads` workers and returns the
//! results **in task order**.
//!
//! Design constraints (and why this is ~100 lines, not a crate):
//!
//! * **Scoped.** Workers are `std::thread::scope` threads, so jobs may
//!   borrow the caller's stack — plans, the execution context, the
//!   accumulated IDB — with no `Arc`-wrapping of the engine state and no
//!   `'static` bounds. Every worker is joined before `scatter` returns,
//!   so a parallel region is a strict bracket around its borrows.
//! * **Work-stealing-free.** Jobs are claimed from one shared atomic
//!   counter in index order; there are no per-worker deques and no
//!   stealing, so the only synchronization is one `fetch_add` per job.
//!   The engine's tasks are coarse (a partition, a rule, a stratum), so
//!   claim contention is negligible and scheduling stays simple enough
//!   to reason about determinism: *which worker* runs a job can vary,
//!   but job `i`'s result always lands in slot `i`.
//! * **The caller works too.** `threads = 4` means the calling thread
//!   plus three spawned workers, so a `scatter` never idles the thread
//!   that owns the query.
//!
//! Worker threads hand their event counters
//! ([`crate::stats::counters`]) back to the caller on join, so
//! thread-local counting keeps working across parallel regions: counts
//! flow up to whichever thread called `scatter`, nested regions
//! included. With a [`PoolStats`] attached (an analyzed execution),
//! each worker also tallies the jobs it claimed and its busy
//! nanoseconds into its utilization slot — `None` costs nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::stats::PoolStats;

/// Runs `job(0..tasks)` on up to `threads` workers (calling thread
/// included), returning results in task order. With one worker or one
/// task this degenerates to a plain sequential loop — no threads are
/// spawned and no dispatch is counted (and no per-job utilization is
/// recorded: the inline path is not pool work).
// Task slots are pre-sized to `tasks`; each worker writes its own slot.
#[allow(clippy::indexing_slicing)]
pub(crate) fn scatter<T, F>(
    threads: usize,
    tasks: usize,
    pool: Option<&PoolStats>,
    job: &F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(tasks);
    if workers <= 1 {
        return (0..tasks).map(job).collect();
    }
    crate::stats::counters::count_dispatch(workers);

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let work = |w: usize| {
        let slot = pool.and_then(|p| p.slot(w));
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            match slot {
                Some(s) => {
                    // Busy time is inclusive of nested scatters the job
                    // performs — attribution, not a wall-clock partition.
                    let t0 = std::time::Instant::now();
                    *slots[i].lock() = Some(job(i));
                    s.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                None => {
                    *slots[i].lock() = Some(job(i));
                }
            }
        }
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                s.spawn(move || {
                    work(w);
                    // Fresh scoped threads start with zeroed counters, so
                    // the totals at exit are exactly this worker's share.
                    crate::stats::counters::export()
                })
            })
            .collect();
        work(0);
        for h in handles {
            // Re-raise a worker's panic with its original payload, so a
            // parallel-only failure keeps its real message and location.
            match h.join() {
                Ok(counts) => crate::stats::counters::absorb(counts),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task index was claimed once"))
        .collect()
}

/// Splits `len` items into at most `parts` contiguous ranges of
/// near-equal size, in order — the deterministic chunking every
/// partitioned probe/filter loop uses (chunk outputs concatenated in
/// range order reproduce the sequential output exactly).
pub(crate) fn chunks(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_returns_results_in_task_order() {
        let squares = scatter(4, 37, None, &|i| i * i);
        assert_eq!(squares.len(), 37);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn single_worker_runs_inline_without_dispatch() {
        crate::stats::counters::reset();
        let out = scatter(1, 8, None, &|i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(crate::stats::counters::dispatches(), 0);
    }

    #[test]
    fn single_task_runs_inline_without_dispatch() {
        crate::stats::counters::reset();
        let out = scatter(8, 1, None, &|i| i);
        assert_eq!(out, vec![0]);
        assert_eq!(crate::stats::counters::dispatches(), 0);
    }

    #[test]
    fn dispatch_and_fanout_are_counted() {
        crate::stats::counters::reset();
        let _ = scatter(3, 9, None, &|i| i);
        assert_eq!(crate::stats::counters::dispatches(), 1);
        assert_eq!(crate::stats::counters::max_fanout(), 3);
    }

    #[test]
    fn worker_counters_flow_back_to_the_caller() {
        use crate::indexed::IndexedRelation;
        use crate::stats::counters;
        use relviz_model::{DataType, Schema, Tuple};
        counters::reset();
        let batches: Vec<IndexedRelation> = (0..4)
            .map(|k| {
                IndexedRelation::new(
                    Schema::of(&[("a", DataType::Int)]),
                    vec![Tuple::of((k,))],
                )
            })
            .collect();
        // Each worker builds one index; the builds happen on pool
        // threads but must be visible to this (the calling) thread.
        let _ = scatter(4, 4, None, &|i| batches[i].index(&[0]).len());
        assert_eq!(counters::index_builds(), 4);
    }

    #[test]
    fn pool_stats_tally_every_claimed_job() {
        let pool = PoolStats::new_for_test(3);
        let _ = scatter(3, 9, Some(&pool), &|i| i);
        let (jobs, busy): (u64, u64) = (0..3)
            .filter_map(|w| pool.slot(w))
            .map(|s| s.totals_for_test())
            .fold((0, 0), |(j, b), (dj, db)| (j + dj, b + db));
        assert_eq!(jobs, 9, "every job lands in some worker's tally");
        assert!(busy > 0 || jobs > 0);
        // The inline degenerate path records nothing.
        let idle = PoolStats::new_for_test(1);
        let _ = scatter(1, 4, Some(&idle), &|i| i);
        assert_eq!(idle.slot(0).unwrap().totals_for_test().0, 0);
    }

    #[test]
    fn chunks_cover_the_range_in_order() {
        let cs = chunks(10, 3);
        assert_eq!(cs, vec![0..4, 4..7, 7..10]);
        assert_eq!(chunks(2, 8), vec![0..1, 1..2]);
        assert_eq!(chunks(0, 3), vec![0..0]);
    }
}
