//! Parallel sweep engine for independent simulation cells.
//!
//! Regenerating the paper's evaluation is a grid of hundreds of independent
//! deterministic runs — `(kernel, policy, preset, run-seed)` cells — each a
//! single-threaded [`crate::Machine`]. Because every cell is a pure function
//! of its inputs, fanning cells across OS threads and merging results **in
//! cell-index order** yields output bit-identical to the serial loop no
//! matter how the scheduler interleaves the workers. This is the same
//! property gem5's multi-queue event scheduling leans on: determinism per
//! unit of work makes throughput a scheduling problem, not a correctness
//! one.
//!
//! The engine is deliberately generic (`jobs: &[J]`, `f: Fn(&mut S, usize,
//! &J) -> R` over a per-worker state `S`) so the grid campaigns (`fa_bench::sweep`, through
//! [`run_cells_timed`], which every table and `fa ablation` ride) and the
//! fuzz campaign share the same worker pool. Workers pull the next
//! cell from a shared atomic cursor (work stealing by index), so long cells
//! do not convoy short ones.
//!
//! Scoped threads come from `std::thread::scope` — the standard library's
//! take on crossbeam's scoped threads — so borrowed jobs and closures need
//! no `'static` bound and no external dependency.

use crate::error::{CellFailure, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads to use when the caller passes `threads == 0`: the host's
/// available parallelism, or 1 if that cannot be determined.
fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 { default_threads() } else { requested };
    t.clamp(1, jobs.max(1))
}

/// Runs `f` over every job on `threads` worker threads and returns the
/// results in job order. `threads == 0` selects [`default_threads`];
/// `threads == 1` (or a single job) runs inline with no thread spawned.
/// Each worker builds its state once with `worker` and hands it to every
/// `f` it runs (the fuzz campaign's worker keeps one machine).
///
/// Each `f(state, index, job)` must be independent of every other cell and
/// of what earlier cells left in the state; under that contract the
/// returned vector is bit-identical to the serial
/// `jobs.iter().enumerate().map(..)` loop regardless of scheduling.
///
/// # Panics
///
/// Propagates the first worker panic (by job order at merge time).
pub(crate) fn run_cells<J, S, R>(
    jobs: &[J],
    threads: usize,
    worker: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &J) -> R + Sync,
) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    let threads = resolve_threads(threads, jobs.len());
    if threads == 1 {
        let mut state = worker();
        return jobs.iter().enumerate().map(|(i, j)| f(&mut state, i, j)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = worker();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let r = f(&mut state, i, job);
                    done.lock().expect("a worker panicked while merging").push((i, r));
                }
            });
        }
    });
    let mut merged = done.into_inner().expect("a worker panicked while merging");
    // Merge in cell-index order: this is what makes the parallel sweep
    // byte-identical to the serial loop.
    merged.sort_by_key(|&(i, _)| i);
    debug_assert!(merged.len() == jobs.len());
    merged.into_iter().map(|(_, r)| r).collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` once under per-cell isolation: a [`SimError`] it returns, or a
/// panic caught at this boundary, comes back as the cell's
/// [`CellFailure`]. A cell is a pure function of its inputs, so its failure
/// would repeat on every attempt; the caller quarantines it after this one.
///
/// The default panic hook still prints each caught panic to stderr; that
/// noise is deliberate (the campaign log should show what happened), and
/// replacing the global hook from concurrent sweep workers would race.
pub fn supervise<R>(f: impl FnOnce() -> Result<R, SimError>) -> Result<R, CellFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(CellFailure::Sim),
        Err(payload) => Err(CellFailure::Panic(panic_message(payload))),
    }
}

/// Wall-clock and simulated-throughput accounting for one sweep, the basis
/// of the repo's recorded perf trajectory (`BENCH_sweep.json`).
#[derive(Clone, Debug)]
pub struct SweepTiming {
    /// Cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep.
    pub wall: Duration,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Total committed instructions across all cells.
    pub sim_instructions: u64,
}

impl SweepTiming {
    /// Simulated cycles per wall-clock second (aggregate over all workers).
    pub fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulated MIPS: committed instructions per wall-clock microsecond.
    pub fn mips(&self) -> f64 {
        self.sim_instructions as f64 / self.wall.as_secs_f64().max(1e-9) / 1e6
    }
}

/// Runs `f` over every job on `threads` workers (0 = host parallelism),
/// results in job order and bit-identical to the serial loop, and returns
/// a [`SweepTiming`] whose simulated totals `account(&R) -> (cycles,
/// instructions)` accumulates from each result.
pub fn run_cells_timed<J, R>(
    jobs: &[J],
    threads: usize,
    f: impl Fn(usize, &J) -> R + Sync,
    account: impl Fn(&R) -> (u64, u64),
) -> (Vec<R>, SweepTiming)
where
    J: Sync,
    R: Send,
{
    let start = Instant::now();
    let results = run_cells(jobs, threads, || (), |(), i, j| f(i, j));
    let wall = start.elapsed();
    let (mut sim_cycles, mut sim_instructions) = (0u64, 0u64);
    for r in &results {
        let (c, i) = account(r);
        sim_cycles += c;
        sim_instructions += i;
    }
    let timing = SweepTiming {
        cells: jobs.len(),
        threads: resolve_threads(threads, jobs.len()),
        wall,
        sim_cycles,
        sim_instructions,
    };
    (results, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_cell_index_order() {
        let jobs: Vec<u64> = (0..57).collect();
        // Uneven cell costs exercise the work-stealing cursor.
        let f = |i: usize, &j: &u64| {
            let mut acc = j;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i as u64, j, acc)
        };
        let serial = run_cells(&jobs, 1, || (), |(), i, j| f(i, j));
        let parallel = run_cells(&jobs, 4, || (), |(), i, j| f(i, j));
        assert_eq!(serial, parallel);
        assert_eq!(parallel.len(), 57);
        assert!(parallel.iter().enumerate().all(|(i, r)| r.0 == i as u64));
    }

    #[test]
    fn zero_threads_means_auto_and_oversubscription_is_clamped() {
        let jobs = [1, 2, 3];
        let double = |(): &mut (), _, &j: &u64| j * 2;
        assert_eq!(run_cells(&jobs, 0, || (), double), vec![2, 4, 6]);
        // 64 threads over 3 jobs must not spawn idle workers or lose cells.
        assert_eq!(run_cells(&jobs, 64, || (), double), vec![2, 4, 6]);
        assert_eq!(run_cells(&[], 8, || (), double), Vec::<u64>::new());
    }

    #[test]
    fn supervise_returns_a_sim_error_after_one_call() {
        let mut calls = 0u32;
        let r: Result<u64, CellFailure> = supervise(|| {
            calls += 1;
            Err(SimError::InvalidMethodology { runs: 0, drop_slowest: 0 })
        });
        let invalid = SimError::InvalidMethodology { runs: 0, drop_slowest: 0 };
        assert_eq!(r, Err(CellFailure::Sim(invalid)));
        assert_eq!(calls, 1, "a failure that must repeat is not re-run");
        assert_eq!(supervise(|| Ok(7)), Ok(7));
    }

    #[test]
    fn supervise_catches_panics_and_preserves_the_message() {
        let r: Result<(), CellFailure> = supervise(|| panic!("wedged at cycle {}", 42));
        let failure = r.expect_err("panics must not unwind past supervise");
        assert_eq!(failure, CellFailure::Panic("wedged at cycle 42".to_string()));
    }

    #[test]
    fn supervised_sweep_quarantines_one_cell_and_completes_the_rest() {
        let jobs: Vec<u64> = (0..20).collect();
        let f = |_i: usize, &j: &u64| -> Result<u64, SimError> {
            if j == 13 {
                panic!("unlucky cell");
            }
            Ok(j * 10)
        };
        for threads in [1, 4] {
            let rs = run_cells(&jobs, threads, || (), |(), i, j| supervise(|| f(i, j)));
            assert_eq!(rs.len(), 20);
            for (i, r) in rs.iter().enumerate() {
                if i == 13 {
                    let failure = r.as_ref().expect_err("cell 13 panics");
                    assert_eq!(*failure, CellFailure::Panic("unlucky cell".to_string()));
                } else {
                    assert_eq!(*r, Ok(i as u64 * 10), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn timed_sweep_accounts_simulated_totals() {
        let jobs: Vec<u64> = (1..=10).collect();
        let (results, t) =
            run_cells_timed(&jobs, 2, |_, &j| (j * 100, j), |&(c, i)| (c, i));
        assert_eq!(results.len(), 10);
        assert_eq!(t.cells, 10);
        assert_eq!(t.threads, 2);
        assert_eq!(t.sim_cycles, 5500);
        assert_eq!(t.sim_instructions, 55);
        assert!(t.cycles_per_sec() > 0.0);
        assert!(t.mips() >= 0.0);
    }
}
