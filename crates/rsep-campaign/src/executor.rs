//! Deterministic parallel cell executor.
//!
//! The campaign engine reduces an experiment grid to a list of independent
//! *cells* (pure functions of their index). [`Executor::run`] fans those
//! cells out across `std::thread` workers over channels and collects the
//! outputs **by cell index**, so the returned vector — and everything
//! derived from it — is identical at any thread count. Work distribution is
//! dynamic (workers pull the next index from a shared queue as they finish),
//! which load-balances the grid even when cells have very different costs
//! (e.g. `perlbench` checkpoints simulate slower than `libquantum` ones).

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Instrumentation collected by one [`Executor::run`] call.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Number of cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Sum of per-cell execution times (the serial-equivalent cost).
    pub busy: Duration,
}

impl ExecStats {
    /// Parallel efficiency: serial-equivalent time over wall time.
    /// ~`jobs` when the grid scales perfectly, ~1.0 when serial.
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// Fans independent cells across worker threads.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
    progress: bool,
}

impl Executor {
    /// Creates an executor with an explicit worker count (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Executor {
        Executor { jobs: jobs.max(1), progress: false }
    }

    /// Uses the machine's available parallelism.
    pub fn auto() -> Executor {
        Executor::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Enables progress lines on stderr, with a completion rate and an
    /// ETA (`[done/total] cells  12.3 cells/s  ETA 8s`). They go to stderr
    /// only, so report output is byte-identical with progress on or off.
    pub fn with_progress(mut self, progress: bool) -> Executor {
        self.progress = progress;
        self
    }

    /// Worker threads this executor uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes `cell(0..cells)` and returns the outputs indexed by cell,
    /// plus timing instrumentation. `cell` must be a pure function of its
    /// index for the determinism guarantee to hold.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> (Vec<T>, ExecStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let indices: Vec<usize> = (0..cells).collect();
        let (slots, stats) = self.run_streamed(cells, &indices, cell, &mut |_, _| true);
        let out: Vec<T> =
            slots.into_iter().map(|slot| slot.expect("every cell completed")).collect();
        (out, stats)
    }

    /// Executes only `indices` (a subset of the `0..total` grid) and places
    /// the outputs into an index-aligned slot vector; the other slots stay
    /// `None`. This is how a resumed campaign skips cells a
    /// [`ResultStore`](crate::store::ResultStore) already holds.
    ///
    /// `sink` observes every completed cell **in completion order**, on the
    /// collecting thread, while workers keep running — the streaming hook a
    /// store uses to persist cells as they finish, so a crash loses at most
    /// the in-flight cells. Returning `false` from the sink cancels the
    /// run: no further cells are scheduled (in-flight cells finish but are
    /// not delivered), so a failing store does not burn hours simulating
    /// results it can no longer persist. `ExecStats::cells` counts executed
    /// cells only.
    pub fn run_streamed<T, F>(
        &self,
        total: usize,
        indices: &[usize],
        cell: F,
        sink: &mut dyn FnMut(usize, &T) -> bool,
    ) -> (Vec<Option<T>>, ExecStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "progress timing only; never reaches results"
        )]
        let start = Instant::now();
        let cells = indices.len();
        let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        let jobs = self.jobs.min(cells.max(1));
        if jobs <= 1 {
            let mut busy = Duration::ZERO;
            for (done, &index) in indices.iter().enumerate() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "progress timing only; never reaches results"
                )]
                let cell_start = Instant::now();
                let value = cell(index);
                busy += cell_start.elapsed();
                let keep_going = sink(index, &value);
                slots[index] = Some(value);
                self.report_progress(done + 1, cells, start);
                if !keep_going {
                    break;
                }
            }
            let stats = ExecStats { cells, jobs: 1, wall: start.elapsed(), busy };
            return (slots, stats);
        }

        // Task queue: every index pre-loaded, workers pull until drained.
        let (task_tx, task_rx) = mpsc::channel::<usize>();
        for &index in indices {
            task_tx.send(index).expect("queue accepts all cells");
        }
        drop(task_tx);
        let task_rx = Mutex::new(task_rx);

        let (result_tx, result_rx) = mpsc::channel::<(usize, Duration, T)>();
        let mut busy = Duration::ZERO;

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let result_tx = result_tx.clone();
                let task_rx = &task_rx;
                let cell = &cell;
                scope.spawn(move || loop {
                    // Hold the lock only for the pull, not the work.
                    let index = match task_rx.lock().expect("queue lock").try_recv() {
                        Ok(index) => index,
                        Err(_) => break,
                    };
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "progress timing only; never reaches results"
                    )]
                    let cell_start = Instant::now();
                    let value = cell(index);
                    if result_tx.send((index, cell_start.elapsed(), value)).is_err() {
                        break;
                    }
                });
            }
            drop(result_tx);
            let mut done = 0usize;
            for (index, took, value) in result_rx {
                let keep_going = sink(index, &value);
                slots[index] = Some(value);
                busy += took;
                done += 1;
                self.report_progress(done, cells, start);
                if !keep_going {
                    // Cancel: drain the task queue so workers stop after
                    // their current cell, then stop collecting (workers
                    // exit when their result send fails).
                    while task_rx.lock().expect("queue lock").try_recv().is_ok() {}
                    break;
                }
            }
        });

        let stats = ExecStats { cells, jobs, wall: start.elapsed(), busy };
        (slots, stats)
    }

    fn report_progress(&self, done: usize, total: usize, start: Instant) {
        // Throttle to ~20 updates per campaign so huge grids stay readable.
        let step = (total / 20).max(1);
        if !self.progress || (!done.is_multiple_of(step) && done != total) {
            return;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        let eta = if rate > 0.0 { ((total - done) as f64 / rate).ceil() as u64 } else { 0 };
        eprintln!("[{done}/{total}] cells  {rate:.1} cells/s  ETA {eta}s");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_are_indexed_regardless_of_jobs() {
        let f = |i: usize| i * i;
        for jobs in [1, 2, 4, 8, 32] {
            let (out, stats) = Executor::new(jobs).run(100, f);
            assert_eq!(out, (0..100).map(f).collect::<Vec<_>>(), "jobs = {jobs}");
            assert_eq!(stats.cells, 100);
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let (out, _) = Executor::new(4).run(57, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn zero_cells_is_fine() {
        let (out, stats) = Executor::new(8).run(0, |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn uneven_cell_costs_still_collect_in_order() {
        let (out, _) = Executor::new(4).run(16, |i| {
            // Earlier indices sleep longer, so later cells finish first.
            std::thread::sleep(Duration::from_millis((16 - i) as u64));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_is_clamped() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert!(Executor::auto().jobs() >= 1);
    }

    #[test]
    fn streamed_run_executes_only_the_requested_indices() {
        for jobs in [1, 4] {
            let mut seen = Vec::new();
            let indices = [1usize, 3, 5];
            let (slots, stats) =
                Executor::new(jobs).run_streamed(6, &indices, |i| i * 10, &mut |index, value| {
                    seen.push((index, *value));
                    true
                });
            assert_eq!(stats.cells, 3, "jobs = {jobs}");
            assert_eq!(slots, vec![None, Some(10), None, Some(30), None, Some(50)]);
            seen.sort_unstable();
            assert_eq!(seen, vec![(1, 10), (3, 30), (5, 50)]);
        }
    }

    #[test]
    fn sink_sees_every_cell_exactly_once() {
        let indices: Vec<usize> = (0..40).collect();
        let mut count = 0usize;
        let (_, stats) = Executor::new(8).run_streamed(40, &indices, |i| i, &mut |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 40);
        assert_eq!(stats.cells, 40);
    }

    #[test]
    fn a_cancelling_sink_stops_scheduling_new_cells() {
        // A failing store must not let a large grid burn CPU for results
        // that can no longer be persisted. Cells sleep to model real
        // simulation cost — instant cells would drain the queue before the
        // collector gets a chance to cancel.
        let executed = AtomicUsize::new(0);
        for jobs in [1usize, 4] {
            executed.store(0, Ordering::SeqCst);
            let total = 64usize;
            let indices: Vec<usize> = (0..total).collect();
            let mut delivered = 0usize;
            Executor::new(jobs).run_streamed(
                total,
                &indices,
                |i| {
                    executed.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    i
                },
                &mut |_, _| {
                    delivered += 1;
                    false // cancel after the first delivered cell
                },
            );
            assert_eq!(delivered, 1, "jobs = {jobs}");
            // Only cells pulled before the cancel drained the queue ran — a
            // handful of in-flight cells, not the remaining grid.
            let ran = executed.load(Ordering::SeqCst);
            assert!(ran < total / 2, "jobs = {jobs}: {ran} of {total} cells ran after cancel");
        }
    }
}
