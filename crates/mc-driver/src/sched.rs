//! Work-stealing scheduler for the driver's fan-out primitive.
//!
//! The driver distributes per-item work (file parses, `(unit, function)`
//! checks, summary waves, program-pass reruns) over a pool of scoped
//! threads. Each worker owns a bounded Chase-Lev deque pre-filled with a
//! contiguous block of task indices, pops locally from the bottom, and
//! steals from the top of a victim's deque when its own runs dry. Because
//! all tasks are known up front the deques never grow, which keeps the
//! implementation in safe Rust — the buffers are plain `AtomicUsize`
//! slots written once at construction, so the only synchronization that
//! matters is the `top` counter's compare-exchange (the linearization
//! point between a thief and the owner taking the last item).
//!
//! Scheduling never affects output: results land in per-index slots and
//! are merged in index order regardless of which worker ran what.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// Counters accumulated across every pool fan-out of a driver.
///
/// Retrieved (and reset) with `Driver::take_sched_stats`; the `perf` bin
/// records them for the scale-10 cold check in `BENCH_driver.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of pool fan-outs (one per `pool_map` call that ran work).
    pub pools: u64,
    /// Total task indices executed.
    pub tasks: u64,
    /// Tasks a worker took from another worker's deque.
    pub steals: u64,
    /// Individual steal probes, successful or not.
    pub steal_attempts: u64,
    /// Nanoseconds workers spent sweeping for work without running any.
    pub idle_ns: u64,
    /// Tasks executed per worker slot, summed across fan-outs.
    pub tasks_per_worker: Vec<u64>,
}

impl SchedStats {
    /// Folds another accumulator into this one (summing per-worker
    /// slots), so a harness can aggregate stats across several drivers.
    pub fn merge(&mut self, other: &SchedStats) {
        self.pools += other.pools;
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.steal_attempts += other.steal_attempts;
        self.idle_ns += other.idle_ns;
        if self.tasks_per_worker.len() < other.tasks_per_worker.len() {
            self.tasks_per_worker
                .resize(other.tasks_per_worker.len(), 0);
        }
        for (w, v) in other.tasks_per_worker.iter().enumerate() {
            self.tasks_per_worker[w] += v;
        }
    }

    /// Folds one fan-out's per-worker logs into the running totals.
    pub(crate) fn absorb(&mut self, logs: &[WorkerLog]) {
        self.pools += 1;
        if self.tasks_per_worker.len() < logs.len() {
            self.tasks_per_worker.resize(logs.len(), 0);
        }
        for (w, log) in logs.iter().enumerate() {
            self.tasks += log.executed;
            self.steals += log.steals;
            self.steal_attempts += log.attempts;
            self.idle_ns += log.idle_ns;
            self.tasks_per_worker[w] += log.executed;
        }
    }
}

/// One worker's view of a single fan-out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerLog {
    pub(crate) executed: u64,
    pub(crate) steals: u64,
    pub(crate) attempts: u64,
    pub(crate) idle_ns: u64,
}

/// Outcome of a steal probe.
enum Steal {
    /// Took this task index.
    Taken(usize),
    /// The victim's deque was empty.
    Empty,
    /// Lost a race on `top`; the caller may probe again.
    Retry,
}

/// A bounded single-owner, multi-thief deque of task indices.
///
/// The buffer is filled once at construction and never grows, so slot
/// contents are immutable while threads run; `top`/`bottom` are the only
/// mutable state. `top` is monotonically increasing, which rules out ABA
/// on the compare-exchange.
struct Deque {
    buf: Vec<usize>,
    top: AtomicIsize,
    bottom: AtomicIsize,
}

impl Deque {
    fn new(items: Vec<usize>) -> Deque {
        let len = items.len() as isize;
        Deque {
            buf: items,
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(len),
        }
    }

    /// Owner-side pop from the bottom. Only the owning worker calls this.
    fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t > b {
            // Already empty; restore bottom for any concurrent thief.
            self.bottom.store(b + 1, Ordering::SeqCst);
            return None;
        }
        let item = self.buf[b as usize];
        if t == b {
            // Last item: race the thieves on `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            self.bottom.store(b + 1, Ordering::SeqCst);
            return won.then_some(item);
        }
        Some(item)
    }

    /// Thief-side steal from the top.
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        if t >= b {
            return Steal::Empty;
        }
        let item = self.buf[t as usize];
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            Steal::Taken(item)
        } else {
            Steal::Retry
        }
    }
}

/// Runs `exec` over every index in `0..n` using `workers` threads with
/// work stealing, returning per-worker logs. `exec` is called exactly once
/// per index; no ordering is guaranteed (callers merge by index slot).
///
/// Task indices are dealt out in contiguous blocks (worker `w` owns block
/// `w`) for locality; owners drain their block in ascending order and
/// thieves take from the high end of a victim's remaining range.
pub(crate) fn run_stealing<E>(n: usize, workers: usize, exec: E) -> Vec<WorkerLog>
where
    E: Fn(usize) + Sync,
{
    let deques: Vec<Deque> = (0..workers)
        .map(|w| {
            let lo = w * n / workers;
            let hi = (w + 1) * n / workers;
            // Push in reverse so the owner pops ascending indices.
            Deque::new((lo..hi).rev().collect())
        })
        .collect();
    let logs: Vec<std::sync::OnceLock<WorkerLog>> =
        (0..workers).map(|_| std::sync::OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for (w, slot) in logs.iter().enumerate() {
            let deques = &deques;
            let exec = &exec;
            scope.spawn(move || {
                let mut log = WorkerLog::default();
                let me = &deques[w];
                loop {
                    if let Some(i) = me.pop() {
                        exec(i);
                        log.executed += 1;
                        continue;
                    }
                    // Own deque dry: sweep the other workers for a task.
                    let sweep = Instant::now();
                    let mut stolen = None;
                    'sweep: for k in 1..deques.len() {
                        let victim = &deques[(w + k) % deques.len()];
                        loop {
                            log.attempts += 1;
                            match victim.steal() {
                                Steal::Taken(i) => {
                                    stolen = Some(i);
                                    break 'sweep;
                                }
                                Steal::Empty => break,
                                Steal::Retry => {}
                            }
                        }
                    }
                    log.idle_ns += sweep.elapsed().as_nanos() as u64;
                    match stolen {
                        Some(i) => {
                            exec(i);
                            log.executed += 1;
                            log.steals += 1;
                        }
                        // Every deque is empty and tasks are never re-queued,
                        // so there is nothing left to do.
                        None => break,
                    }
                }
                let _ = slot.set(log);
            });
        }
    });
    logs.into_iter()
        .map(|s| s.into_inner().unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_index_runs_exactly_once() {
        for &(n, workers) in &[(0usize, 4usize), (1, 4), (7, 2), (64, 4), (1000, 8)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let logs = run_stealing(n, workers.max(1), |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "n={n} workers={workers}: some index ran 0 or 2+ times"
            );
            let total: u64 = logs.iter().map(|l| l.executed).sum();
            assert_eq!(total, n as u64);
        }
    }

    #[test]
    fn imbalanced_load_steals() {
        // Worker 0's block is all the slow tasks; with stealing the other
        // workers should take some of them. Use a spin of meaningful but
        // bounded work so the test stays fast.
        let n = 64;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let logs = run_stealing(n, 4, |i| {
            if i < 16 {
                // Slow block owned by worker 0.
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                assert!(acc != 1); // keep the loop alive
            }
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        let steals: u64 = logs.iter().map(|l| l.steals).sum();
        assert!(steals > 0, "expected at least one steal under imbalance");
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut stats = SchedStats::default();
        stats.absorb(&[
            WorkerLog {
                executed: 3,
                steals: 1,
                attempts: 2,
                idle_ns: 10,
            },
            WorkerLog {
                executed: 5,
                steals: 0,
                attempts: 4,
                idle_ns: 20,
            },
        ]);
        stats.absorb(&[WorkerLog {
            executed: 2,
            steals: 2,
            attempts: 2,
            idle_ns: 5,
        }]);
        assert_eq!(stats.pools, 2);
        assert_eq!(stats.tasks, 10);
        assert_eq!(stats.steals, 3);
        assert_eq!(stats.steal_attempts, 8);
        assert_eq!(stats.idle_ns, 35);
        assert_eq!(stats.tasks_per_worker, vec![5, 5]);
    }
}
