//! A std-only work-stealing worker pool for embarrassingly parallel maps.
//!
//! Sweep cells are independent deterministic simulations of wildly varying
//! cost (a 13B-parameter FSDP cell simulates ~50× longer than a 1.3B
//! pipeline cell), so static partitioning leaves workers idle. Each worker
//! owns a deque seeded round-robin; it pops work from its own front and,
//! when empty, steals from the *back* of the fullest other deque — the
//! classic work-stealing discipline, built only on `std::thread` and
//! `Mutex<VecDeque>` (the deques are touched once per cell, so lock traffic
//! is negligible next to a cell's multi-millisecond simulation).
//!
//! Results are collected by input index, so `map` always returns outputs in
//! input order regardless of which worker computed what — the determinism
//! anchor the grid executor's bit-identical-to-serial guarantee rests on.

use crate::guard::{run_cell, CellCtx, CellFailure, GuardConfig};
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Mutex;

/// A panic captured from one item's closure by [`Pool::try_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload rendered to text (`&str`/`String` payloads; other
    /// payload types get a placeholder).
    pub message: String,
}

impl WorkerPanic {
    pub(crate) fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        WorkerPanic { message }
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// A fixed-width worker pool.
///
/// The pool holds no threads between calls: [`Pool::map`] spawns scoped
/// workers and joins them before returning, so borrowed items and closures
/// need no `'static` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine: `std::thread::available_parallelism`,
    /// falling back to 1 where the platform cannot say.
    pub fn with_available_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order.
    ///
    /// `f` must be deterministic for the pool to preserve the grid
    /// subsystem's parallel-equals-serial guarantee; the pool itself never
    /// reorders, drops, or duplicates items.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_map(items, f)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(p) => panic!("{p}"),
            })
            .collect()
    }

    /// Like [`Pool::map`], but a panicking closure fails only that item's
    /// result slot instead of tearing down the whole sweep: the panic is
    /// caught on the worker, rendered into a [`WorkerPanic`], and returned
    /// in input order alongside the successes. The worker thread survives
    /// and moves on to its next item.
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, WorkerPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.schedule(items, |item: &T| {
            std::panic::catch_unwind(AssertUnwindSafe(|| f(item)))
                .map_err(WorkerPanic::from_payload)
        })
    }

    /// Like [`Pool::try_map`], but every item runs under `guard`: per-cell
    /// deadlines with cooperative cancellation (the closure receives the
    /// cell's [`CellCtx`]). Each slot carries the value or a typed
    /// [`CellFailure`], in input order. With the default [`GuardConfig`]
    /// this is exactly [`Pool::try_map`] wearing a richer error type.
    pub fn try_map_guarded<T, R, F>(
        &self,
        items: &[T],
        guard: &GuardConfig,
        f: F,
    ) -> Vec<Result<R, CellFailure>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &CellCtx) -> R + Sync,
    {
        self.schedule(items, |item: &T| run_cell(guard, |ctx| f(item, ctx)))
    }

    /// The work-stealing scheduler shared by every map flavor: applies
    /// `call` (which must not unwind — the callers wrap panics themselves)
    /// to each item and collects results by input index.
    fn schedule<T, R, C>(&self, items: &[T], call: C) -> Vec<R>
    where
        T: Sync,
        R: Send,
        C: Fn(&T) -> R + Sync,
    {
        let m = crate::metrics::grid_metrics();
        m.pool_tasks.add(items.len() as u64);
        let workers = self.workers.min(items.len());
        m.pool_workers.set(workers.max(1) as i64);
        if workers <= 1 {
            return items.iter().map(call).collect();
        }

        // Round-robin initial distribution of item indices.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
            .collect();

        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let deques = &deques;
                let call = &call;
                scope.spawn(move || {
                    let worker_start = olab_metrics::now_if_enabled();
                    let mut busy_ns = 0u64;
                    while let Some(idx) = next_item(deques, w) {
                        let item_start = olab_metrics::now_if_enabled();
                        let result = call(&items[idx]);
                        if let Some(t) = item_start {
                            busy_ns += t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        }
                        // A worker dies with the pool if the main thread
                        // already panicked and dropped the receiver.
                        if tx.send((idx, result)).is_err() {
                            break;
                        }
                    }
                    if let Some(t) = worker_start {
                        let total = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        m.pool_worker_busy_ns.observe(busy_ns);
                        m.pool_worker_idle_ns.observe(total.saturating_sub(busy_ns));
                    }
                });
            }
            drop(tx);

            let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            for (idx, result) in rx {
                results[idx] = Some(result);
            }
            results
                .into_iter()
                .map(|r| r.expect("worker delivered every index"))
                .collect()
        })
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// Pops the next index for worker `w`: its own front first, then a steal
/// from the back of the fullest other deque.
fn next_item(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let m = crate::metrics::grid_metrics();
    {
        let mut own = deques[w].lock().expect("pool deque poisoned");
        m.pool_queue_depth.observe(own.len() as u64);
        if let Some(idx) = own.pop_front() {
            return Some(idx);
        }
    }
    loop {
        let victim = deques
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != w)
            .max_by_key(|(_, d)| d.lock().expect("pool deque poisoned").len())?;
        // Bind before matching: a guard in a match scrutinee lives to the
        // end of the match, and the None arm below re-locks every deque.
        let stolen = {
            let mut victim_deque = victim.1.lock().expect("pool deque poisoned");
            m.pool_queue_depth.observe(victim_deque.len() as u64);
            victim_deque.pop_back()
        };
        match stolen {
            Some(idx) => {
                m.pool_steals.inc();
                return Some(idx);
            }
            // Raced with the victim draining its own deque; rescan, and
            // stop once every deque is empty.
            None => {
                if deques
                    .iter()
                    .all(|d| d.lock().expect("pool deque poisoned").is_empty())
                {
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = Pool::new(8).map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_for_every_width() {
        let items: Vec<u64> = (0..50).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 7, 64] {
            assert_eq!(Pool::new(workers).map(&items, |&x| x * x + 1), serial);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        Pool::new(4).map(&items, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_items_are_stolen_not_serialized() {
        // One pathological item must not stop the other workers from
        // draining the rest of the queue in parallel: total wall-clock
        // stays near the slowest item, not the sum.
        let items: Vec<u64> = (0..16).collect();
        let start = std::time::Instant::now();
        Pool::new(4).map(&items, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(if x == 0 {
                80
            } else {
                5
            }));
        });
        let wall = start.elapsed();
        assert!(
            wall < std::time::Duration::from_millis(160),
            "stealing failed, wall {wall:?}"
        );
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(pool.map(&[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert!(Pool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn a_panic_mid_sweep_fails_only_that_slot() {
        let items: Vec<u64> = (0..32).collect();
        for workers in [1, 4] {
            let out = Pool::new(workers).try_map(&items, |&x| {
                if x == 13 {
                    panic!("unlucky item {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    let p = r.as_ref().unwrap_err();
                    assert!(p.message.contains("unlucky item 13"), "got {p}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "slot {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked: boom")]
    fn map_repropagates_worker_panics() {
        let items: Vec<u64> = (0..8).collect();
        Pool::new(2).map(&items, |&x| if x == 3 { panic!("boom") } else { x });
    }

    #[test]
    fn guarded_map_matches_try_map_with_default_guard() {
        let items: Vec<u64> = (0..40).collect();
        for workers in [1, 4] {
            let reports = Pool::new(workers).try_map_guarded(
                &items,
                &crate::guard::GuardConfig::default(),
                |&x, _| x * 3,
            );
            assert_eq!(reports.len(), items.len());
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 3);
            }
        }
    }
}
