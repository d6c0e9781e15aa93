//! # olab-grid — the parallel sweep-execution engine
//!
//! Every figure regenerator, ablation, and CLI sweep in overlap-lab walks a
//! grid of independent, deterministic simulation cells. This crate is the
//! single execution engine behind all of them:
//!
//! * [`pool::Pool`] — a std-only work-stealing worker pool
//!   (`std::thread::scope` + per-worker deques) that fans cells out across
//!   cores while collecting results in input order;
//! * [`cache::ResultCache`] — a content-addressed result cache keyed by the
//!   stable FNV-1a digest ([`hash`]) of a canonical cell descriptor, with an
//!   in-memory tier and an optional on-disk tier (hand-rolled byte codec,
//!   zero dependencies) so repeated invocations skip already-simulated
//!   cells;
//! * [`telemetry::SweepStats`] — cells/s, cache hit rate, and wall-clock
//!   vs. cumulative simulated time, surfaced in every report;
//! * [`Executor`] — the composition: look up each cell, simulate only the
//!   misses, populate both tiers, and return outputs in input order.
//!
//! ## Determinism guarantee
//!
//! The simulator is deterministic, so a parallel sweep must be
//! *bit-identical* to a serial one. The engine guarantees its half of that
//! contract structurally: cells never share mutable state, the pool
//! neither reorders nor duplicates work, and outputs are collected by input
//! index. `tests/integration_grid.rs` in `olab-core` pins the end-to-end
//! invariant against the paper's main grid.
//!
//! The crate is deliberately generic — it knows nothing about experiments.
//! A cell is anything implementing [`GridJob`]: it names itself via a
//! canonical [`GridJob::descriptor`] (which must cover *every* input that
//! can change the result, including calibration-constant versions) and
//! computes a [`cache::CacheValue`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod coalesce;
pub mod guard;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod progress;
pub mod telemetry;

pub use admission::{AdmissionQueue, RejectReason, Rejected};
pub use cache::{
    CacheCost, CacheCounters, CacheHealth, CacheTier, CacheValue, Reader, ResultCache, Writer,
};
pub use coalesce::{CoalesceMap, Join, Leader, WaitOutcome, Waiter};
pub use guard::{CellCtx, CellFailure, GuardConfig};
pub use hash::{fnv1a_64, StableHasher};
pub use pool::{Pool, WorkerPanic};
pub use progress::{CellProgress, CellResolution, ProgressSink};
pub use telemetry::SweepStats;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One independent, deterministic unit of sweep work.
pub trait GridJob: Sync {
    /// The computed result.
    type Output: CacheValue;

    /// The canonical content descriptor of this cell. Two jobs with equal
    /// descriptors **must** compute identical outputs; any input that can
    /// change the output (configuration fields, calibration versions,
    /// schema revisions) must appear in it.
    fn descriptor(&self) -> String;

    /// Computes the result. Must be deterministic and side-effect free.
    fn execute(&self) -> Self::Output;

    /// How expensive this cell's value would be to *recompute*, feeding
    /// the capped disk tier's admission/eviction policy (see
    /// [`cache::CacheCost`]): cheap cells are evicted before expensive
    /// ones. Must be a pure function of the cell — the determinism
    /// contract extends to the eviction order. Defaults to `Standard`
    /// (exactly the pre-policy behavior).
    fn cost_hint(&self) -> cache::CacheCost {
        cache::CacheCost::Standard
    }
}

/// How one cell of a sweep was resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellSource {
    Hit(CacheTier),
    Computed {
        /// Wall-clock spent simulating this cell, seconds.
        cell_s: f64,
    },
}

/// The outputs of one sweep, in input order, plus its telemetry.
///
/// A cell that failed — a panic or a missed deadline — occupies its slot
/// with a typed [`CellFailure`] instead of aborting the sweep; everything
/// else completes normally.
#[derive(Debug, Clone)]
pub struct SweepRun<V> {
    /// Per-cell outputs, index-aligned with the submitted jobs.
    pub outputs: Vec<Result<V, CellFailure>>,
    /// Throughput and cache statistics.
    pub stats: SweepStats,
}

/// The sweep engine: a worker pool over a shared result cache, with an
/// optional per-cell deadline.
#[derive(Debug)]
pub struct Executor<V> {
    pool: Pool,
    cache: ResultCache<V>,
    guard: GuardConfig,
}

impl<V: CacheValue> Executor<V> {
    /// An engine with `available_parallelism` workers, an in-memory
    /// cache, and no guards (single-shot cells, no deadlines).
    pub fn new() -> Self {
        Executor {
            pool: Pool::with_available_parallelism(),
            cache: ResultCache::in_memory(),
            guard: GuardConfig::default(),
        }
    }

    /// Overrides the worker count (`1` forces a fully serial sweep).
    pub fn with_jobs(mut self, workers: usize) -> Self {
        self.pool = Pool::new(workers);
        self
    }

    /// Adds a disk tier under `dir` to the cache.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> io::Result<Self> {
        self.cache = ResultCache::with_disk(dir)?;
        Ok(self)
    }

    /// Caps the disk tier at `max_bytes`, evicting deterministically
    /// (cold entries first, ascending key) now and at the end of every
    /// run that stores a cell. No-op until a disk cache is attached.
    pub fn with_cache_cap(mut self, max_bytes: u64) -> Self {
        self.cache.set_disk_cap(Some(max_bytes));
        self
    }

    /// Applies a per-cell deadline to every subsequent run (see
    /// [`GuardConfig`]).
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// The worker pool in use.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The guard policy in use.
    pub fn guard(&self) -> &GuardConfig {
        &self.guard
    }

    /// The cache in use (for counter inspection in tests and telemetry).
    pub fn cache(&self) -> &ResultCache<V> {
        &self.cache
    }

    /// Runs every job — cache lookups first, simulations for the misses —
    /// and returns outputs in input order with sweep telemetry.
    pub fn run<J: GridJob<Output = V>>(&self, jobs: &[J]) -> SweepRun<V> {
        self.run_guarded(jobs, &self.guard, None)
    }

    /// Like [`Executor::run`], but under `guard` and reporting each
    /// resolved cell to `sink` as it completes (see [`ProgressSink`] for
    /// threading and ordering semantics). Time spent inside the sink is
    /// accumulated into [`SweepStats::observer_s`]; with `None` there is no
    /// timing, no counting, no overhead. Pass [`Executor::guard`] to keep
    /// the engine-level policy.
    ///
    /// A different `guard` leaves the engine untouched. This is the
    /// deadline-propagation hook for a serving front-end: a request-scoped
    /// deadline (e.g. an HTTP `timeout_ms`) becomes the cooperative
    /// [`CellCtx`] deadline of exactly this run, so a dead client's cell
    /// is abandoned at the next checkpoint instead of stranding a worker,
    /// while concurrent runs keep their own budgets. `run` takes `&self`,
    /// so differently-guarded runs may execute concurrently over the
    /// shared cache.
    pub fn run_guarded<J: GridJob<Output = V>>(
        &self,
        jobs: &[J],
        guard: &GuardConfig,
        sink: Option<&dyn ProgressSink>,
    ) -> SweepRun<V> {
        let start = Instant::now();
        let counters_before = self.cache.counters();
        let total = jobs.len();
        let completed = AtomicUsize::new(0);
        let observer_ns = AtomicU64::new(0);
        let indexed: Vec<(usize, &J)> = jobs.iter().enumerate().collect();
        // `try_map_guarded`: a failing cell (panic or missed deadline)
        // fails only its own slot. Failures escape `execute` before the
        // insert, so the cache never learns a poisoned descriptor — a
        // later run re-executes the cell.
        let results = self
            .pool
            .try_map_guarded(&indexed, guard, |&(index, job), ctx| {
                let descriptor = job.descriptor();
                let (value, source) = match self.cache.lookup(&descriptor) {
                    Some((value, tier)) => (value, CellSource::Hit(tier)),
                    None => {
                        let cell_start = Instant::now();
                        let value = job.execute();
                        let cell_s = cell_start.elapsed().as_secs_f64();
                        if olab_metrics::enabled() {
                            metrics::grid_metrics()
                                .cell_exec_ns
                                .observe((cell_s * 1e9) as u64);
                        }
                        // Cooperative cancellation point: a cell past its
                        // deadline unwinds here, *before* the insert — a
                        // timed-out cell never populates the cache.
                        ctx.checkpoint();
                        // The cost hint only matters to the disk tier's
                        // eviction order; memory-only caches skip it.
                        let cost = if self.cache.disk_dir().is_some() {
                            job.cost_hint()
                        } else {
                            cache::CacheCost::Standard
                        };
                        self.cache
                            .insert_with_cost(&descriptor, value.clone(), cost);
                        (value, CellSource::Computed { cell_s })
                    }
                };
                if let Some(sink) = sink {
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    let resolution = match source {
                        CellSource::Hit(CacheTier::Memory) => CellResolution::MemoryHit,
                        CellSource::Hit(CacheTier::Disk) => CellResolution::DiskHit,
                        CellSource::Computed { .. } => CellResolution::Simulated,
                    };
                    let sink_start = Instant::now();
                    sink.on_cell(&CellProgress {
                        completed: done,
                        total,
                        index,
                        descriptor: &descriptor,
                        resolution,
                        wall_s: start.elapsed().as_secs_f64(),
                    });
                    observer_ns
                        .fetch_add(sink_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                (value, source)
            });

        let mut stats = SweepStats {
            cells: jobs.len(),
            workers: self.pool.workers(),
            ..SweepStats::default()
        };
        let mut outputs = Vec::with_capacity(results.len());
        for (index, result) in results.into_iter().enumerate() {
            match result {
                Ok((value, source)) => {
                    match source {
                        CellSource::Hit(CacheTier::Memory) => stats.memory_hits += 1,
                        CellSource::Hit(CacheTier::Disk) => stats.disk_hits += 1,
                        CellSource::Computed { cell_s } => {
                            stats.simulated += 1;
                            stats.cumulative_cell_s += cell_s;
                        }
                    }
                    outputs.push(Ok(value));
                }
                Err(failure) => {
                    stats.panicked += 1;
                    if let CellFailure::Timeout { deadline_s } = &failure {
                        stats.timeouts += 1;
                        if let Some(sink) = sink {
                            sink.on_timeout(index, &jobs[index].descriptor(), *deadline_s);
                        }
                    }
                    outputs.push(Err(failure));
                }
            }
        }

        // End-of-run (not per-insert) cap enforcement, after a run that
        // stored a cell: a run of hits wrote nothing, and every writer
        // enforces after its own writes. The candidate set and order depend
        // only on the directory and the touched-key set, both identical
        // between serial and parallel sweeps — the eviction happens at a
        // deterministic point, so directories stay byte-identical. The
        // enforcement flushes the run's queued disk writes first; an
        // uncapped run leaves them queued, so a served miss answers
        // before its file lands.
        let (evicted, bytes_left) = if stats.simulated > 0 {
            self.cache.enforce_disk_cap()
        } else {
            (0, 0)
        };
        // The latch, not a directory scan: a hit costs the same on a tier
        // of ten entries or ten thousand. Occupancy is a snapshot callers
        // ask for explicitly, through `ResultCache::health`.
        let counters_after = self.cache.counters();
        stats.quarantined = (counters_after.quarantined - counters_before.quarantined) as usize;
        stats.evicted = evicted as usize;
        stats.degraded = self.cache.is_degraded();
        stats.observer_s = observer_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        stats.wall_s = start.elapsed().as_secs_f64();
        if let Some(sink) = sink {
            if stats.evicted > 0 {
                sink.on_evict(
                    stats.evicted,
                    bytes_left,
                    self.cache.disk_cap().unwrap_or(0),
                );
            }
            if stats.degraded {
                let reason = self.cache.degraded_reason();
                sink.on_degraded(reason.as_deref().unwrap_or("unknown"));
            }
        }
        SweepRun { outputs, stats }
    }
}

impl<V: CacheValue> Default for Executor<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A toy job: squares its input, counting real executions.
    struct Square<'a> {
        x: u64,
        executions: &'a AtomicUsize,
    }

    impl CacheValue for u64 {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(*self);
        }
        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            r.get_u64()
        }
    }

    impl GridJob for Square<'_> {
        type Output = u64;
        fn descriptor(&self) -> String {
            format!("square x={}", self.x)
        }
        fn execute(&self) -> u64 {
            self.executions.fetch_add(1, Ordering::SeqCst);
            self.x * self.x
        }
    }

    fn jobs<'a>(xs: &[u64], executions: &'a AtomicUsize) -> Vec<Square<'a>> {
        xs.iter().map(|&x| Square { x, executions }).collect()
    }

    #[test]
    fn outputs_come_back_in_input_order() {
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..100).rev().collect();
        let run = Executor::new().with_jobs(8).run(&jobs(&xs, &executions));
        let expect: Vec<Result<u64, CellFailure>> = xs.iter().map(|x| Ok(x * x)).collect();
        assert_eq!(run.outputs, expect);
        assert_eq!(run.stats.cells, 100);
        assert_eq!(run.stats.simulated, 100);
    }

    #[test]
    fn second_sweep_is_all_memory_hits() {
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..20).collect();
        let engine = Executor::new().with_jobs(4);
        let cold = engine.run(&jobs(&xs, &executions));
        let warm = engine.run(&jobs(&xs, &executions));
        assert_eq!(cold.outputs, warm.outputs);
        assert_eq!(executions.load(Ordering::SeqCst), 20, "no recomputation");
        assert_eq!(warm.stats.simulated, 0);
        assert_eq!(warm.stats.memory_hits, 20);
        assert!((warm.stats.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disk_tier_feeds_a_fresh_engine() {
        let dir = std::env::temp_dir().join(format!("olab-grid-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..10).collect();
        {
            let engine = Executor::new().with_disk_cache(&dir).unwrap();
            engine.run(&jobs(&xs, &executions));
        }
        let engine = Executor::new().with_disk_cache(&dir).unwrap();
        let warm = engine.run(&jobs(&xs, &executions));
        assert_eq!(executions.load(Ordering::SeqCst), 10);
        assert_eq!(warm.stats.disk_hits, 10);
        assert_eq!(warm.stats.simulated, 0);
        assert!(
            !warm.stats.summary().contains("disk tier"),
            "a run reports no occupancy snapshot: {}",
            warm.stats.summary()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_disk_entry_is_quarantined_recomputed_and_never_served() {
        let dir = std::env::temp_dir().join(format!("olab-grid-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..10).collect();
        {
            let engine = Executor::new().with_disk_cache(&dir).unwrap();
            engine.run(&jobs(&xs, &executions));
        }
        // Rot one entry on disk: flip a bit in the middle of the file.
        let key = ResultCache::<u64>::key_of("square x=5");
        let path = dir.join(format!("{key:016x}.cell"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let engine = Executor::new().with_disk_cache(&dir).unwrap();
        let run = engine.run(&jobs(&xs, &executions));
        engine.cache().flush();
        // Every output is still correct — the rotten entry was recomputed,
        // not served.
        let expect: Vec<Result<u64, CellFailure>> = xs.iter().map(|x| Ok(x * x)).collect();
        assert_eq!(run.outputs, expect);
        assert_eq!(run.stats.quarantined, 1);
        assert_eq!(run.stats.simulated, 1);
        assert_eq!(run.stats.disk_hits, 9);
        assert!(run.stats.summary().contains("1 quarantined"));
        assert!(
            dir.join(format!("{key:016x}.cell.corrupt")).exists(),
            "rotten bytes kept for post-mortem"
        );
        assert!(path.exists(), "recompute rewrote the canonical entry");

        // The healed cache serves everything again, quietly.
        let healed = Executor::<u64>::new().with_disk_cache(&dir).unwrap();
        let warm = healed.run(&jobs(&xs, &executions));
        assert_eq!(warm.stats.disk_hits, 10);
        assert_eq!(warm.stats.quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_in_one_sweep_share_no_ordering_hazard() {
        // Duplicates may race (both simulate) but must both return the
        // right answer in the right slots.
        let executions = AtomicUsize::new(0);
        let xs = vec![3, 3, 3, 3, 3, 3, 3, 3];
        let run = Executor::new().with_jobs(4).run(&jobs(&xs, &executions));
        assert_eq!(run.outputs, vec![Ok(9); 8]);
        assert_eq!(run.stats.simulated + run.stats.memory_hits, 8);
    }

    /// A toy job that panics for one input, squaring the rest.
    struct Volatile {
        x: u64,
    }

    impl GridJob for Volatile {
        type Output = u64;
        fn descriptor(&self) -> String {
            format!("volatile x={}", self.x)
        }
        fn execute(&self) -> u64 {
            if self.x == 7 {
                panic!("cell x=7 blew up");
            }
            self.x * self.x
        }
    }

    #[test]
    fn a_panicking_cell_fails_its_slot_and_is_never_cached() {
        let xs: Vec<u64> = (0..16).collect();
        let make = || xs.iter().map(|&x| Volatile { x }).collect::<Vec<_>>();
        let engine = Executor::new().with_jobs(4);
        let run = engine.run(&make());
        assert_eq!(run.stats.panicked, 1);
        assert_eq!(run.stats.simulated, 15);
        for (i, slot) in run.outputs.iter().enumerate() {
            if i == 7 {
                match slot.as_ref().unwrap_err() {
                    CellFailure::Panic(p) => {
                        assert!(p.message.contains("cell x=7 blew up"), "got {p}")
                    }
                    other => panic!("expected a plain panic, got {other}"),
                }
            } else {
                assert_eq!(*slot.as_ref().unwrap(), (i as u64) * (i as u64));
            }
        }
        assert!(run.stats.summary().contains("1 panicked"));

        // The panicked descriptor was never cached: a second sweep runs
        // it again (and panics again), while the 15 good cells hit memory.
        let warm = engine.run(&make());
        assert_eq!(warm.stats.memory_hits, 15);
        assert_eq!(warm.stats.panicked, 1);
        assert_eq!(warm.stats.simulated, 0);
    }

    /// Collects every progress update behind a mutex.
    #[derive(Default)]
    struct Collecting {
        seen: std::sync::Mutex<Vec<(usize, usize, String, CellResolution)>>,
    }

    impl ProgressSink for Collecting {
        fn on_cell(&self, p: &CellProgress<'_>) {
            assert!(p.completed >= 1 && p.completed <= p.total);
            assert!(p.wall_s >= 0.0);
            self.seen.lock().unwrap().push((
                p.completed,
                p.index,
                p.descriptor.to_string(),
                p.resolution,
            ));
        }
    }

    #[test]
    fn progress_sink_sees_every_cell_exactly_once() {
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..24).collect();
        let engine = Executor::new().with_jobs(4);
        let sink = Collecting::default();
        let cold = engine.run_guarded(&jobs(&xs, &executions), engine.guard(), Some(&sink));
        assert_eq!(cold.stats.simulated, 24);
        assert!(
            cold.stats.observer_s > 0.0,
            "sink time must be accounted: {}",
            cold.stats.observer_s
        );
        {
            let mut seen = sink.seen.lock().unwrap();
            assert_eq!(seen.len(), 24);
            // Every input index reported exactly once, each as a miss, and
            // the completion counter is a permutation of 1..=24.
            let mut indexes: Vec<usize> = seen.iter().map(|u| u.1).collect();
            indexes.sort_unstable();
            assert_eq!(indexes, (0..24).collect::<Vec<_>>());
            let mut counts: Vec<usize> = seen.iter().map(|u| u.0).collect();
            counts.sort_unstable();
            assert_eq!(counts, (1..=24).collect::<Vec<_>>());
            for (_, index, descriptor, resolution) in seen.iter() {
                assert_eq!(descriptor, &format!("square x={index}"));
                assert_eq!(*resolution, CellResolution::Simulated);
            }
            seen.clear();
        }

        // A warm sweep reports the same cells as memory hits.
        let warm = engine.run_guarded(&jobs(&xs, &executions), engine.guard(), Some(&sink));
        assert_eq!(warm.stats.memory_hits, 24);
        let seen = sink.seen.lock().unwrap();
        assert_eq!(seen.len(), 24);
        assert!(seen.iter().all(|u| u.3 == CellResolution::MemoryHit));
    }

    #[test]
    fn unobserved_sweeps_report_zero_observer_time() {
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..8).collect();
        let run = Executor::new().with_jobs(2).run(&jobs(&xs, &executions));
        assert_eq!(run.stats.observer_s, 0.0);
        assert!(!run.stats.summary().contains("observers"));
    }

    /// A job that sleeps long enough to blow any millisecond deadline.
    struct Sluggish {
        x: u64,
    }

    impl GridJob for Sluggish {
        type Output = u64;
        fn descriptor(&self) -> String {
            format!("sluggish x={}", self.x)
        }
        fn execute(&self) -> u64 {
            if self.x == 3 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            self.x
        }
    }

    #[test]
    fn a_cell_past_its_deadline_times_out_and_is_never_cached() {
        let cells: Vec<Sluggish> = (0..8).map(|x| Sluggish { x }).collect();
        let guard = GuardConfig {
            cell_timeout_s: Some(0.01),
        };
        let engine = Executor::new().with_jobs(4).with_guard(guard);
        let run = engine.run(&cells);
        for (i, slot) in run.outputs.iter().enumerate() {
            if i == 3 {
                assert!(matches!(
                    slot.as_ref().unwrap_err(),
                    CellFailure::Timeout { .. }
                ));
            } else {
                assert_eq!(*slot.as_ref().unwrap(), i as u64);
            }
        }
        assert_eq!(run.stats.timeouts, 1, "the slow cell hit the deadline");
        assert_eq!(run.stats.panicked, 1, "the timed-out cell failed its slot");
        assert!(run.stats.summary().contains("1 timeouts"));

        // The timed-out descriptor was never cached: a rerun runs it again.
        let warm = engine.run(&cells);
        assert_eq!(warm.stats.memory_hits, 7);
        assert_eq!(warm.stats.timeouts, 1);
    }

    #[test]
    fn end_of_run_eviction_is_deterministic_across_worker_counts() {
        let base = std::env::temp_dir().join(format!("olab-grid-evict-{}", std::process::id()));
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..32).collect();
        let mut listings: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
        for workers in [1, 4] {
            let dir = base.join(format!("w{workers}"));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = Executor::new()
                .with_jobs(workers)
                .with_disk_cache(&dir)
                .unwrap()
                .with_cache_cap(400);
            let run = engine.run(&jobs(&xs, &executions));
            assert!(run.stats.evicted > 0, "a 400-byte cap must evict");
            assert!(run.stats.summary().contains("evicted"));
            let mut listing: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".cell"))
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            listing.sort();
            listings.push(listing);
        }
        assert!(!listings[0].is_empty(), "the cap keeps some entries");
        assert_eq!(
            listings[0], listings[1],
            "serial and parallel sweeps must leave byte-identical directories"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn injected_enospc_degrades_to_memory_only_and_finishes_the_sweep() {
        let dir = std::env::temp_dir().join(format!("olab-grid-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let executions = AtomicUsize::new(0);
        let xs: Vec<u64> = (0..16).collect();
        let engine = Executor::new().with_jobs(4).with_disk_cache(&dir).unwrap();
        let enospc = io::Error::from_raw_os_error(28);
        engine.cache().note_write_failure(&enospc);
        let run = engine.run(&jobs(&xs, &executions));
        let expect: Vec<Result<u64, CellFailure>> = xs.iter().map(|x| Ok(x * x)).collect();
        assert_eq!(
            run.outputs, expect,
            "a full disk costs persistence, not answers"
        );
        assert!(run.stats.degraded);
        assert!(run
            .stats
            .summary()
            .contains("cache degraded to memory-only"));
        let health = engine.cache().health();
        assert!(health.degraded);
        assert_eq!(health.degraded_reason, Some(enospc.to_string()));
        assert_eq!(health.disk_entries, 0, "a degraded cache writes nothing");
        // Memory tier still serves everything.
        let warm = engine.run(&jobs(&xs, &executions));
        assert_eq!(warm.stats.memory_hits, 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Forwards nothing but counts guard/health hook invocations.
    #[derive(Default)]
    struct HookCounter {
        timeouts: AtomicUsize,
        evictions: AtomicUsize,
        degradations: AtomicUsize,
    }

    impl ProgressSink for HookCounter {
        fn on_cell(&self, _p: &CellProgress<'_>) {}
        fn on_timeout(&self, _i: usize, _d: &str, _s: f64) {
            self.timeouts.fetch_add(1, Ordering::SeqCst);
        }
        fn on_evict(&self, _e: usize, _b: u64, _m: u64) {
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        fn on_degraded(&self, _r: &str) {
            self.degradations.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn guard_lifecycle_hooks_fire_for_timeouts() {
        let cells: Vec<Sluggish> = (0..8).map(|x| Sluggish { x }).collect();
        let guard = GuardConfig {
            cell_timeout_s: Some(0.01),
        };
        let sink = HookCounter::default();
        let run = Executor::new()
            .with_jobs(2)
            .run_guarded(&cells, &guard, Some(&sink));
        assert_eq!(run.stats.panicked, 1);
        assert_eq!(sink.timeouts.load(Ordering::SeqCst), 1, "one timeout");
        assert_eq!(sink.evictions.load(Ordering::SeqCst), 0);
        assert_eq!(sink.degradations.load(Ordering::SeqCst), 0);
    }
}
