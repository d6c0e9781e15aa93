//! Engine self-telemetry families owned by this crate: the work-stealing
//! pool, the two-tier result cache, the execution guard, and per-cell
//! execution cost.
//!
//! All families register together on first touch so an exposition always
//! contains the full set (zeros included) once the grid has been used — or
//! once [`touch`] was called — regardless of which code paths ran. The
//! cache-counter families mirror [`crate::cache::CacheCounters`] across
//! every cache instance in the process; the per-instance counters remain
//! the source for [`crate::SweepStats`] deltas.

use olab_metrics::{counter, gauge, histogram, Counter, Determinism, Gauge, Histogram};
use std::sync::OnceLock;

pub(crate) struct GridMetrics {
    // Pool.
    /// Items submitted to the pool across all maps; schedule-independent.
    pub pool_tasks: &'static Counter,
    pub pool_steals: &'static Counter,
    pub pool_workers: &'static Gauge,
    pub pool_queue_depth: &'static Histogram,
    pub pool_worker_busy_ns: &'static Histogram,
    pub pool_worker_idle_ns: &'static Histogram,
    // Guard.
    pub guard_attempts: &'static Counter,
    pub guard_timeouts: &'static Counter,
    // Cache.
    pub cache_memory_hits: &'static Counter,
    pub cache_disk_hits: &'static Counter,
    pub cache_misses: &'static Counter,
    pub cache_stores: &'static Counter,
    pub cache_quarantined: &'static Counter,
    pub cache_evicted: &'static Counter,
    pub cache_tmp_reaped: &'static Counter,
    pub cache_admission_rejected: &'static Counter,
    pub cache_disk_scans: &'static Counter,
    pub cache_lookup_memory_hit_ns: &'static Histogram,
    pub cache_lookup_disk_hit_ns: &'static Histogram,
    pub cache_lookup_miss_ns: &'static Histogram,
    pub cache_insert_ns: &'static Histogram,
    pub cache_disk_write_ns: &'static Histogram,
    // Executor.
    pub cell_exec_ns: &'static Histogram,
}

pub(crate) fn grid_metrics() -> &'static GridMetrics {
    static M: OnceLock<GridMetrics> = OnceLock::new();
    M.get_or_init(|| GridMetrics {
        pool_tasks: counter(
            "olab_pool_tasks_total",
            Determinism::CrossRun,
            "Items submitted to the work-stealing pool.",
        ),
        pool_steals: counter(
            "olab_pool_steals_total",
            Determinism::Wall,
            "Items taken from another worker's deque.",
        ),
        pool_workers: gauge(
            "olab_pool_workers",
            Determinism::Wall,
            "Worker threads of the most recent pool map.",
        ),
        pool_queue_depth: histogram(
            "olab_pool_queue_depth",
            "Deque depth sampled at each pop and steal.",
        ),
        pool_worker_busy_ns: histogram(
            "olab_pool_worker_busy_ns",
            "Per-worker time spent executing items, one sample per worker per map.",
        ),
        pool_worker_idle_ns: histogram(
            "olab_pool_worker_idle_ns",
            "Per-worker time spent waiting or stealing, one sample per worker per map.",
        ),
        guard_attempts: counter(
            "olab_guard_attempts_total",
            Determinism::Wall,
            "Guarded cell attempts, one per cell.",
        ),
        guard_timeouts: counter(
            "olab_guard_timeouts_total",
            Determinism::Wall,
            "Cells that exceeded the per-cell deadline.",
        ),
        cache_memory_hits: counter(
            "olab_cache_memory_hits_total",
            Determinism::CrossRun,
            "Lookups served by the in-memory tier.",
        ),
        cache_disk_hits: counter(
            "olab_cache_disk_hits_total",
            Determinism::CrossRun,
            "Lookups served by the disk tier.",
        ),
        cache_misses: counter(
            "olab_cache_misses_total",
            Determinism::CrossRun,
            "Lookups served by neither tier.",
        ),
        cache_stores: counter(
            "olab_cache_stores_total",
            Determinism::CrossRun,
            "Values inserted (one per computed cell).",
        ),
        cache_quarantined: counter(
            "olab_cache_quarantined_total",
            Determinism::CrossRun,
            "Disk entries that failed integrity verification and were quarantined.",
        ),
        cache_evicted: counter(
            "olab_cache_evicted_total",
            Determinism::CrossRun,
            "Disk entries removed by the size-cap eviction policy.",
        ),
        cache_tmp_reaped: counter(
            "olab_cache_tmp_reaped_total",
            Determinism::Wall,
            "Stale tmp files from provably dead writers removed at cache open.",
        ),
        cache_admission_rejected: counter(
            "olab_cache_admission_rejected_total",
            Determinism::CrossRun,
            "Values denied disk-tier admission because one entry would exceed the byte cap.",
        ),
        cache_disk_scans: counter(
            "olab_cache_disk_scans_total",
            Determinism::CrossRun,
            "Disk-tier directory scans (health snapshots and cap enforcement).",
        ),
        cache_lookup_memory_hit_ns: histogram(
            "olab_cache_lookup_memory_hit_ns",
            "Lookup latency when served by the memory tier.",
        ),
        cache_lookup_disk_hit_ns: histogram(
            "olab_cache_lookup_disk_hit_ns",
            "Lookup latency when served by the disk tier (including promotion).",
        ),
        cache_lookup_miss_ns: histogram(
            "olab_cache_lookup_miss_ns",
            "Lookup latency when neither tier had the entry.",
        ),
        cache_insert_ns: histogram(
            "olab_cache_insert_ns",
            "Request-path insert latency: encode, memory insert and disk-write enqueue.",
        ),
        cache_disk_write_ns: histogram(
            "olab_cache_disk_write_ns",
            "Disk-tier entry write plus rename, timed on the cache's writer thread.",
        ),
        cell_exec_ns: histogram(
            "olab_grid_cell_exec_ns",
            "Wall-clock of each computed (non-cached) cell execution.",
        ),
    })
}

/// Forces registration of this crate's metric families so expositions are
/// complete even before (or without) any sweep.
pub fn touch() {
    let _ = grid_metrics();
}
