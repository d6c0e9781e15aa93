//! Live sweep progress: a sink interface worker threads report through.
//!
//! The executor invokes an optional [`ProgressSink`] once per resolved
//! cell, from whichever worker thread finished it — so sinks must be
//! `Sync` and use interior mutability. Updates arrive in *completion*
//! order (nondeterministic under parallelism); the `completed` counter is
//! monotone per update but interleaving across workers is wall-clock
//! dependent. Time spent inside sinks is accounted separately in
//! [`SweepStats::observer_s`](crate::SweepStats::observer_s) so sweep
//! telemetry never silently absorbs observability overhead.

/// How one cell of a sweep was resolved, as reported to progress sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellResolution {
    /// Served by the in-memory cache tier.
    MemoryHit,
    /// Served by the disk cache tier.
    DiskHit,
    /// Actually simulated (a cache miss).
    Simulated,
}

impl CellResolution {
    /// A stable lowercase label (`memory-hit`, `disk-hit`, `simulated`)
    /// for progress streams.
    pub fn label(&self) -> &'static str {
        match self {
            CellResolution::MemoryHit => "memory-hit",
            CellResolution::DiskHit => "disk-hit",
            CellResolution::Simulated => "simulated",
        }
    }
}

/// One progress update: the cell that just resolved and where the sweep
/// stands. All references borrow executor state — copy what you keep.
#[derive(Debug, Clone, Copy)]
pub struct CellProgress<'a> {
    /// Cells resolved so far, including this one (monotone, 1-based).
    pub completed: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Input index of the cell that just resolved.
    pub index: usize,
    /// The cell's canonical descriptor.
    pub descriptor: &'a str,
    /// How the cell was resolved.
    pub resolution: CellResolution,
    /// Wall-clock seconds since the sweep started.
    pub wall_s: f64,
}

/// Receives live per-cell progress updates from the sweep executor.
///
/// Called from worker threads; implementations synchronize internally.
/// Cells whose closure panics are isolated by the pool and reported only
/// in the final [`SweepStats`](crate::SweepStats), not through the sink.
///
/// The guard/health hooks (`on_timeout`, `on_evict`, `on_degraded`)
/// default to no-ops so existing sinks keep compiling; they arrive from
/// the coordinating thread after cells resolve.
pub trait ProgressSink: Sync {
    /// One cell resolved.
    fn on_cell(&self, progress: &CellProgress<'_>);

    /// A cell missed its wall-clock deadline and failed with
    /// [`CellFailure::Timeout`](crate::CellFailure::Timeout).
    fn on_timeout(&self, _index: usize, _descriptor: &str, _deadline_s: f64) {}

    /// The size-cap policy evicted `_evicted` disk entries, leaving
    /// `_disk_bytes` on disk against a `_max_bytes` cap.
    fn on_evict(&self, _evicted: usize, _disk_bytes: u64, _max_bytes: u64) {}

    /// The disk tier latched into memory-only degradation.
    fn on_degraded(&self, _reason: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_labels_are_stable() {
        assert_eq!(CellResolution::MemoryHit.label(), "memory-hit");
        assert_eq!(CellResolution::DiskHit.label(), "disk-hit");
        assert_eq!(CellResolution::Simulated.label(), "simulated");
    }
}
