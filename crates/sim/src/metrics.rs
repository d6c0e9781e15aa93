//! Engine self-telemetry families owned by this crate.
//!
//! All families register together on first touch so an exposition always
//! contains the full set (zeros included) once the engine has been used —
//! or once [`touch`] was called — regardless of which code paths ran.

use olab_metrics::{counter, Counter, Determinism};
use std::sync::OnceLock;

pub(crate) struct SimMetrics {
    /// One per completed engine run: equals the number of simulated cells,
    /// identical between serial and parallel sweeps.
    pub engine_runs: &'static Counter,
    /// Event-loop epochs over all completed runs, added once per run:
    /// a pure function of the runs, identical between serial and parallel
    /// sweeps.
    pub engine_epochs: &'static Counter,
    /// Arena resets that found buffers from an earlier run to reuse.
    /// Thread-count dependent: each worker warms its own scratch arena.
    pub arena_warm_resets: &'static Counter,
    /// Arena resets on a fresh (never-used) arena.
    pub arena_cold_resets: &'static Counter,
}

pub(crate) fn sim_metrics() -> &'static SimMetrics {
    static M: OnceLock<SimMetrics> = OnceLock::new();
    M.get_or_init(|| SimMetrics {
        engine_runs: counter(
            "olab_sim_engine_runs_total",
            Determinism::CrossRun,
            "Completed event-loop engine runs (one per leg on the event loop; a cell has three legs).",
        ),
        engine_epochs: counter(
            "olab_sim_engine_epochs_total",
            Determinism::CrossRun,
            "Event-loop epochs of completed engine runs (one per change of the running set or model boundary).",
        ),
        arena_warm_resets: counter(
            "olab_sim_arena_warm_resets_total",
            Determinism::Wall,
            "Arena resets that reused buffer capacity from an earlier run.",
        ),
        arena_cold_resets: counter(
            "olab_sim_arena_cold_resets_total",
            Determinism::Wall,
            "Arena resets on a fresh arena with no capacity to reuse.",
        ),
    })
}

/// Forces registration of this crate's metric families so expositions are
/// complete even before (or without) any engine run.
pub fn touch() {
    let _ = sim_metrics();
}
