//! The contention-free analytic fast path: routing gate and route metrics.
//!
//! The paper's core claim is that real overlap diverges from the "constant
//! compute/communication latency" assumption *only under contention*. The
//! contrapositive is an optimization: a cell with no contention, no faults,
//! and no observer attached can legally skip the event loop, because every
//! task then runs at the rate [`Machine`] would assign it in isolation and
//! the whole schedule collapses to a closed form
//! (`crate::analytic::execute_fast`). This module holds the machine-level
//! gate of that decision and the telemetry that counts its outcomes.
//!
//! Routing is semantic-free by construction: the fast path prices tasks
//! through the *same* per-GPU pricing code the event loop uses
//! (`Machine::gpu_epoch`), so both paths agree to floating-point rounding.
//! The differential suite in `olab-oracle` pins that equivalence; see
//! `docs/FASTPATH.md` for the rules and the guarantee.
//!
//! Cache keys in `olab-grid` must *not* depend on the execution path (the
//! answers are the same), so the path that served a run travels with the
//! run itself: [`RunResult::route`](crate::RunResult::route) and
//! [`LeanRun::route`](crate::LeanRun::route).

use crate::Machine;
use olab_metrics::{counter, Counter, Determinism, Histogram};
use std::sync::OnceLock;

/// Which execution path served a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The contention-free analytic closed form.
    FastPath,
    /// The reference event loop.
    EventLoop,
}

/// Registry-backed route attribution: per-route cell counts (cross-run
/// deterministic) and per-route cell-latency histograms (wall-clock), for
/// the `olab-metrics` expositions.
pub(crate) struct RouteMetrics {
    pub fast_full: &'static Counter,
    pub fast_lean: &'static Counter,
    pub event_loop_full: &'static Counter,
    pub event_loop_lean: &'static Counter,
    pub fast_full_ns: &'static Histogram,
    pub fast_lean_ns: &'static Histogram,
    pub event_loop_full_ns: &'static Histogram,
    pub event_loop_lean_ns: &'static Histogram,
}

pub(crate) fn route_metrics() -> &'static RouteMetrics {
    static M: OnceLock<RouteMetrics> = OnceLock::new();
    M.get_or_init(|| RouteMetrics {
        fast_full: counter(
            "olab_core_route_fast_full_total",
            Determinism::CrossRun,
            "Cells served by the analytic fast path with full statistics.",
        ),
        fast_lean: counter(
            "olab_core_route_fast_lean_total",
            Determinism::CrossRun,
            "Cells served by the analytic fast path with lean (scalar) statistics.",
        ),
        event_loop_full: counter(
            "olab_core_route_event_loop_full_total",
            Determinism::CrossRun,
            "Cells that fell back to the event loop with full statistics.",
        ),
        event_loop_lean: counter(
            "olab_core_route_event_loop_lean_total",
            Determinism::CrossRun,
            "Cells that fell back to the event loop with lean (scalar) statistics.",
        ),
        fast_full_ns: olab_metrics::histogram(
            "olab_core_cell_fast_full_ns",
            "Cell latency through the fast path, full statistics.",
        ),
        fast_lean_ns: olab_metrics::histogram(
            "olab_core_cell_fast_lean_ns",
            "Cell latency through the fast path, lean statistics.",
        ),
        event_loop_full_ns: olab_metrics::histogram(
            "olab_core_cell_event_loop_full_ns",
            "Cell latency through the event loop, full statistics.",
        ),
        event_loop_lean_ns: olab_metrics::histogram(
            "olab_core_cell_event_loop_lean_ns",
            "Cell latency through the event loop, lean statistics.",
        ),
    })
}

/// Forces registration of this crate's engine-telemetry families (and those
/// of the crates underneath) so expositions are complete even before any
/// cell executes.
pub fn touch_metrics() {
    let _ = route_metrics();
    olab_sim::metrics::touch();
    olab_grid::metrics::touch();
}

/// The O(1) machine-level gate the executor checks before attempting the
/// analytic schedule: no jitter (it only exists epoch by epoch) and no
/// transient frequency caps (fault layers mutate these at epoch
/// boundaries). The per-task rules — dependencies point backward in push
/// order, payload kind matches stream — are enforced inside the schedule
/// builder itself, which bails to the event loop on first violation, so the
/// executor never pays a separate O(n) classification pass.
pub(crate) fn machine_eligible(machine: &Machine) -> bool {
    !machine.has_jitter() && !machine.has_gpu_freq_caps()
}
