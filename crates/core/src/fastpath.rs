//! The contention-free analytic fast path: the route a run took, and the
//! route metrics.
//!
//! The paper's core claim is that real overlap diverges from the "constant
//! compute/communication latency" assumption *only under contention*. The
//! contrapositive is an optimization: a cell with no contention, no faults,
//! and no observer attached can legally skip the event loop, because every
//! task then runs at the rate [`Machine`](crate::Machine) would assign it in
//! isolation and the whole schedule collapses to a closed form
//! (`crate::analytic::execute_fast`). The executor's router makes that
//! decision; this module holds the telemetry that counts its outcomes.
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

use olab_metrics::{counter, Counter, Determinism, Histogram};
use std::sync::OnceLock;
use std::time::Instant;

/// Which execution path served a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The contention-free analytic closed form.
    FastPath,
    /// The reference event loop.
    EventLoop,
}

/// The route families, indexed `[route][lean]`: each counter's name and
/// help, then its latency histogram's.
const ROUTE_FAMILIES: [[[&str; 4]; 2]; 2] = [
    [
        [
            "olab_core_route_fast_full_total",
            "Executor runs served by the analytic fast path with full statistics.",
            "olab_core_cell_fast_full_ns",
            "Executor run latency through the fast path, full statistics.",
        ],
        [
            "olab_core_route_fast_lean_total",
            "Executor runs served by the analytic fast path with lean (scalar) statistics.",
            "olab_core_cell_fast_lean_ns",
            "Executor run latency through the fast path, lean statistics.",
        ],
    ],
    [
        [
            "olab_core_route_event_loop_full_total",
            "Executor runs served by the event loop with full statistics.",
            "olab_core_cell_event_loop_full_ns",
            "Executor run latency through the event loop, full statistics.",
        ],
        [
            "olab_core_route_event_loop_lean_total",
            "Executor runs served by the event loop with lean (scalar) statistics.",
            "olab_core_cell_event_loop_lean_ns",
            "Executor run latency through the event loop, lean statistics.",
        ],
    ],
];

/// Registry-backed route attribution: per-route run counts (cross-run
/// deterministic) and per-route run-latency histograms (wall-clock), for
/// the `olab-metrics` expositions — plus the event loop's per-GPU pricing
/// outcomes, which share `Machine::gpu_epoch` with the fast path.
pub(crate) struct RouteMetrics {
    runs: [[(&'static Counter, &'static Histogram); 2]; 2],
    pub pricing_reused: &'static Counter,
    pub pricing_priced: &'static Counter,
}

impl RouteMetrics {
    /// Records one successful executor run by its route and whether it
    /// kept lean (scalar) or full statistics.
    pub(crate) fn record(&self, route: Route, lean: bool, start: Option<Instant>) {
        let (runs, latency) = self.runs[route as usize][usize::from(lean)];
        runs.inc();
        latency.observe_since(start);
    }
}

pub(crate) fn route_metrics() -> &'static RouteMetrics {
    static M: OnceLock<RouteMetrics> = OnceLock::new();
    M.get_or_init(|| RouteMetrics {
        runs: ROUTE_FAMILIES.map(|by_stats| {
            by_stats.map(|[name, help, ns_name, ns_help]| {
                (
                    counter(name, Determinism::CrossRun, help),
                    olab_metrics::histogram(ns_name, ns_help),
                )
            })
        }),
        pricing_reused: counter(
            "olab_core_pricing_reused_total",
            Determinism::CrossRun,
            "GPU-epochs the event loop reused a pricing for (the GPU's own, or its class's from the run's pricing table).",
        ),
        pricing_priced: counter(
            "olab_core_pricing_priced_total",
            Determinism::CrossRun,
            "GPU-epochs the event loop priced afresh (the first of each pricing class in a run).",
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
