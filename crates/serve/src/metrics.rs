//! The daemon's own telemetry families.
//!
//! All serve-side families are wall-clock shaped ([`Determinism::Wall`]):
//! request arrival order, shed decisions, and coalescing wins depend on
//! live socket timing, so none of them belong in the deterministic
//! exposition used for byte-compare gates — the engine's `CrossRun`
//! families cover that half.

use std::sync::OnceLock;

use olab_metrics::{counter, gauge, histogram, Counter, Determinism, Gauge, Histogram};

/// Handles to every serve metric family.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests admitted past the accept queue.
    pub accepted: &'static Counter,
    /// Requests shed with `429` because the queue was full.
    pub shed: &'static Counter,
    /// Requests that piggybacked on another request's in-flight
    /// execution instead of executing themselves.
    pub coalesced: &'static Counter,
    /// Requests that actually executed a cell (leader side).
    pub executed: &'static Counter,
    /// Connections waiting in the admission queue right now.
    pub queue_depth: &'static Gauge,
    /// End-to-end request latency of every admitted request, from the
    /// acceptor's admission to the response written, nanoseconds.
    pub request_ns: &'static Histogram,
    /// Stage: an admitted connection's wait in the admission queue.
    pub queue_ns: &'static Histogram,
    /// Stage: joining the coalescing map, plus a waiter's wait on the
    /// leader's flight (`/v1/cell`, once per join).
    pub coalesce_ns: &'static Histogram,
    /// Stage: a leader's guarded cell execution, cache lookup and insert
    /// included (`/v1/cell`).
    pub execute_ns: &'static Histogram,
    /// Stage: rendering a leader's cell body (`/v1/cell`).
    pub render_ns: &'static Histogram,
    /// Stage: writing a response to an admitted connection.
    pub write_ns: &'static Histogram,
}

/// The process-wide serve metric handles (registered on first use).
pub fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServeMetrics {
        accepted: counter(
            "olab_serve_accepted_total",
            Determinism::Wall,
            "Requests admitted past the accept queue.",
        ),
        shed: counter(
            "olab_serve_shed_total",
            Determinism::Wall,
            "Requests shed with 429 because the admission queue was full.",
        ),
        coalesced: counter(
            "olab_serve_coalesced_total",
            Determinism::Wall,
            "Requests served by piggybacking on an identical in-flight execution.",
        ),
        executed: counter(
            "olab_serve_executed_total",
            Determinism::Wall,
            "Requests that executed a cell themselves (coalescing leaders).",
        ),
        queue_depth: gauge(
            "olab_serve_queue_depth",
            Determinism::Wall,
            "Connections waiting in the admission queue.",
        ),
        request_ns: histogram(
            "olab_serve_request_ns",
            "End-to-end latency of every admitted request, from admission to response written.",
        ),
        queue_ns: histogram(
            "olab_serve_queue_ns",
            "Stage: wait of an admitted connection in the admission queue.",
        ),
        coalesce_ns: histogram(
            "olab_serve_coalesce_ns",
            "Stage: coalescing join of a /v1/cell request, plus a waiter's wait on the leader.",
        ),
        execute_ns: histogram(
            "olab_serve_execute_ns",
            "Stage: guarded cell execution of a /v1/cell leader, cache lookup and insert included.",
        ),
        render_ns: histogram(
            "olab_serve_render_ns",
            "Stage: rendering of a /v1/cell leader's body.",
        ),
        write_ns: histogram(
            "olab_serve_write_ns",
            "Stage: writing the response to an admitted connection.",
        ),
    })
}

/// Forces registration of the serve families so expositions are complete
/// even before the first request.
pub fn touch() {
    let _ = serve_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_registers_and_exposes() {
        touch();
        let prom = olab_metrics::render_prom();
        for family in [
            "olab_serve_accepted_total",
            "olab_serve_shed_total",
            "olab_serve_coalesced_total",
            "olab_serve_executed_total",
            "olab_serve_queue_depth",
            "olab_serve_request_ns",
            "olab_serve_queue_ns",
            "olab_serve_coalesce_ns",
            "olab_serve_execute_ns",
            "olab_serve_render_ns",
            "olab_serve_write_ns",
        ] {
            assert!(prom.contains(family), "missing {family} in:\n{prom}");
        }
    }
}
