//! overlap-lab sweep-as-a-service: the paper's experiment grid behind a
//! tiny HTTP daemon.
//!
//! `olab serve` wraps the hardened sweep engine ([`olab_core::Sweep`])
//! in a std-only TCP front-end so cells can be requested on demand —
//! with the same robustness story the batch path has, translated to a
//! serving context:
//!
//! - **Admission control** — a bounded accept queue sheds overload at
//!   the door with `429` + `Retry-After` derived from the engine's
//!   observed p90 cell latency ([`server`]).
//! - **Request coalescing** — concurrent requests for the same
//!   content-addressed cell share one execution
//!   ([`olab_grid::CoalesceMap`]); the thundering-herd storm costs one
//!   simulation.
//! - **Deadline propagation** — a request's `timeout_ms` tightens the
//!   engine's per-cell execution guard and bounds the coalescing wait;
//!   late results are discarded for that caller but still cached.
//! - **Graceful degradation and drain** — cache health surfaces in
//!   `/healthz` / `/readyz`, and `POST /v1/drain` (or
//!   [`ServerHandle::shutdown`]) finishes admitted work, strands no
//!   worker, and flushes metrics expositions.
//!
//! The response body contract is *byte identity with the offline sweep*:
//! [`render::render_cell_body`] is the single renderer behind both the
//! daemon and [`oneshot`], which the CLI exposes for CI comparison.
//!
//! Everything is plain `std` — `TcpListener`, worker threads, a
//! hand-rolled HTTP/1.1 head parser — keeping the workspace's
//! zero-registry-dependency invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod render;
pub mod request;
pub mod server;

pub use render::render_cell_body;
pub use request::{parse_query, CellRequest};
pub use server::{start, DrainReport, ServeConfig, ServerHandle};

use olab_core::sweep::cell_descriptor;
use olab_core::Sweep;

/// Runs one cell offline — no sockets, a fresh default engine — and
/// returns exactly the body the daemon would serve for the same query.
///
/// This is the service contract made checkable: CI starts a daemon,
/// fetches `/v1/cell?Q`, and byte-compares against `olab serve
/// --oneshot Q`.
///
/// # Errors
///
/// A human-readable message when the query string does not parse.
pub fn oneshot(query: &str) -> Result<String, String> {
    let cell = parse_query(query)?;
    let outcome = Sweep::new()
        .run(std::slice::from_ref(&cell.experiment))
        .cells
        .remove(0);
    Ok(render_cell_body(
        &cell_descriptor(&cell.experiment),
        &outcome,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_renders_the_canonical_body() {
        let body = oneshot("seq=128&batch=2").expect("default cell renders");
        assert!(body.contains("\"ok\": true"), "{body}");
        assert!(body.starts_with("{\"descriptor\": "), "{body}");
        assert!(body.ends_with("}\n"), "{body}");
    }

    #[test]
    fn oneshot_renders_invalid_cells_as_typed_errors() {
        for query in ["grad_accum=0&seq=128", "gpus=1&seq=128"] {
            let body = oneshot(query).expect("the query parses");
            assert!(body.contains("\"ok\": false"), "{query}: {body}");
            assert!(
                body.contains("\"error_kind\": \"invalid_config\""),
                "{query}: {body}"
            );
        }
    }

    #[test]
    fn oneshot_propagates_parse_errors() {
        let err = oneshot("model=unknown-model").unwrap_err();
        assert!(err.contains("unknown model"), "{err}");
    }
}
