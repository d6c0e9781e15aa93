//! Execution guards: per-cell wall-clock deadlines with cooperative
//! cancellation.
//!
//! Sweep cells are pure closures — they cannot be preempted, only asked.
//! The guard therefore runs each cell under a [`CellCtx`] carrying the
//! cell's deadline; cooperative code calls [`CellCtx::checkpoint`] at
//! natural yield points (the executor does so between simulating a cell
//! and caching it), which unwinds with a private sentinel payload once the
//! deadline has passed. Non-cooperative cells are still bounded: a result
//! that arrives after its deadline is discarded and the cell counts as a
//! timeout — a late answer is never served, so enabling a deadline never
//! changes *which* value a sweep returns, only whether it returns one.
//!
//! Each cell runs once: a cell is a deterministic function, so running it
//! again could only repeat its outcome. With the default config (no
//! deadline) the guard is byte-for-byte a plain `catch_unwind`.

use crate::pool::WorkerPanic;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Once;
use std::time::Instant;

/// Deadline policy applied to every cell of a guarded map.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuardConfig {
    /// Per-cell wall-clock deadline, seconds. `None` disables deadlines
    /// entirely (no sentinel unwinds, no late-result discards).
    pub cell_timeout_s: Option<f64>,
}

/// The sentinel payload [`CellCtx::checkpoint`] unwinds with. Private to
/// the crate: the guard catches it before it can be mistaken for a real
/// panic, and the quiet hook suppresses its default stderr report.
pub(crate) struct DeadlineExceeded;

/// Per-cell execution context handed to guarded cell closures.
#[derive(Debug, Clone, Copy)]
pub struct CellCtx {
    started: Instant,
    timeout_s: Option<f64>,
}

impl CellCtx {
    fn new(timeout_s: Option<f64>) -> Self {
        CellCtx {
            started: Instant::now(),
            timeout_s,
        }
    }

    /// True once this cell's wall-clock deadline has passed.
    pub fn expired(&self) -> bool {
        self.timeout_s
            .is_some_and(|t| self.started.elapsed().as_secs_f64() > t)
    }

    /// Cooperative cancellation point: returns immediately while the
    /// deadline holds, unwinds the cell with the timeout sentinel once it
    /// has passed. Call at natural yield points in long cells.
    pub fn checkpoint(&self) {
        if self.expired() {
            std::panic::panic_any(DeadlineExceeded);
        }
    }
}

/// Why a guarded cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// The closure panicked.
    Panic(WorkerPanic),
    /// The cell exceeded its wall-clock deadline.
    Timeout {
        /// The deadline that was missed, seconds.
        deadline_s: f64,
    },
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panic(p) => write!(f, "{p}"),
            CellFailure::Timeout { deadline_s } => {
                write!(f, "cell timed out: exceeded the {deadline_s} s deadline")
            }
        }
    }
}

impl std::error::Error for CellFailure {}

/// Runs one cell under `guard`, classifying timeouts (sentinel unwinds and
/// late results) separately from panics. The closure receives the cell's
/// [`CellCtx`] for cooperative cancellation.
pub fn run_cell<R>(guard: &GuardConfig, f: impl FnOnce(&CellCtx) -> R) -> Result<R, CellFailure> {
    if guard.cell_timeout_s.is_some() {
        install_sentinel_filter();
    }
    let metrics = crate::metrics::grid_metrics();
    metrics.guard_attempts.inc();
    let ctx = CellCtx::new(guard.cell_timeout_s);
    let timeout = || {
        metrics.guard_timeouts.inc();
        Err(CellFailure::Timeout {
            deadline_s: guard.cell_timeout_s.unwrap_or(0.0),
        })
    };
    match std::panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
        // A late result is discarded, never served: the deadline is a
        // contract, and serving late answers would make outputs
        // timing-dependent.
        Ok(_) if ctx.expired() => timeout(),
        Ok(value) => Ok(value),
        Err(payload) if payload.is::<DeadlineExceeded>() => timeout(),
        Err(payload) => Err(CellFailure::Panic(WorkerPanic::from_payload(payload))),
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// stderr report for the internal timeout sentinel — a cooperative
/// cancellation is control flow, not a crash — and forwards every other
/// panic to the previously installed hook unchanged.
pub fn install_sentinel_filter() {
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<DeadlineExceeded>() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_guard_is_single_shot_passthrough() {
        let result = run_cell(&GuardConfig::default(), |ctx| {
            ctx.checkpoint(); // no deadline: never unwinds
            41 + 1
        });
        assert_eq!(result.unwrap(), 42);
    }

    #[test]
    fn a_panic_is_a_plain_panic() {
        let result = run_cell(&GuardConfig::default(), |_| -> u32 { panic!("boom") });
        match result.unwrap_err() {
            CellFailure::Panic(p) => assert!(p.message.contains("boom")),
            other => panic!("expected Panic, got {other}"),
        }
    }

    #[test]
    fn checkpoint_unwinds_expired_attempts_into_timeouts() {
        let guard = GuardConfig {
            cell_timeout_s: Some(0.005),
        };
        let result = run_cell(&guard, |ctx| -> u32 {
            std::thread::sleep(Duration::from_millis(20));
            ctx.checkpoint();
            unreachable!("the checkpoint must unwind an expired cell")
        });
        match result.unwrap_err() {
            CellFailure::Timeout { deadline_s } => assert!((deadline_s - 0.005).abs() < 1e-12),
            other => panic!("expected Timeout, got {other}"),
        }
    }

    #[test]
    fn a_late_result_is_discarded_not_served() {
        let guard = GuardConfig {
            cell_timeout_s: Some(0.005),
        };
        let result = run_cell(&guard, |_| {
            std::thread::sleep(Duration::from_millis(25));
            99u32
        });
        assert!(matches!(result.unwrap_err(), CellFailure::Timeout { .. }));
    }

    #[test]
    fn failure_display_is_informative() {
        let timeout = CellFailure::Timeout { deadline_s: 1.5 };
        assert!(timeout.to_string().contains("1.5 s deadline"));
        let panic = CellFailure::Panic(WorkerPanic {
            message: "still broken".into(),
        });
        assert!(panic.to_string().contains("still broken"));
    }
}
