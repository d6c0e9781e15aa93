//! Execution modes.

use std::fmt;

/// Whether communication may overlap computation.
///
/// The paper compares three executions; two are simulated directly and the
/// third (*ideal*) is derived from measurements (Eq. 4), exactly as the
/// paper derives it:
///
/// * [`ExecutionMode::Overlapped`] — the framework's natural schedule:
///   collectives run on the comm stream concurrently with compute.
/// * [`ExecutionMode::Sequential`] — every communication task is serialized
///   against computation on its GPUs (no concurrency, no contention). The
///   schedule is the overlapped one chained per GPU by
///   [`Workload::into_sequential`](olab_sim::Workload::into_sequential).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Communication overlaps computation (default framework behaviour).
    Overlapped,
    /// Communication serialized with computation.
    Sequential,
}

impl ExecutionMode {
    /// Both modes.
    pub const ALL: [ExecutionMode; 2] = [ExecutionMode::Overlapped, ExecutionMode::Sequential];
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Overlapped => write!(f, "overlapped"),
            ExecutionMode::Sequential => write!(f, "sequential"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_display_distinctly() {
        assert_ne!(
            ExecutionMode::Overlapped.to_string(),
            ExecutionMode::Sequential.to_string()
        );
    }
}
