//! Deterministic fault injection for overlap-lab.
//!
//! The paper's characterization assumes a healthy cluster; this crate asks
//! what the overlap/power story looks like when the cluster is *not*
//! healthy. A seeded [`FaultScenarioSpec`] expands into a concrete
//! [`FaultTimeline`] — straggler GPUs (transient DVFS throttles), link
//! degradations, flaps and dead links, ECC-retry compute stalls — and
//! [`FaultyMachine`] injects that timeline into the fluid simulation at
//! exact epoch boundaries. Collectives that stall on an outage are
//! adjudicated by an NCCL-style watchdog (timeout, bounded retries with
//! exponential backoff, then abort or graceful degradation onto the
//! surviving ring).
//!
//! Everything is a pure function of `(experiment, spec)`: the same seed
//! yields a bit-identical fault timeline, metrics and Chrome trace, across
//! runs and across any sweep parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod machine;
mod run;
mod scenario;

pub use cell::{CachedFaultCell, FaultCell};
pub use machine::{AbortInfo, FaultEvent, FaultEventKind, FaultStats, FaultyMachine};
pub use run::{run_under_faults, FaultRun, ResilienceMetrics};
pub use scenario::{
    EccFaults, FaultScenarioSpec, FaultTimeline, LinkFault, Severity, ThrottleWindow,
    FAULT_SCHEMA_VERSION,
};
