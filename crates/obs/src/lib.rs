//! # olab-obs — observability for overlap-lab
//!
//! The paper's methodology is measurement: NVML/rocm-smi polling at a
//! fixed cadence, Nsight-style timelines, per-run power series. This
//! crate gives the simulator the same observability surface, so every
//! simulated cell can leave the artifacts a real characterization run
//! would:
//!
//! * a typed **event bus** ([`ObsEvent`], [`EventBus`]) carrying task and
//!   collective lifecycle edges, DVFS transitions, fault windows,
//!   watchdog episodes, and cache hits/misses — borrowed events, zero
//!   cost when nobody subscribes;
//! * a **recorder** ([`Recorder`]) that plugs into the engine's
//!   `EngineObserver` hook and turns raw epochs into the minimal merged
//!   counter timeline;
//! * a **simulated-NVML sampler** ([`sample_epochs`]) polling each GPU at
//!   a configurable cadence (default 100 ms of simulated time) for board
//!   power, SM occupancy, HBM-bandwidth utilization, link utilization
//!   and clock frequency — deterministic per-GPU series, byte-identical
//!   for the same seed regardless of sweep parallelism;
//! * **Perfetto counter tracks** ([`counter_tracks`]) rendered into the
//!   Chrome-trace export;
//! * a **run-artifact writer** ([`RunArtifact`]) emitting a
//!   self-describing directory per observed cell (`manifest.json`,
//!   `metrics.csv`, `counters.csv`, `trace.json`, `events.jsonl`) —
//!   fault cells and aborted runs included;
//! * **live sweep progress** ([`StderrProgress`], [`JsonlProgress`])
//!   behind `olab_grid::ProgressSink`.
//!
//! Observation is a parameter of the product's run functions
//! (`Experiment::run_observed`, `olab_faults::run_under_faults`), never a
//! copy of them: a recovery cell's one faulted run is both observed and
//! handed to `olab_resilience::recover`.
//!
//! Determinism is a hard requirement throughout: no wall-clock value
//! reaches any artifact, which is a pure function of the cell and the
//! sampling cadence (pinned by digest in `tests/artifact_golden.rs`). The
//! progress feed is the one deliberate exception — it reports wall-clock
//! pacing and completion order, and says so.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod counters;
mod event;
mod progress;
mod record;
mod run;

pub use artifact::{
    metrics_csv, FaultManifest, Manifest, RecoveryManifest, RunArtifact, ARTIFACT_FILES,
    ARTIFACT_SCHEMA_VERSION,
};
pub use counters::{
    counter_tracks, counters_csv, sample_epochs, CounterSample, GpuSeries, COUNTER_NAMES,
};
pub use event::{to_jsonl, EventBus, JsonlSink, ObsEvent, Observer};
pub use progress::{JsonlProgress, MultiSink, StderrProgress};
pub use record::{CounterEpoch, Recorder};
pub use run::{observe_cell, observe_fault_cell, observe_recovery_cell};
