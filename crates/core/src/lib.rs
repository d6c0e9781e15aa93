//! # olab-core — the compute/communication-overlap characterization harness
//!
//! Reproduction of *"Characterizing Compute-Communication Overlap in
//! GPU-Accelerated Distributed Deep Learning: Performance and Power
//! Implications"* (ISPASS 2025) on a simulated multi-GPU node.
//!
//! The crate ties the substrates together:
//!
//! * [`Machine`] — the contention model: a [`olab_sim::RateModel`] that
//!   prices compute kernels and collectives sharing a GPU (SM occupancy,
//!   HBM bandwidth, cache interference, DVFS under power limits) and
//!   reports instantaneous board power;
//! * [`execute`] — runs a schedule (from `olab-parallel`) on a [`Machine`]
//!   and collects per-GPU compute/comm/overlap times and power traces;
//! * [`OverlapMetrics`] — the paper's metrics, Eqs. (1)–(5): compute
//!   slowdown, overlapped-computation ratio, and the
//!   ideal/overlapped/sequential end-to-end times;
//! * [`Experiment`] — one cell of the paper's evaluation grid (SKU × model
//!   × batch × strategy × precision × datapath × power limit), validated
//!   against device memory and run in all three execution modes;
//! * [`registry`] — the sweeps behind every figure and table;
//! * [`sweep`] — parallel, cached grid execution on the `olab-grid`
//!   engine: every regenerator and CLI sweep fans cells across a
//!   work-stealing pool and serves repeats from a content-addressed
//!   result cache;
//! * [`microbench`] — the Fig. 8 microbenchmark (N×N GEMM concurrent with
//!   a 1 GB all-reduce);
//! * [`report`] — markdown/CSV table rendering shared by the `olab-bench`
//!   regenerators.
//!
//! ## Quickstart
//!
//! ```rust
//! use olab_core::{Experiment, Strategy};
//! use olab_gpu::{Datapath, Precision, SkuKind};
//! use olab_models::ModelPreset;
//!
//! let exp = Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8)
//!     .with_seq(256); // keep the doctest fast
//! let report = exp.run()?;
//! assert!(report.metrics.e2e_overlapped_s < report.metrics.e2e_sequential_measured_s);
//! # Ok::<(), olab_core::ExperimentError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod analytic;
pub mod chrome_trace;
mod executor;
mod experiment;
pub mod fastpath;
pub mod fmtutil;
mod machine;
mod metrics;
pub mod microbench;
pub mod registry;
pub mod report;
pub mod sweep;

pub use chrome_trace::{
    to_chrome_trace, to_chrome_trace_annotated, to_chrome_trace_full, CounterTrack, TraceAnnotation,
};
pub use executor::{
    execute, execute_lean, execute_model, GpuRunStats, GpuTimes, LeanGpuStats, LeanRun, RunResult,
    RunTotals,
};
pub use experiment::{Experiment, ExperimentError, ExperimentReport, MultiRunStats, Strategy};
pub use machine::{Jitter, Machine, MachineConfig};
pub use metrics::{goodput_samples_per_s, OverlapMetrics};
pub use sweep::{CellError, CellMetrics, CellOutcome, Sweep, SweepOutcome};
