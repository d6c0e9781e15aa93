//! Parallel, cached execution of experiment grids.
//!
//! This module is the bridge between [`Experiment`] and the generic
//! `olab-grid` engine: it defines the compact per-cell result that sweeps
//! carry ([`CellMetrics`]), the serializable error mirror
//! ([`CellError`]), the canonical cache descriptor covering *every* field
//! of the cell configuration plus the calibration-constant version, and
//! the [`Sweep`] front-end every figure regenerator, ablation, and CLI
//! sweep runs through.
//!
//! Because the simulator is deterministic, a parallel sweep is
//! bit-identical to a serial one (`--jobs 1`); `tests/integration_grid.rs`
//! pins that invariant on the paper's main grid.

use crate::{Experiment, ExperimentError, ExperimentReport, OverlapMetrics, RunTotals};
use olab_grid::{
    CacheCost, CacheValue, CellFailure, Executor, GridJob, GuardConfig, ProgressSink, Reader,
    SweepRun, SweepStats, Writer,
};
use olab_models::memory::ActivationPolicy;
use std::fmt;

/// Version of the [`CellMetrics`] wire encoding. Part of every cache
/// descriptor, so a layout change invalidates old disk entries instead of
/// misreading them.
pub const CELL_SCHEMA_VERSION: u32 = 1;

/// Everything a sweep consumer needs from one cell, without the heavyweight
/// simulation traces (those stay with [`Experiment::run`]): the paper's
/// derived metrics plus the per-run aggregates the figure regenerators
/// print. Small, cloneable, and round-trippable through the grid cache's
/// byte codec.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// The paper's metrics (Eqs. 1–5) for the cell.
    pub metrics: OverlapMetrics,
    /// The activation policy the memory check selected.
    pub activation_policy: ActivationPolicy,
    /// Vendor-sampler average power, watts.
    pub sampled_avg_w: f64,
    /// Vendor-sampler peak power, watts.
    pub sampled_peak_w: f64,
    /// E2E of the contention-free simulation (Eq. 4 cross-check), seconds.
    pub ideal_simulated_e2e_s: f64,
    /// Total communication time across GPUs in the overlapped run, seconds.
    pub comm_s: f64,
    /// Total compute time co-active with communication, seconds.
    pub overlapped_compute_s: f64,
    /// Total hidden (co-active) communication time, seconds.
    pub hidden_comm_s: f64,
}

impl CellMetrics {
    /// Extracts the compact cell result from a full report.
    pub fn from_report(report: &ExperimentReport) -> Self {
        CellMetrics {
            metrics: report.metrics.clone(),
            activation_policy: report.activation_policy,
            sampled_avg_w: report.sampled_avg_w,
            sampled_peak_w: report.sampled_peak_w,
            ideal_simulated_e2e_s: report.ideal_simulated_e2e_s,
            comm_s: report.overlapped.comm_s(),
            overlapped_compute_s: report.overlapped.overlapped_compute_s(),
            hidden_comm_s: report.overlapped.hidden_comm_s(),
        }
    }
}

/// A serializable mirror of [`ExperimentError`], so infeasible cells (the
/// paper's missing bars) are cached like any other result and a warm rerun
/// re-simulates nothing at all.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The configuration does not fit in device memory.
    OutOfMemory {
        /// Required bytes (cheapest activation policy), GiB.
        needed_gib: f64,
        /// Usable capacity, GiB.
        budget_gib: f64,
    },
    /// The batch does not divide into microbatches, or similar.
    InvalidConfig(String),
    /// The simulation failed.
    Sim(String),
    /// The cell's worker panicked mid-sweep; the panic was isolated to
    /// this slot (and never cached) instead of aborting the sweep.
    Panic(String),
    /// The cell exceeded its wall-clock deadline; the late result was
    /// discarded, never cached.
    Timeout {
        /// The deadline that was missed, seconds.
        deadline_s: f64,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Mirrors ExperimentError's wording so rewired regenerators print
        // byte-identical rows for infeasible cells.
        match self {
            CellError::OutOfMemory {
                needed_gib,
                budget_gib,
            } => write!(
                f,
                "out of device memory: needs {needed_gib:.1} GiB, {budget_gib:.1} GiB usable"
            ),
            CellError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CellError::Sim(msg) => write!(f, "simulation failed: {msg}"),
            CellError::Panic(msg) => write!(f, "cell panicked: {msg}"),
            CellError::Timeout { deadline_s } => {
                write!(f, "cell timed out: exceeded the {deadline_s} s deadline")
            }
        }
    }
}

impl From<CellFailure> for CellError {
    fn from(failure: CellFailure) -> Self {
        match failure {
            CellFailure::Panic(p) => CellError::Panic(p.message),
            CellFailure::Timeout { deadline_s } => CellError::Timeout { deadline_s },
        }
    }
}

impl std::error::Error for CellError {}

impl From<ExperimentError> for CellError {
    fn from(e: ExperimentError) -> Self {
        match e {
            ExperimentError::OutOfMemory {
                needed_gib,
                budget_gib,
            } => CellError::OutOfMemory {
                needed_gib,
                budget_gib,
            },
            ExperimentError::InvalidConfig(msg) => CellError::InvalidConfig(msg),
            ExperimentError::Sim(e) => CellError::Sim(e.to_string()),
        }
    }
}

/// The outcome of one sweep cell: compact metrics, or the (also cached)
/// reason the cell is infeasible.
pub type CellOutcome = Result<CellMetrics, CellError>;

fn encode_policy(policy: ActivationPolicy) -> u8 {
    match policy {
        ActivationPolicy::Full => 0,
        ActivationPolicy::Recompute => 1,
    }
}

fn decode_policy(tag: u8) -> Option<ActivationPolicy> {
    match tag {
        0 => Some(ActivationPolicy::Full),
        1 => Some(ActivationPolicy::Recompute),
        _ => None,
    }
}

fn encode_metrics(m: &OverlapMetrics, w: &mut Writer) {
    for v in [
        m.compute_slowdown,
        m.overlap_ratio,
        m.e2e_overlapped_s,
        m.e2e_ideal_s,
        m.e2e_sequential_derived_s,
        m.e2e_sequential_measured_s,
        m.avg_power_w,
        m.peak_power_w,
        m.avg_power_sequential_w,
        m.peak_power_sequential_w,
        m.energy_j,
    ] {
        w.put_f64(v);
    }
}

fn decode_metrics(r: &mut Reader<'_>) -> Option<OverlapMetrics> {
    Some(OverlapMetrics {
        compute_slowdown: r.get_f64()?,
        overlap_ratio: r.get_f64()?,
        e2e_overlapped_s: r.get_f64()?,
        e2e_ideal_s: r.get_f64()?,
        e2e_sequential_derived_s: r.get_f64()?,
        e2e_sequential_measured_s: r.get_f64()?,
        avg_power_w: r.get_f64()?,
        peak_power_w: r.get_f64()?,
        avg_power_sequential_w: r.get_f64()?,
        peak_power_sequential_w: r.get_f64()?,
        energy_j: r.get_f64()?,
    })
}

/// Newtype carrying a [`CellOutcome`] through the grid cache (the orphan
/// rule forbids implementing the foreign `CacheValue` trait on `Result`
/// directly).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell(pub CellOutcome);

impl CacheValue for CachedCell {
    fn encode(&self, w: &mut Writer) {
        match &self.0 {
            Ok(cell) => {
                w.put_u8(0);
                encode_metrics(&cell.metrics, w);
                w.put_u8(encode_policy(cell.activation_policy));
                w.put_f64(cell.sampled_avg_w);
                w.put_f64(cell.sampled_peak_w);
                w.put_f64(cell.ideal_simulated_e2e_s);
                w.put_f64(cell.comm_s);
                w.put_f64(cell.overlapped_compute_s);
                w.put_f64(cell.hidden_comm_s);
            }
            Err(CellError::OutOfMemory {
                needed_gib,
                budget_gib,
            }) => {
                w.put_u8(1);
                w.put_f64(*needed_gib);
                w.put_f64(*budget_gib);
            }
            Err(CellError::InvalidConfig(msg)) => {
                w.put_u8(2);
                w.put_str(msg);
            }
            Err(CellError::Sim(msg)) => {
                w.put_u8(3);
                w.put_str(msg);
            }
            Err(CellError::Panic(msg)) => {
                w.put_u8(4);
                w.put_str(msg);
            }
            Err(CellError::Timeout { deadline_s }) => {
                w.put_u8(5);
                w.put_f64(*deadline_s);
                // The attempt count tag 5 has always carried; a cell runs
                // once, so it is 1, kept so the tag's bytes do not move.
                w.put_u32(1);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let outcome = match r.get_u8()? {
            0 => Some(Ok(CellMetrics {
                metrics: decode_metrics(r)?,
                activation_policy: decode_policy(r.get_u8()?)?,
                sampled_avg_w: r.get_f64()?,
                sampled_peak_w: r.get_f64()?,
                ideal_simulated_e2e_s: r.get_f64()?,
                comm_s: r.get_f64()?,
                overlapped_compute_s: r.get_f64()?,
                hidden_comm_s: r.get_f64()?,
            })),
            1 => Some(Err(CellError::OutOfMemory {
                needed_gib: r.get_f64()?,
                budget_gib: r.get_f64()?,
            })),
            2 => Some(Err(CellError::InvalidConfig(r.get_str()?))),
            3 => Some(Err(CellError::Sim(r.get_str()?))),
            4 => Some(Err(CellError::Panic(r.get_str()?))),
            5 => {
                let deadline_s = r.get_f64()?;
                r.get_u32()?; // the attempt count, always 1
                Some(Err(CellError::Timeout { deadline_s }))
            }
            _ => None,
        };
        outcome.map(CachedCell)
    }
}

/// The canonical cache descriptor of a cell under explicit schema and
/// calibration versions (tests use this to pin key-stability properties;
/// production code goes through [`cell_descriptor`]).
pub fn cell_descriptor_versioned(exp: &Experiment, schema: u32, calibration: u32) -> String {
    // Every field of Experiment appears here; Debug formatting of f64 is
    // shortest-roundtrip and therefore injective on values.
    format!(
        "olab-cell schema={schema} calib={calibration} sku={:?} gpus={} model={:?} \
         strategy={:?} batch={} seq={} precision={:?} datapath={:?} power_cap={:?} \
         freq_cap={:?} schedule={:?} grad_accum={} fsdp_overlap={:?}",
        exp.sku,
        exp.n_gpus,
        exp.model,
        exp.strategy,
        exp.batch,
        exp.seq,
        exp.precision,
        exp.datapath,
        exp.power_cap_w,
        exp.freq_cap,
        exp.pipeline_schedule,
        exp.grad_accum_steps,
        exp.fsdp_overlap,
    )
}

/// The canonical cache descriptor of a cell: the full configuration plus
/// the current cell-schema and calibration-constant versions.
pub fn cell_descriptor(exp: &Experiment) -> String {
    cell_descriptor_versioned(exp, CELL_SCHEMA_VERSION, olab_gpu::CALIBRATION_VERSION)
}

/// The content-addressed cache key of a cell (FNV-1a 64 of the
/// descriptor).
pub fn cell_key(exp: &Experiment) -> u64 {
    olab_grid::fnv1a_64(cell_descriptor(exp).as_bytes())
}

impl GridJob for Experiment {
    type Output = CachedCell;

    fn descriptor(&self) -> String {
        cell_descriptor(self)
    }

    fn execute(&self) -> CachedCell {
        CachedCell(self.run_cell().map_err(CellError::from))
    }

    /// Cost class for the capped disk cache: a feasible cell is
    /// `Expensive` and a cell that fails validation is `Cheap`. Lowering a
    /// feasible cell's timelines alone takes milliseconds, whichever route
    /// its legs then take, while an infeasible cell caches an error record
    /// of a few bytes that validation reproduces in microseconds. The class
    /// is a pure function of the cell, so the eviction order it feeds stays
    /// schedule-independent.
    fn cost_hint(&self) -> CacheCost {
        if self.validate().is_ok() {
            CacheCost::Expensive
        } else {
            CacheCost::Cheap
        }
    }
}

/// The results of one sweep, index-aligned with the submitted cells.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-cell outcomes in input order.
    pub cells: Vec<CellOutcome>,
    /// Throughput and cache telemetry.
    pub stats: SweepStats,
}

/// The sweep front-end: an [`Executor<CachedCell>`] whose outcomes come
/// back as [`CellOutcome`]s, with a [`CellFailure`] (panic or missed
/// deadline) folded into [`CellError`].
///
/// Configure the engine with the [`Executor`] builders and wrap it with
/// [`Sweep::from`]; [`Sweep::executor`] reads the configuration back.
pub struct Sweep {
    engine: Executor<CachedCell>,
}

impl Sweep {
    /// A sweep engine with `available_parallelism` workers and an
    /// in-memory cache.
    pub fn new() -> Self {
        Sweep::from(Executor::new())
    }

    /// Overrides the worker count (`1` forces a serial sweep).
    pub fn with_jobs(self, jobs: usize) -> Self {
        Sweep::from(self.engine.with_jobs(jobs))
    }

    /// The engine this sweep runs on: its pool, guard and cache.
    pub fn executor(&self) -> &Executor<CachedCell> {
        &self.engine
    }

    /// Runs every cell — parallel across the pool, misses simulated,
    /// hits served from cache — returning outcomes in input order.
    pub fn run(&self, cells: &[Experiment]) -> SweepOutcome {
        self.run_guarded(cells, self.engine.guard(), None)
    }

    /// Like [`Sweep::run`], but under `guard` and reporting each resolved
    /// cell to `sink` (see [`Executor::run_guarded`]). Pass
    /// `sweep.executor().guard()` to keep the engine's own guard; a
    /// serving front-end passes a tighter per-request deadline instead.
    /// Cell outcomes are byte-identical with or without a sink.
    pub fn run_guarded(
        &self,
        cells: &[Experiment],
        guard: &GuardConfig,
        sink: Option<&dyn ProgressSink>,
    ) -> SweepOutcome {
        let SweepRun { outputs, stats } = self.engine.run_guarded(cells, guard, sink);
        SweepOutcome {
            cells: outputs
                .into_iter()
                .map(|slot| match slot {
                    Ok(cell) => cell.0,
                    Err(failure) => Err(CellError::from(failure)),
                })
                .collect(),
            stats,
        }
    }
}

impl From<Executor<CachedCell>> for Sweep {
    fn from(engine: Executor<CachedCell>) -> Self {
        Sweep { engine }
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use olab_gpu::{Precision, SkuKind};
    use olab_models::ModelPreset;

    fn cell() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    #[test]
    fn same_config_same_key() {
        assert_eq!(cell_key(&cell()), cell_key(&cell()));
        assert_eq!(cell_descriptor(&cell()), cell_descriptor(&cell()));
    }

    #[test]
    fn every_field_feeds_the_key() {
        let base = cell();
        let variants = [
            Experiment::new(SkuKind::A100, 4, base.model, base.strategy, 8).with_seq(256),
            Experiment::new(base.sku, 8, base.model, base.strategy, 8).with_seq(256),
            Experiment::new(base.sku, 4, ModelPreset::Gpt3_2_7B, base.strategy, 8).with_seq(256),
            cell().with_seq(512),
            Experiment::new(
                base.sku,
                4,
                base.model,
                Strategy::Pipeline { microbatch_size: 2 },
                8,
            )
            .with_seq(256),
            cell().with_precision(Precision::Fp32),
            cell().with_datapath(olab_gpu::Datapath::Vector),
            cell().with_power_cap(300.0),
            cell().with_freq_cap(0.8),
            cell().with_grad_accum(2),
            cell().with_pipeline_schedule(olab_parallel::pipeline::PipelineSchedule::GPipe),
            cell().with_fsdp_overlap(olab_parallel::fsdp::FsdpOverlap {
                prefetch_all_gather: false,
                overlap_reduce_scatter: true,
            }),
        ];
        let base_key = cell_key(&base);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base_key, cell_key(v), "variant {i} did not change the key");
        }
    }

    #[test]
    fn calibration_version_changes_the_key() {
        let exp = cell();
        let v1 = cell_descriptor_versioned(&exp, CELL_SCHEMA_VERSION, 1);
        let v2 = cell_descriptor_versioned(&exp, CELL_SCHEMA_VERSION, 2);
        assert_ne!(
            olab_grid::fnv1a_64(v1.as_bytes()),
            olab_grid::fnv1a_64(v2.as_bytes())
        );
        let s2 = cell_descriptor_versioned(&exp, CELL_SCHEMA_VERSION + 1, 1);
        assert_ne!(
            olab_grid::fnv1a_64(v1.as_bytes()),
            olab_grid::fnv1a_64(s2.as_bytes())
        );
    }

    #[test]
    fn cell_outcome_round_trips_through_the_codec() {
        let outcomes: Vec<CachedCell> = vec![
            cell().execute(),
            CachedCell(Err(CellError::OutOfMemory {
                needed_gib: 93.5,
                budget_gib: 36.0,
            })),
            CachedCell(Err(CellError::InvalidConfig(
                "batch 8 not divisible".into(),
            ))),
            CachedCell(Err(CellError::Sim("deadlock".into()))),
            CachedCell(Err(CellError::Panic("index out of bounds".into()))),
            CachedCell(Err(CellError::Timeout { deadline_s: 2.5 })),
        ];
        for outcome in outcomes {
            let mut w = Writer::new();
            outcome.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = CachedCell::decode(&mut r).expect("decodes");
            assert_eq!(back, outcome);
            assert!(r.is_empty(), "trailing bytes");
        }
        // Tag 5 keeps its layout: deadline, then an attempt count of 1.
        let mut w = Writer::new();
        CachedCell(Err(CellError::Timeout { deadline_s: 2.5 })).encode(&mut w);
        let mut expect = vec![5];
        expect.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        expect.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(w.into_bytes(), expect);
    }

    #[test]
    fn cell_error_prints_like_experiment_error() {
        let exp = Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3_13B, Strategy::Fsdp, 8);
        let from_run = exp.run().unwrap_err().to_string();
        let from_cell = exp.execute().0.unwrap_err().to_string();
        assert_eq!(from_run, from_cell);
    }

    #[test]
    fn cost_hint_is_expensive_for_feasible_cells_and_cheap_for_errors() {
        let grid = crate::registry::main_grid();
        let feasible: Vec<&Experiment> = grid.iter().filter(|e| e.validate().is_ok()).collect();
        assert!(!feasible.is_empty(), "the main grid has feasible cells");
        for exp in &feasible {
            assert_eq!(exp.cost_hint(), CacheCost::Expensive, "{}", exp.label());
        }

        // The dominant leg of a contended FSDP cell runs the event loop.
        let fsdp = feasible
            .iter()
            .find(|e| matches!(e.strategy, Strategy::Fsdp))
            .expect("a feasible FSDP cell");
        let policy = fsdp.validate().expect("cell fits");
        let overlapped = crate::execute(
            &fsdp
                .timeline(olab_parallel::ExecutionMode::Overlapped, policy)
                .expect("timeline builds"),
            &fsdp.machine(),
        )
        .expect("runs");
        assert_eq!(overlapped.route, crate::fastpath::Route::EventLoop);
        assert_eq!(fsdp.cost_hint(), CacheCost::Expensive);

        // The same OOM cell as `cell_error_prints_like_experiment_error`.
        let oom = Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3_13B, Strategy::Fsdp, 8);
        assert!(oom.validate().is_err());
        assert_eq!(oom.cost_hint(), CacheCost::Cheap);
    }

    #[test]
    fn sweep_caches_within_one_engine() {
        let cells = vec![cell(), cell()];
        let sweep = Sweep::new().with_jobs(2);
        let first = sweep.run(&cells);
        assert_eq!(first.cells.len(), 2);
        let second = sweep.run(&cells);
        assert_eq!(second.stats.simulated, 0);
        assert_eq!(second.stats.memory_hits, 2);
        assert_eq!(first.cells, second.cells);
    }
}
