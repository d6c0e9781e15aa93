//! One cell of the paper's evaluation grid.

use crate::{execute, execute_lean, Jitter, Machine, MachineConfig, OverlapMetrics, RunResult};
use olab_gpu::{Datapath, PowerLimit, Precision, SkuKind};
use olab_models::memory::{self, ActivationPolicy, Sharding};
use olab_models::ModelPreset;
use olab_parallel::pipeline::PipelineSchedule;
use olab_parallel::{fsdp, pipeline, tensor, ExecutionMode, Op};
use olab_power::Sampler;
use olab_sim::{SimError, Workload};
use std::error::Error;
use std::fmt;

/// The distribution strategy of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fully-Sharded Data Parallelism (ZeRO-3); `batch` is per-rank.
    Fsdp,
    /// GPipe pipeline parallelism; `batch` is the global batch, split into
    /// microbatches of `microbatch_size`.
    Pipeline {
        /// Samples per microbatch.
        microbatch_size: u64,
    },
    /// Megatron tensor parallelism; `batch` is global (replicated on every
    /// rank), layers are sharded intra-layer.
    TensorParallel,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Fsdp => write!(f, "FSDP"),
            Strategy::Pipeline { .. } => write!(f, "PP"),
            Strategy::TensorParallel => write!(f, "TP"),
        }
    }
}

/// Errors from configuring or running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The configuration does not fit in device memory (the paper's
    /// A100-can't-train-6.7B situation).
    OutOfMemory {
        /// Required bytes (cheapest activation policy).
        needed_gib: f64,
        /// Usable capacity.
        budget_gib: f64,
    },
    /// The batch does not divide into microbatches, or similar.
    InvalidConfig(String),
    /// The simulation failed.
    Sim(SimError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::OutOfMemory {
                needed_gib,
                budget_gib,
            } => write!(
                f,
                "out of device memory: needs {needed_gib:.1} GiB, {budget_gib:.1} GiB usable"
            ),
            ExperimentError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Sim(e)
    }
}

impl From<olab_ccl::CclError> for ExperimentError {
    fn from(e: olab_ccl::CclError) -> Self {
        ExperimentError::InvalidConfig(e.to_string())
    }
}

/// One experiment: a (SKU, model, strategy, batch, precision, datapath,
/// power limit) cell, run in all three execution modes.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// GPU SKU.
    pub sku: SkuKind,
    /// Number of GPUs in the node.
    pub n_gpus: usize,
    /// Workload.
    pub model: ModelPreset,
    /// Distribution strategy.
    pub strategy: Strategy,
    /// Batch size (per-rank for FSDP, global for pipeline).
    pub batch: u64,
    /// Sequence length.
    pub seq: u64,
    /// Training precision.
    pub precision: Precision,
    /// Datapath for matrix kernels.
    pub datapath: Datapath,
    /// Optional strict power cap, watts (`nvidia-smi -pl`).
    pub power_cap_w: Option<f64>,
    /// Optional frequency cap as a fraction of boost clock.
    pub freq_cap: Option<f64>,
    /// Pipeline schedule flavor (1F1B by default, as in Megatron-LM).
    pub pipeline_schedule: PipelineSchedule,
    /// FSDP gradient-accumulation micro-steps (1 = the paper's setup).
    pub grad_accum_steps: u32,
    /// FSDP selective-overlap policy.
    pub fsdp_overlap: fsdp::FsdpOverlap,
}

impl Experiment {
    /// Creates an experiment with the paper's defaults: sequence length
    /// 1024, FP16 on tensor cores, stock power limits.
    pub fn new(
        sku: SkuKind,
        n_gpus: usize,
        model: ModelPreset,
        strategy: Strategy,
        batch: u64,
    ) -> Self {
        Experiment {
            sku,
            n_gpus,
            model,
            strategy,
            batch,
            seq: 1024,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            power_cap_w: None,
            freq_cap: None,
            pipeline_schedule: PipelineSchedule::OneFOneB,
            grad_accum_steps: 1,
            fsdp_overlap: fsdp::FsdpOverlap::default(),
        }
    }

    /// Sets the sequence length.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the numeric precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the matrix-kernel datapath.
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// Applies a strict power cap in watts.
    pub fn with_power_cap(mut self, watts: f64) -> Self {
        self.power_cap_w = Some(watts);
        self
    }

    /// Applies a frequency cap as a fraction of the boost clock.
    pub fn with_freq_cap(mut self, factor: f64) -> Self {
        self.freq_cap = Some(factor);
        self
    }

    /// Selects the pipeline schedule (1F1B default; GPipe for ablations).
    pub fn with_pipeline_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.pipeline_schedule = schedule;
        self
    }

    /// Sets FSDP gradient-accumulation micro-steps.
    pub fn with_grad_accum(mut self, steps: u32) -> Self {
        self.grad_accum_steps = steps;
        self
    }

    /// Sets the FSDP selective-overlap policy.
    pub fn with_fsdp_overlap(mut self, overlap: fsdp::FsdpOverlap) -> Self {
        self.fsdp_overlap = overlap;
        self
    }

    /// A short label for report rows, e.g. `H100x4 GPT-3 XL FSDP b8`.
    pub fn label(&self) -> String {
        format!(
            "{}x{} {} {} b{}",
            self.sku,
            self.n_gpus,
            self.model.config().name,
            self.strategy,
            self.batch
        )
    }

    /// Samples one simulated iteration trains: the global batch. FSDP's
    /// `batch` is per-rank (data parallelism multiplies it by the world
    /// size); pipeline and tensor parallelism split one global batch.
    ///
    /// This is the numerator of the goodput metric — an elastic world-size
    /// change shifts it for FSDP but not for the model-parallel layouts.
    pub fn samples_per_iteration(&self) -> u64 {
        match self.strategy {
            Strategy::Fsdp => self.batch * self.n_gpus as u64,
            Strategy::Pipeline { .. } | Strategy::TensorParallel => self.batch,
        }
    }

    /// Microbatch count for pipeline experiments.
    fn microbatches(&self) -> Result<u32, ExperimentError> {
        match self.strategy {
            Strategy::Fsdp | Strategy::TensorParallel => Ok(0),
            Strategy::Pipeline { microbatch_size } => {
                if microbatch_size > self.batch {
                    return Err(ExperimentError::InvalidConfig(format!(
                        "microbatch size {microbatch_size} exceeds batch {}",
                        self.batch
                    )));
                }
                if microbatch_size == 0 || !self.batch.is_multiple_of(microbatch_size) {
                    return Err(ExperimentError::InvalidConfig(format!(
                        "batch {} not divisible by microbatch size {microbatch_size}",
                        self.batch
                    )));
                }
                Ok((self.batch / microbatch_size) as u32)
            }
        }
    }

    /// Validates device memory and picks the cheapest activation policy,
    /// exactly as the training frameworks would (keep activations if they
    /// fit, otherwise checkpoint).
    pub fn validate(&self) -> Result<ActivationPolicy, ExperimentError> {
        if self.n_gpus == 0 {
            return Err(ExperimentError::InvalidConfig(
                "node must have at least one GPU".into(),
            ));
        }
        if self.batch == 0 {
            return Err(ExperimentError::InvalidConfig(
                "batch size must be positive".into(),
            ));
        }
        if self.seq == 0 {
            return Err(ExperimentError::InvalidConfig(
                "sequence length must be positive".into(),
            ));
        }
        let cfg = self.model.config();
        let sku = self.sku.sku();
        let (sharding, batch) = match self.strategy {
            Strategy::Fsdp => (Sharding::FsdpZero3 { ranks: self.n_gpus }, self.batch),
            Strategy::TensorParallel => {
                (Sharding::TensorParallel { ranks: self.n_gpus }, self.batch)
            }
            Strategy::Pipeline { .. } => {
                let m = self.microbatches()?;
                let in_flight = match self.pipeline_schedule {
                    PipelineSchedule::GPipe => m as usize,
                    PipelineSchedule::OneFOneB => (m as usize).min(self.n_gpus),
                };
                (
                    Sharding::Pipeline {
                        stages: self.n_gpus,
                        in_flight,
                    },
                    self.batch / u64::from(m.max(1)),
                )
            }
        };
        memory::fit(&cfg, batch, self.seq, self.precision, sharding, &sku)
            .map(|(policy, _)| policy)
            .map_err(|estimate| ExperimentError::OutOfMemory {
                needed_gib: estimate.total_gib(),
                budget_gib: sku.mem_bytes() as f64 * memory::USABLE_FRACTION / (1u64 << 30) as f64,
            })
    }

    /// The machine this experiment runs on (with any power/frequency caps).
    pub fn machine(&self) -> Machine {
        let mut config = MachineConfig::stock(self.sku.sku(), self.n_gpus);
        if let Some(cap) = self.power_cap_w {
            config.governor.limit = PowerLimit::strict(cap);
        }
        if let Some(f) = self.freq_cap {
            config.governor.max_freq_factor = f;
        }
        Machine::new(config)
    }

    /// Builds the schedule for one execution mode.
    pub fn timeline(
        &self,
        mode: ExecutionMode,
        policy: ActivationPolicy,
    ) -> Result<Workload<Op>, ExperimentError> {
        let sku = self.sku.sku();
        let machine = self.machine();
        let topo = &machine.config().topology;
        match self.strategy {
            Strategy::Fsdp => {
                let mut plan = fsdp::FsdpPlan::new(
                    self.model.config(),
                    self.n_gpus,
                    self.batch,
                    self.seq,
                    self.precision,
                    self.datapath,
                    policy,
                );
                plan.grad_accum_steps = self.grad_accum_steps;
                plan.overlap = self.fsdp_overlap;
                Ok(fsdp::fsdp_timeline(&plan, &sku, topo, mode))
            }
            Strategy::TensorParallel => {
                let plan = tensor::TensorPlan {
                    model: self.model.config(),
                    ranks: self.n_gpus,
                    batch: self.batch,
                    seq: self.seq,
                    precision: self.precision,
                    datapath: self.datapath,
                    activation_policy: policy,
                };
                Ok(tensor::tensor_timeline(&plan, &sku, topo, mode))
            }
            Strategy::Pipeline { .. } => {
                let m = self.microbatches()?;
                let plan = pipeline::PipelinePlan {
                    model: self.model.config(),
                    stages: self.n_gpus,
                    microbatches: m,
                    batch_total: self.batch,
                    seq: self.seq,
                    precision: self.precision,
                    datapath: self.datapath,
                    activation_policy: policy,
                    schedule: self.pipeline_schedule,
                };
                Ok(pipeline::pipeline_timeline(&plan, &sku, topo, mode))
            }
        }
    }

    /// The vendor-appropriate telemetry sampler.
    pub fn sampler(&self) -> Sampler {
        match self.sku.sku().vendor {
            olab_gpu::Vendor::Nvidia => Sampler::nvml(),
            olab_gpu::Vendor::Amd => Sampler::amd_smi(),
        }
    }

    /// Runs the experiment: overlapped, sequential, and contention-free
    /// (ideal cross-check) simulations, plus all derived metrics.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::OutOfMemory`] if the configuration cannot fit,
    /// [`ExperimentError::InvalidConfig`] for bad batch/microbatch splits,
    /// [`ExperimentError::Sim`] if the engine rejects the schedule.
    pub fn run(&self) -> Result<ExperimentReport, ExperimentError> {
        let policy = self.validate()?;
        self.run_on(policy, &self.machine())
    }

    /// Runs the experiment once with measurement noise.
    ///
    /// # Errors
    ///
    /// Same as [`Experiment::run`].
    pub fn run_jittered(&self, seed: u64, sigma: f64) -> Result<ExperimentReport, ExperimentError> {
        let policy = self.validate()?;
        self.run_on(policy, &self.machine().with_jitter(Jitter { seed, sigma }))
    }

    /// The three legs and the derived metrics of a validated experiment
    /// on `machine`.
    fn run_on(
        &self,
        policy: ActivationPolicy,
        machine: &Machine,
    ) -> Result<ExperimentReport, ExperimentError> {
        let overlapped = execute(&self.timeline(ExecutionMode::Overlapped, policy)?, machine)?;
        let sequential = execute(&self.timeline(ExecutionMode::Sequential, policy)?, machine)?;
        // Only the ideal leg's end-to-end time is reported, so the lean
        // executor serves it without materializing a trace.
        let ideal = execute_lean(
            &self.timeline(ExecutionMode::Overlapped, policy)?,
            &machine.uncontended(),
        )?;

        let metrics = OverlapMetrics::derive(&overlapped, &sequential);
        let sampled = overlapped.gpus[0].power.sample(self.sampler());

        Ok(ExperimentReport {
            experiment: self.clone(),
            activation_policy: policy,
            metrics,
            sampled_avg_w: sampled.average().unwrap_or(0.0),
            sampled_peak_w: sampled.peak().unwrap_or(0.0),
            ideal_simulated_e2e_s: ideal.e2e_s,
            overlapped,
            sequential,
        })
    }
}

/// Mean/std statistics over repeated jittered runs (the paper's
/// average-over-25-runs methodology).
#[derive(Debug, Clone)]
pub struct MultiRunStats {
    /// Per-run metrics.
    pub runs: Vec<OverlapMetrics>,
    /// The noise level used.
    pub sigma: f64,
}

impl MultiRunStats {
    fn series(&self, f: impl Fn(&OverlapMetrics) -> f64) -> (f64, f64) {
        let n = self.runs.len().max(1) as f64;
        let mean = self.runs.iter().map(&f).sum::<f64>() / n;
        let var = self.runs.iter().map(|m| (f(m) - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    /// Mean and standard deviation of the overlapped E2E time, seconds.
    pub fn e2e_overlapped(&self) -> (f64, f64) {
        self.series(|m| m.e2e_overlapped_s)
    }

    /// Mean and standard deviation of the Eq. 1 compute slowdown.
    pub fn compute_slowdown(&self) -> (f64, f64) {
        self.series(|m| m.compute_slowdown)
    }

    /// Coefficient of variation of the E2E time (std/mean).
    pub fn e2e_cv(&self) -> f64 {
        let (mean, std) = self.e2e_overlapped();
        if mean > 0.0 {
            std / mean
        } else {
            0.0
        }
    }
}

impl Experiment {
    /// Runs the experiment `n` times with different noise seeds and returns
    /// the distribution of metrics — the paper's methodology ("all metrics
    /// were averaged over 25 runs").
    ///
    /// The seeds fan out across the `olab-grid` worker pool; results come
    /// back in seed order (seed `i` is always `runs[i]`) because the pool
    /// collects by input index, and each seeded run is deterministic.
    ///
    /// # Errors
    ///
    /// Same as [`Experiment::run`].
    pub fn run_n(&self, n: usize, sigma: f64) -> Result<MultiRunStats, ExperimentError> {
        let seeds: Vec<u64> = (0..n as u64).collect();
        let results = olab_grid::Pool::with_available_parallelism().map(&seeds, |&seed| {
            self.run_jittered(seed, sigma).map(|r| r.metrics)
        });
        let mut runs = Vec::with_capacity(n);
        for result in results {
            runs.push(result?);
        }
        Ok(MultiRunStats { runs, sigma })
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Everything measured and derived for one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The configuration that produced this report.
    pub experiment: Experiment,
    /// The activation policy the memory check selected.
    pub activation_policy: ActivationPolicy,
    /// The paper's metrics (Eqs. 1–5).
    pub metrics: OverlapMetrics,
    /// The overlapped run.
    pub overlapped: RunResult,
    /// The sequential run.
    pub sequential: RunResult,
    /// E2E of the contention-free simulation (cross-check for Eq. 4).
    pub ideal_simulated_e2e_s: f64,
    /// Vendor-sampler average power, watts.
    pub sampled_avg_w: f64,
    /// Vendor-sampler peak power, watts.
    pub sampled_peak_w: f64,
}

impl ExperimentReport {
    /// TDP of the experiment's SKU, for normalized power columns.
    pub fn tdp_w(&self) -> f64 {
        self.experiment.sku.sku().tdp_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(sku: SkuKind, strategy: Strategy) -> Experiment {
        Experiment::new(sku, 4, ModelPreset::Gpt3Xl, strategy, 8).with_seq(256)
    }

    #[test]
    fn fsdp_experiment_runs_end_to_end() {
        let r = small(SkuKind::H100, Strategy::Fsdp).run().expect("runs");
        assert!(r.metrics.e2e_overlapped_s > 0.0);
        assert!(r.metrics.overlap_ratio > 0.0);
        assert!(r.sampled_peak_w > 0.0);
    }

    #[test]
    fn pipeline_experiment_runs_end_to_end() {
        let r = small(SkuKind::A100, Strategy::Pipeline { microbatch_size: 2 })
            .run()
            .expect("runs");
        assert!(r.metrics.e2e_overlapped_s > 0.0);
    }

    #[test]
    fn samples_per_iteration_follows_the_sharding_layout() {
        // FSDP's batch is per-rank; model parallelism splits one global batch.
        assert_eq!(
            small(SkuKind::H100, Strategy::Fsdp).samples_per_iteration(),
            32
        );
        assert_eq!(
            small(SkuKind::H100, Strategy::Pipeline { microbatch_size: 2 }).samples_per_iteration(),
            8
        );
        assert_eq!(
            small(SkuKind::H100, Strategy::TensorParallel).samples_per_iteration(),
            8
        );
    }

    #[test]
    fn ideal_simulation_brackets_derived_ideal() {
        let r = small(SkuKind::Mi210, Strategy::Fsdp).run().expect("runs");
        // The Eq. 4 derivation and the direct contention-free simulation
        // should roughly agree.
        let ratio = r.metrics.e2e_ideal_s / r.ideal_simulated_e2e_s;
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn oversized_model_reports_oom() {
        let e = Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3_13B, Strategy::Fsdp, 8);
        match e.run() {
            Err(ExperimentError::OutOfMemory {
                needed_gib,
                budget_gib,
            }) => {
                assert!(needed_gib > budget_gib);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn indivisible_microbatch_is_invalid() {
        let e = Experiment::new(
            SkuKind::A100,
            4,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline { microbatch_size: 3 },
            8,
        );
        assert!(matches!(e.run(), Err(ExperimentError::InvalidConfig(_))));
    }

    #[test]
    fn power_cap_slows_the_iteration() {
        let stock = small(SkuKind::A100, Strategy::Fsdp).run().unwrap();
        let capped = small(SkuKind::A100, Strategy::Fsdp)
            .with_power_cap(150.0)
            .run()
            .unwrap();
        assert!(
            capped.metrics.e2e_overlapped_s > 1.2 * stock.metrics.e2e_overlapped_s,
            "capped {} vs stock {}",
            capped.metrics.e2e_overlapped_s,
            stock.metrics.e2e_overlapped_s
        );
    }

    #[test]
    fn jittered_runs_vary_but_stay_near_the_deterministic_result() {
        let exp = small(SkuKind::H100, Strategy::Fsdp);
        let deterministic = exp.run().unwrap().metrics.e2e_overlapped_s;
        let stats = exp.run_n(5, 0.05).expect("multi-run succeeds");
        assert_eq!(stats.runs.len(), 5);
        let (mean, std) = stats.e2e_overlapped();
        assert!(std > 0.0, "noise must produce spread");
        assert!(
            (mean / deterministic - 1.0).abs() < 0.05,
            "mean {mean} vs deterministic {deterministic}"
        );
        assert!(stats.e2e_cv() < 0.05, "cv {}", stats.e2e_cv());
    }

    #[test]
    fn same_seed_reproduces_the_same_jittered_run() {
        let exp = small(SkuKind::A100, Strategy::Fsdp);
        let a = exp.run_jittered(7, 0.05).unwrap();
        let b = exp.run_jittered(7, 0.05).unwrap();
        assert_eq!(a.metrics.e2e_overlapped_s, b.metrics.e2e_overlapped_s);
        let c = exp.run_jittered(8, 0.05).unwrap();
        assert_ne!(a.metrics.e2e_overlapped_s, c.metrics.e2e_overlapped_s);
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        for strategy in [
            Strategy::Fsdp,
            Strategy::TensorParallel,
            Strategy::Pipeline { microbatch_size: 2 },
        ] {
            let e = Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3Xl, strategy, 0);
            assert!(
                matches!(e.run(), Err(ExperimentError::InvalidConfig(_))),
                "{strategy:?} must reject batch 0"
            );
        }
    }

    #[test]
    fn zero_seq_is_a_typed_error() {
        let e = small(SkuKind::A100, Strategy::Fsdp).with_seq(0);
        assert!(matches!(e.run(), Err(ExperimentError::InvalidConfig(_))));
    }

    #[test]
    fn zero_gpus_is_a_typed_error() {
        let e = Experiment::new(SkuKind::A100, 0, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8);
        assert!(matches!(e.run(), Err(ExperimentError::InvalidConfig(_))));
    }

    #[test]
    fn microbatch_larger_than_batch_is_a_typed_error() {
        let e = Experiment::new(
            SkuKind::A100,
            4,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline {
                microbatch_size: 16,
            },
            8,
        );
        match e.run() {
            Err(ExperimentError::InvalidConfig(msg)) => {
                assert!(msg.contains("exceeds batch"), "message: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn seq_length_one_produces_finite_metrics() {
        // The degenerate single-token sequence must run without panicking
        // and without NaN/inf leaking into any derived metric.
        for strategy in [Strategy::Fsdp, Strategy::Pipeline { microbatch_size: 2 }] {
            let r = small(SkuKind::H100, strategy)
                .with_seq(1)
                .run()
                .expect("seq=1 must run");
            let m = &r.metrics;
            for (name, v) in [
                ("compute_slowdown", m.compute_slowdown),
                ("overlap_ratio", m.overlap_ratio),
                ("e2e_overlapped_s", m.e2e_overlapped_s),
                ("e2e_ideal_s", m.e2e_ideal_s),
                ("e2e_sequential_derived_s", m.e2e_sequential_derived_s),
                ("e2e_sequential_measured_s", m.e2e_sequential_measured_s),
                ("avg_power_w", m.avg_power_w),
                ("peak_power_w", m.peak_power_w),
                ("energy_j", m.energy_j),
            ] {
                assert!(v.is_finite(), "{strategy:?}: {name} = {v} is not finite");
            }
            assert!(m.e2e_overlapped_s > 0.0);
        }
    }

    #[test]
    fn labels_identify_the_cell() {
        let e = small(SkuKind::H100, Strategy::Fsdp);
        assert_eq!(e.label(), "H100x4 GPT-3 XL FSDP b8");
    }
}
