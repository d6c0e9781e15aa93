//! Running an experiment under a fault scenario *and* a recovery policy.
//!
//! [`run_with_recovery`] drives `olab_faults::run_under_faults` and then
//! [`recover`] decides what an abort means:
//!
//! * **fail-fast** — the job dies; all work since launch is lost and the
//!   goodput is zero,
//! * **checkpoint-restart** — the job restarts from its last completed
//!   checkpoint on a repaired machine, paying restore + re-init + warmup
//!   and re-executing the lost slice,
//! * **elastic-continue** — the failed rank is evicted, its state is
//!   re-sharded onto the survivors via real collective traffic, and the
//!   job finishes at world size N−1.
//!
//! Everything stays a pure function of `(experiment, scenario, policy)`:
//! same inputs, bit-identical report, under any sweep parallelism.

use crate::checkpoint::{mtbf_s, state_bytes_per_gpu, CheckpointModel, RESTART_WARMUP_FRACTION};
use crate::policy::RecoveryPolicy;
use olab_ccl::{relower_surviving, try_lower, Algorithm, Collective};
use olab_core::{execute, goodput_samples_per_s, Experiment, ExperimentError};
use olab_faults::{run_under_faults, FaultRun, FaultScenarioSpec};
use olab_parallel::ExecutionMode;
use olab_sim::{GpuId, NullObserver, SimTime, SimTrace};
use std::error::Error;
use std::fmt;

/// Why a recovery run produced no report.
#[derive(Debug)]
pub enum RecoveryError {
    /// The experiment itself is infeasible or failed to simulate.
    Experiment(ExperimentError),
    /// Elastic continuation cannot shrink this job onto the survivors
    /// (model parallelism that pins the world size, or the shrunken
    /// experiment no longer fits in memory).
    ShrinkInfeasible {
        /// The world size the job tried to shrink to.
        survivors: usize,
        /// Why the shrink is impossible.
        reason: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Experiment(e) => write!(f, "{e}"),
            RecoveryError::ShrinkInfeasible { survivors, reason } => {
                write!(f, "cannot shrink to {survivors} ranks: {reason}")
            }
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::Experiment(e) => Some(e),
            RecoveryError::ShrinkInfeasible { .. } => None,
        }
    }
}

impl From<ExperimentError> for RecoveryError {
    fn from(e: ExperimentError) -> Self {
        RecoveryError::Experiment(e)
    }
}

/// The recovery scorecard for one `(experiment, scenario, policy)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryMetrics {
    /// Whether the job finished its workload under this policy.
    pub completed: bool,
    /// The healthy baseline makespan, seconds.
    pub fault_free_e2e_s: f64,
    /// Total wall-clock the job occupied (including stalls, checkpoint
    /// writes, recovery, and re-executed work), seconds.
    pub wall_s: f64,
    /// Training samples whose work survived to the end of the job. Zero
    /// for a fail-fast abort; the full workload otherwise.
    pub committed_samples: f64,
    /// Goodput: committed samples per wall-clock second.
    pub goodput_samples_per_s: f64,
    /// Forward progress discarded and re-executed (fail-fast: everything
    /// since launch; checkpointing: since the last checkpoint; elastic:
    /// nothing), seconds of healthy-machine work.
    pub lost_work_s: f64,
    /// Failure-to-resumed-training time: restore + re-init + warmup for a
    /// restart, re-shard + communicator rebuild for an elastic shrink.
    pub time_to_recover_s: f64,
    /// Checkpoints written over the whole job.
    pub checkpoints_written: u32,
    /// Wall-clock spent writing checkpoints, seconds.
    pub checkpoint_overhead_s: f64,
    /// Energy beyond what the fault-free run would have spent, joules.
    /// For a job that dies with nothing committed this is *all* energy
    /// spent (every joule was overhead).
    pub recovery_energy_j: f64,
    /// World size at job end (N−1 after an elastic shrink).
    pub final_world_size: u32,
}

/// What an elastic shrink moved, for byte-conservation checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReshardSummary {
    /// The evicted rank (the higher endpoint of the dead link).
    pub evicted: GpuId,
    /// World size before the shrink.
    pub from_ranks: u32,
    /// World size after the shrink.
    pub to_ranks: u32,
    /// Total durable state (weights + optimizer) across ranks before,
    /// bytes.
    pub bytes_before: f64,
    /// Total durable state across the surviving ranks after, bytes.
    pub bytes_after: f64,
    /// Wall-clock of the re-shard exchange (all-gather + re-scatter over
    /// the survivors), seconds.
    pub reshard_s: f64,
    /// Communicator rebuild cost on the shrunken world, seconds.
    pub rebuild_s: f64,
}

/// Everything one recovery run produced.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The recovery policy in force.
    pub policy: RecoveryPolicy,
    /// The underlying faulted execution (abort surfaced as data): the
    /// experiment, the scenario, and the faulted phase.
    pub run: FaultRun,
    /// The recovery scorecard.
    pub metrics: RecoveryMetrics,
    /// The checkpoint cost model, when the policy writes checkpoints.
    pub checkpoint: Option<CheckpointModel>,
    /// The checkpoint interval actually in force (explicit or Young/Daly;
    /// `None` = the policy never checkpointed).
    pub interval_s: Option<f64>,
    /// The elastic re-shard, when one happened.
    pub reshard: Option<ReshardSummary>,
    /// The job's wall-clock trace under the policy. For a recovered run
    /// this is the faulted phase truncated at the failure, a recovery gap
    /// priced at idle power, then the post-recovery phase — the mid-run
    /// world-size transition is visible as the trace losing a GPU.
    /// Checkpoint writes appear in the metrics, not the trace.
    pub trace: SimTrace,
}

/// Runs `exp` under `spec`, applying `policy` when the watchdog gives up.
///
/// # Errors
///
/// [`RecoveryError::Experiment`] when the experiment is infeasible;
/// [`RecoveryError::ShrinkInfeasible`] when elastic continuation cannot
/// shrink the job (pipeline layouts pin their stage count; the shrunken
/// world may no longer fit in memory).
pub fn run_with_recovery(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
    policy: RecoveryPolicy,
) -> Result<RecoveryReport, RecoveryError> {
    recover(run_under_faults(exp, spec, &mut NullObserver)?, policy)
}

/// Applies `policy` to a finished faulted run: the policy step of
/// [`run_with_recovery`], for callers that ran (and perhaps observed) the
/// faulted phase themselves.
///
/// # Errors
///
/// As [`run_with_recovery`], less the faulted phase's own failures.
pub fn recover(run: FaultRun, policy: RecoveryPolicy) -> Result<RecoveryReport, RecoveryError> {
    let exp = run.experiment.clone();
    let ff = run.fault_free.e2e_s;
    let ff_energy = run.fault_free.energy_j();
    let total_samples = exp.samples_per_iteration() as f64;
    let useful = run.useful_s();
    let idle_w = exp.sku.sku().idle_w;

    match policy {
        RecoveryPolicy::FailFast => {
            let report = match &run.abort {
                None => completed_report(policy, run, total_samples, 0, 0.0, 0.0),
                Some(info) => {
                    let at = info.at_s;
                    let trace = run.faulty.trace.truncated(SimTime::from_secs(at));
                    let metrics = RecoveryMetrics {
                        completed: false,
                        fault_free_e2e_s: ff,
                        wall_s: at,
                        committed_samples: 0.0,
                        goodput_samples_per_s: 0.0,
                        lost_work_s: useful,
                        time_to_recover_s: 0.0,
                        checkpoints_written: 0,
                        checkpoint_overhead_s: 0.0,
                        // Nothing committed: every joule was overhead.
                        recovery_energy_j: run.faulty.energy_j(),
                        final_world_size: exp.n_gpus as u32,
                    };
                    RecoveryReport {
                        policy,
                        run,
                        metrics,
                        checkpoint: None,
                        interval_s: None,
                        reshard: None,
                        trace,
                    }
                }
            };
            Ok(report)
        }

        RecoveryPolicy::CheckpointRestart { interval_s } => {
            let model = CheckpointModel::for_experiment(&exp);
            let interval = match interval_s {
                Some(t) => Some(t),
                None => model.young_daly_interval_s(mtbf_s(&run.timeline)),
            };
            let n = exp.n_gpus as f64;
            match run.abort.clone() {
                None => {
                    // Healthy completion: checkpoints are pure overhead,
                    // paced by wall-clock.
                    let ckpts = interval.map_or(0, |t| (run.faulty.e2e_s / t).floor() as u32);
                    let overhead_s = f64::from(ckpts) * model.write_s;
                    let mut report = completed_report(
                        policy,
                        run,
                        total_samples,
                        ckpts,
                        overhead_s,
                        f64::from(ckpts) * model.write_s * model.write_power_w * n,
                    );
                    report.checkpoint = Some(model);
                    report.interval_s = interval;
                    Ok(report)
                }
                Some(info) => {
                    // Checkpoints completed before the failure, paced by
                    // useful (de-stalled) time — the documented
                    // approximation of wall-clock pacing.
                    let done = interval.map_or(0, |t| (useful / t).floor() as u32);
                    let salvaged = interval.map_or(0.0, |t| f64::from(done) * t);
                    let lost = (useful - salvaged).max(0.0);
                    let remaining = ff - salvaged;
                    let restore_s = if done > 0 { model.read_s } else { 0.0 };
                    let ttr = restore_s
                        + run.timeline.watchdog.rebuild_s(exp.n_gpus)
                        + RESTART_WARMUP_FRACTION * ff;
                    let phase2_ckpts = interval.map_or(0, |t| (remaining / t).floor() as u32);
                    let ckpts = done + phase2_ckpts;
                    let ckpt_s = f64::from(ckpts) * model.write_s;
                    let wall = info.at_s
                        + f64::from(done) * model.write_s
                        + ttr
                        + remaining
                        + f64::from(phase2_ckpts) * model.write_s;

                    let energy = run.faulty.energy_j()
                        + ckpt_s * model.write_power_w * n
                        + idle_w * n * ttr
                        + ff_energy * (remaining / ff);
                    let trace = run
                        .faulty
                        .trace
                        .truncated(SimTime::from_secs(info.at_s))
                        .then(
                            SimTime::from_secs(ttr),
                            idle_w,
                            &run.fault_free
                                .trace
                                .truncated(SimTime::from_secs(remaining)),
                        );
                    let metrics = RecoveryMetrics {
                        completed: true,
                        fault_free_e2e_s: ff,
                        wall_s: wall,
                        committed_samples: total_samples,
                        goodput_samples_per_s: goodput_samples_per_s(total_samples, wall),
                        lost_work_s: lost,
                        time_to_recover_s: ttr,
                        checkpoints_written: ckpts,
                        checkpoint_overhead_s: ckpt_s,
                        recovery_energy_j: energy - ff_energy,
                        final_world_size: exp.n_gpus as u32,
                    };
                    Ok(RecoveryReport {
                        policy,
                        run,
                        metrics,
                        checkpoint: Some(model),
                        interval_s: interval,
                        reshard: None,
                        trace,
                    })
                }
            }
        }

        RecoveryPolicy::ElasticContinue => match run.abort.clone() {
            None => Ok(completed_report(policy, run, total_samples, 0, 0.0, 0.0)),
            Some(info) => elastic_recover(&exp, run, &info.at_s, useful, idle_w),
        },
    }
}

/// A job that finished without needing its recovery policy: the wall-clock
/// is the faulted run (plus any checkpoint overhead) and nothing was lost.
fn completed_report(
    policy: RecoveryPolicy,
    run: FaultRun,
    total_samples: f64,
    ckpts: u32,
    ckpt_overhead_s: f64,
    ckpt_energy_j: f64,
) -> RecoveryReport {
    let wall = run.faulty.e2e_s + ckpt_overhead_s;
    let metrics = RecoveryMetrics {
        completed: true,
        fault_free_e2e_s: run.fault_free.e2e_s,
        wall_s: wall,
        committed_samples: total_samples,
        goodput_samples_per_s: goodput_samples_per_s(total_samples, wall),
        lost_work_s: 0.0,
        time_to_recover_s: 0.0,
        checkpoints_written: ckpts,
        checkpoint_overhead_s: ckpt_overhead_s,
        recovery_energy_j: run.faulty.energy_j() + ckpt_energy_j - run.fault_free.energy_j(),
        final_world_size: run.experiment.n_gpus as u32,
    };
    let trace = run.faulty.trace.clone();
    RecoveryReport {
        policy,
        run,
        metrics,
        checkpoint: None,
        interval_s: None,
        reshard: None,
        trace,
    }
}

/// The elastic path: evict the dead link's higher endpoint, re-shard state
/// onto the survivors via real collective traffic, re-lower onto the
/// shrunken world, and finish the remaining samples at world size N−1.
fn elastic_recover(
    exp: &Experiment,
    run: FaultRun,
    at_s: &f64,
    useful: f64,
    idle_w: f64,
) -> Result<RecoveryReport, RecoveryError> {
    let n = exp.n_gpus;
    let infeasible = |reason: String| RecoveryError::ShrinkInfeasible {
        survivors: n.saturating_sub(1),
        reason,
    };
    let dead = run
        .timeline
        .permanent_link_outage()
        .ok_or_else(|| infeasible("no permanent link outage to evict a rank for".into()))?;
    if matches!(exp.strategy, olab_core::Strategy::Pipeline { .. }) {
        return Err(infeasible(
            "pipeline stages hold disjoint layers; shrinking requires repartitioning the model"
                .into(),
        ));
    }
    if matches!(exp.strategy, olab_core::Strategy::TensorParallel) {
        // TP shards heads and MLP columns evenly: the shrunken world must
        // still divide them, or the model cannot be re-partitioned.
        let cfg = exp.model.config();
        let survivors_u64 = (n - 1) as u64;
        if !u64::from(cfg.heads).is_multiple_of(survivors_u64)
            || !cfg.ffn_hidden.is_multiple_of(survivors_u64)
        {
            return Err(infeasible(format!(
                "{} heads / {} MLP columns do not divide across {} ranks",
                cfg.heads,
                cfg.ffn_hidden,
                n - 1
            )));
        }
    }

    let (a, b) = dead.link.endpoints();
    let evicted = if a.0 >= b.0 { a } else { b };
    let survivors: Vec<GpuId> = (0..n as u16).map(GpuId).filter(|g| *g != evicted).collect();

    // Price the re-shard as real collective traffic over the survivors on
    // the original fabric: an all-gather reassembling the full durable
    // state, then a re-scatter laying it out 1/(N−1). Both are the
    // original full-group lowering re-lowered onto the surviving ranks.
    let sku = exp.sku.sku();
    let machine = exp.machine();
    let topo = &machine.config().topology;
    let full_group: Vec<GpuId> = (0..n as u16).map(GpuId).collect();
    let state_total = state_bytes_per_gpu(exp) * n as f64;
    let state_bytes = state_total.round() as u64;
    let mut reshard_s = 0.0;
    for coll in [
        Collective::all_gather(state_bytes, full_group.clone()),
        Collective::reduce_scatter(state_bytes, full_group.clone()),
    ] {
        let full_op = try_lower(&coll, Algorithm::Ring, &sku, topo, exp.precision)
            .map_err(|e| infeasible(e.to_string()))?;
        let shrunk_op = relower_surviving(&full_op, &survivors, &sku, topo, exp.precision)
            .map_err(|e| infeasible(e.to_string()))?;
        reshard_s += shrunk_op.isolated_duration_s();
    }
    let rebuild_s = run.timeline.watchdog.rebuild_s(survivors.len());
    let ttr = reshard_s + rebuild_s;

    // Simulate the shrunken world for the remaining samples. Ranks are
    // renumbered 0..N−1 in the shrunken experiment; the survivors keep
    // their shards, just relabeled.
    let mut shrunk = exp.clone();
    shrunk.n_gpus = survivors.len();
    let activation = shrunk.validate().map_err(|e| infeasible(e.to_string()))?;
    let shrunk_machine = shrunk.machine();
    let workload = shrunk
        .timeline(ExecutionMode::Overlapped, activation)
        .map_err(|e| infeasible(e.to_string()))?;
    let shrunk_run = execute(&workload, &shrunk_machine)
        .map_err(|e| RecoveryError::Experiment(ExperimentError::from(e)))?;

    let ff = run.fault_free.e2e_s;
    let total_samples = exp.samples_per_iteration() as f64;
    let done_frac = (useful / ff).clamp(0.0, 1.0);
    let remaining_samples = total_samples * (1.0 - done_frac);
    let shrunk_tput = shrunk.samples_per_iteration() as f64 / shrunk_run.e2e_s;
    let phase2_s = remaining_samples / shrunk_tput;
    let wall = at_s + ttr + phase2_s;

    let energy = run.faulty.energy_j()
        + idle_w * survivors.len() as f64 * ttr
        + shrunk_run.energy_j() * (phase2_s / shrunk_run.e2e_s);
    let trace = run.faulty.trace.truncated(SimTime::from_secs(*at_s)).then(
        SimTime::from_secs(ttr),
        idle_w,
        &shrunk_run.trace,
    );
    let reshard = ReshardSummary {
        evicted,
        from_ranks: n as u32,
        to_ranks: survivors.len() as u32,
        bytes_before: state_total,
        bytes_after: state_bytes_per_gpu(&shrunk) * survivors.len() as f64,
        reshard_s,
        rebuild_s,
    };
    let metrics = RecoveryMetrics {
        completed: true,
        fault_free_e2e_s: ff,
        wall_s: wall,
        committed_samples: total_samples,
        goodput_samples_per_s: goodput_samples_per_s(total_samples, wall),
        lost_work_s: 0.0,
        time_to_recover_s: ttr,
        checkpoints_written: 0,
        checkpoint_overhead_s: 0.0,
        recovery_energy_j: energy - run.fault_free.energy_j(),
        final_world_size: survivors.len() as u32,
    };
    Ok(RecoveryReport {
        policy: RecoveryPolicy::ElasticContinue,
        run,
        metrics,
        checkpoint: None,
        interval_s: None,
        reshard: Some(reshard),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::Strategy;
    use olab_faults::Severity;
    use olab_gpu::SkuKind;
    use olab_models::ModelPreset;

    fn small_experiment() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    /// A seed whose Severe abort-policy scenario reliably kills the job.
    fn killing_spec() -> FaultScenarioSpec {
        FaultScenarioSpec::abort(3, Severity::Severe)
    }

    #[test]
    fn failfast_abort_commits_nothing() {
        let exp = small_experiment();
        let r = run_with_recovery(&exp, &killing_spec(), RecoveryPolicy::FailFast).unwrap();
        assert!(!r.metrics.completed);
        assert_eq!(r.metrics.goodput_samples_per_s, 0.0);
        assert_eq!(r.metrics.committed_samples, 0.0);
        assert!(r.metrics.lost_work_s > 0.0);
        assert!(r.metrics.recovery_energy_j > 0.0, "wasted energy counted");
        let at = r.run.abort.as_ref().unwrap().at_s;
        assert!((r.trace.makespan().as_secs() - at).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_restart_completes_and_bounds_lost_work() {
        let exp = small_experiment();
        let r = run_with_recovery(
            &exp,
            &killing_spec(),
            RecoveryPolicy::CheckpointRestart { interval_s: None },
        )
        .unwrap();
        assert!(r.metrics.completed);
        let interval = r.interval_s.expect("Young/Daly under a dead link");
        assert!(interval > 0.0);
        assert!(
            r.metrics.lost_work_s <= interval + 1e-9,
            "lost work is bounded by one interval: {} vs {}",
            r.metrics.lost_work_s,
            interval
        );
        assert!(r.metrics.wall_s >= r.metrics.fault_free_e2e_s);
        assert!(r.metrics.goodput_samples_per_s > 0.0);
        assert!(r.metrics.time_to_recover_s > 0.0);
    }

    #[test]
    fn elastic_continue_finishes_smaller_with_goodput_between_failfast_and_fault_free() {
        let exp = small_experiment();
        let spec = killing_spec();
        let r = run_with_recovery(&exp, &spec, RecoveryPolicy::ElasticContinue).unwrap();
        assert!(r.metrics.completed, "elastic must not abort");
        assert_eq!(r.metrics.final_world_size, 3);
        assert_eq!(r.metrics.lost_work_s, 0.0);
        let reshard = r.reshard.expect("a shrink happened");
        assert_eq!(reshard.from_ranks, 4);
        assert_eq!(reshard.to_ranks, 3);
        assert!(
            (reshard.bytes_before - reshard.bytes_after).abs() / reshard.bytes_before < 1e-9,
            "re-sharding conserves state bytes: {} vs {}",
            reshard.bytes_before,
            reshard.bytes_after
        );
        assert!(reshard.reshard_s > 0.0);

        let fault_free_goodput = exp.samples_per_iteration() as f64 / r.metrics.fault_free_e2e_s;
        let failfast = run_with_recovery(&exp, &spec, RecoveryPolicy::FailFast).unwrap();
        assert!(failfast.metrics.goodput_samples_per_s < r.metrics.goodput_samples_per_s);
        assert!(r.metrics.goodput_samples_per_s < fault_free_goodput);
    }

    #[test]
    fn the_transition_trace_loses_a_gpu_mid_run() {
        let exp = small_experiment();
        let r = run_with_recovery(&exp, &killing_spec(), RecoveryPolicy::ElasticContinue).unwrap();
        let at = r.run.abort.as_ref().unwrap().at_s;
        // Phase 1 ran 4 GPUs; the stitched trace still carries all 4 (the
        // evicted rank is parked at idle power), and its makespan covers
        // failure + recovery + the shrunken phase.
        assert_eq!(r.trace.gpus().len(), 4);
        assert!(r.trace.makespan().as_secs() > at + r.metrics.time_to_recover_s);
    }

    #[test]
    fn pipeline_jobs_cannot_shrink() {
        let exp = Experiment::new(
            SkuKind::A100,
            4,
            ModelPreset::Gpt3Xl,
            Strategy::Pipeline { microbatch_size: 2 },
            8,
        )
        .with_seq(256);
        match run_with_recovery(&exp, &killing_spec(), RecoveryPolicy::ElasticContinue) {
            Err(RecoveryError::ShrinkInfeasible { survivors: 3, .. }) => {}
            other => panic!("pipeline shrink must be a typed error, got {other:?}"),
        }
    }

    #[test]
    fn healthy_scenarios_make_all_policies_agree_on_completion() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(7, Severity::Mild);
        for policy in [
            RecoveryPolicy::FailFast,
            RecoveryPolicy::CheckpointRestart { interval_s: None },
            RecoveryPolicy::ElasticContinue,
        ] {
            let r = run_with_recovery(&exp, &spec, policy).unwrap();
            assert!(r.metrics.completed, "{policy}: no abort, no recovery");
            assert_eq!(r.metrics.lost_work_s, 0.0);
            assert_eq!(r.metrics.time_to_recover_s, 0.0);
            // Mild scenarios have no permanent fault: auto-interval
            // checkpointing writes nothing.
            assert_eq!(r.metrics.checkpoints_written, 0);
        }
    }

    #[test]
    fn explicit_intervals_charge_checkpoints_even_when_healthy() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(7, Severity::Mild);
        let base = run_with_recovery(&exp, &spec, RecoveryPolicy::FailFast).unwrap();
        let interval = base.metrics.wall_s / 4.0;
        let r = run_with_recovery(
            &exp,
            &spec,
            RecoveryPolicy::CheckpointRestart {
                interval_s: Some(interval),
            },
        )
        .unwrap();
        assert!(r.metrics.checkpoints_written >= 4);
        assert!(r.metrics.checkpoint_overhead_s > 0.0);
        assert!(r.metrics.wall_s > base.metrics.wall_s);
        assert!(r.metrics.goodput_samples_per_s < base.metrics.goodput_samples_per_s);
    }

    #[test]
    fn reports_are_bit_identical_for_the_same_inputs() {
        let exp = small_experiment();
        let spec = killing_spec();
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_s: None },
            RecoveryPolicy::ElasticContinue,
        ] {
            let a = run_with_recovery(&exp, &spec, policy).unwrap();
            let b = run_with_recovery(&exp, &spec, policy).unwrap();
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.reshard, b.reshard);
            assert_eq!(a.interval_s, b.interval_s);
        }
    }
}
