//! Running an experiment under a fault scenario and scoring its resilience.
//!
//! [`run_with_faults`] executes the experiment twice on the *same* overlap
//! timeline — once on the healthy machine (the baseline that also sizes the
//! fault windows) and once under the injected [`FaultTimeline`] — and
//! reports how much time, overlap and efficiency the faults cost. Both runs
//! are pure functions of `(experiment, spec)`, so the whole report is
//! bit-identical across invocations and sweep parallelism.

use crate::machine::{AbortInfo, FaultEventKind, FaultStats, FaultyMachine};
use crate::scenario::{FaultScenarioSpec, FaultTimeline};
use olab_core::{
    execute, execute_model, to_chrome_trace_annotated, Experiment, ExperimentError, RunResult,
    TraceAnnotation,
};
use olab_parallel::ExecutionMode;
use olab_sim::NullObserver;
use std::error::Error;
use std::fmt;

/// Why a faulted run produced no report.
#[derive(Debug)]
pub enum FaultError {
    /// The watchdog exhausted its retries under an abort policy (or no
    /// surviving path existed): NCCL would tear the job down here.
    Aborted(AbortInfo),
    /// The experiment itself is infeasible or failed to simulate.
    Experiment(ExperimentError),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Aborted(info) => write!(
                f,
                "watchdog aborted at {:.3}s: collective '{}' unreachable after {} retries",
                info.at_s, info.collective, info.retries
            ),
            FaultError::Experiment(e) => write!(f, "{e}"),
        }
    }
}

impl Error for FaultError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FaultError::Aborted(_) => None,
            FaultError::Experiment(e) => Some(e),
        }
    }
}

impl From<ExperimentError> for FaultError {
    fn from(e: ExperimentError) -> Self {
        FaultError::Experiment(e)
    }
}

/// Resilience scorecard: the faulty run against its fault-free baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceMetrics {
    /// Fault-free end-to-end time, seconds.
    pub fault_free_e2e_s: f64,
    /// End-to-end time under the fault scenario, seconds.
    pub faulty_e2e_s: f64,
    /// Wall-clock lost to the scenario, seconds.
    pub time_lost_s: f64,
    /// Collective progress lost to watchdog stalls and rebuilds, seconds.
    pub stall_s: f64,
    /// Watchdog retries spent.
    pub retries: u32,
    /// Collectives re-lowered onto a surviving ring.
    pub degraded_collectives: u32,
    /// Compute kernels that paid an ECC retry.
    pub ecc_kernels: u32,
    /// Overlap ratio (Eq. 2) of the fault-free run.
    pub fault_free_overlap_ratio: f64,
    /// Overlap ratio under faults.
    pub faulty_overlap_ratio: f64,
    /// Overlap retained under faults: faulty / fault-free overlap ratio
    /// (1.0 when the baseline has no overlap to lose).
    pub overlap_efficiency: f64,
}

impl ResilienceMetrics {
    fn derive(fault_free: &RunResult, faulty: &RunResult, stats: &FaultStats) -> Self {
        let base_overlap = fault_free.overlap_ratio();
        let faulty_overlap = faulty.overlap_ratio();
        ResilienceMetrics {
            fault_free_e2e_s: fault_free.e2e_s,
            faulty_e2e_s: faulty.e2e_s,
            time_lost_s: faulty.e2e_s - fault_free.e2e_s,
            stall_s: stats.stall_s,
            retries: stats.retries,
            degraded_collectives: stats.degraded_collectives,
            ecc_kernels: stats.ecc_kernels,
            fault_free_overlap_ratio: base_overlap,
            faulty_overlap_ratio: faulty_overlap,
            overlap_efficiency: if base_overlap > 0.0 {
                faulty_overlap / base_overlap
            } else {
                1.0
            },
        }
    }
}

impl fmt::Display for ResilienceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "e2e {:.4}s -> {:.4}s (+{:.4}s), stall {:.4}s, {} retries, \
             {} degraded, {} ecc, overlap {:.3} -> {:.3} (eff {:.3})",
            self.fault_free_e2e_s,
            self.faulty_e2e_s,
            self.time_lost_s,
            self.stall_s,
            self.retries,
            self.degraded_collectives,
            self.ecc_kernels,
            self.fault_free_overlap_ratio,
            self.faulty_overlap_ratio,
            self.overlap_efficiency
        )
    }
}

/// Everything one faulted run produced.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The experiment that ran.
    pub experiment: Experiment,
    /// The scenario it ran under.
    pub spec: FaultScenarioSpec,
    /// The concrete fault windows the spec expanded into.
    pub timeline: FaultTimeline,
    /// The resilience scorecard.
    pub metrics: ResilienceMetrics,
    /// The healthy baseline run.
    pub fault_free: RunResult,
    /// The run under faults.
    pub faulty: RunResult,
    /// Raw fault accounting (including the per-episode event log).
    pub stats: FaultStats,
}

/// The fault windows of `timeline` and the watchdog episodes of `stats`
/// as Chrome-trace annotations, clipped to `until` seconds.
///
/// This is the single source of truth for how faults render in traces:
/// [`FaultReport::annotations`] uses it with the faulty run's makespan,
/// and observability tooling reuses it for instrumented fault runs.
pub fn fault_annotations(
    timeline: &FaultTimeline,
    stats: &FaultStats,
    until: f64,
) -> Vec<TraceAnnotation> {
    let mut notes = Vec::new();
    for w in &timeline.throttles {
        notes.push(TraceAnnotation {
            name: format!("gpu{} clock x{:.2}", w.gpu, w.freq_factor),
            track: "throttle".into(),
            start_s: w.start_s.min(until),
            end_s: w.end_s.min(until),
        });
    }
    for l in &timeline.link_faults {
        let name = if l.is_outage() {
            format!("{} outage", l.link)
        } else {
            format!("{} bw x{:.2}", l.link, l.bw_factor)
        };
        notes.push(TraceAnnotation {
            name,
            track: "link".into(),
            start_s: l.start_s.min(until),
            end_s: l.end_s.unwrap_or(until).min(until),
        });
    }
    for e in &stats.events {
        let (name, track) = match e.kind {
            FaultEventKind::Stall => (format!("watchdog stall: {}", e.label), "watchdog"),
            FaultEventKind::Rebuild => (format!("communicator rebuild: {}", e.label), "watchdog"),
        };
        notes.push(TraceAnnotation {
            name,
            track: track.into(),
            start_s: e.start_s.min(until),
            end_s: e.end_s.min(until),
        });
    }
    notes
}

impl FaultReport {
    /// The fault windows and watchdog episodes as Chrome-trace annotations,
    /// clipped to the faulty run's makespan.
    pub fn annotations(&self) -> Vec<TraceAnnotation> {
        fault_annotations(&self.timeline, &self.stats, self.faulty.e2e_s)
    }

    /// The faulty run as annotated Chrome-trace JSON (fault windows and
    /// watchdog episodes appear as their own process below the GPUs).
    pub fn chrome_trace(&self) -> String {
        to_chrome_trace_annotated(&self.faulty.trace, &self.annotations())
    }
}

/// One faulted execution with the abort surfaced as *data* instead of an
/// error — the raw material recovery policies are built from.
///
/// [`run_with_faults`] keeps the classic fail-fast contract (an abort is a
/// typed error); recovery layers instead call [`run_under_faults`] and
/// decide what an abort *means*: terminal failure, a restart from the last
/// checkpoint, or an elastic shrink onto the surviving ranks.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// The experiment that ran.
    pub experiment: Experiment,
    /// The scenario it ran under.
    pub spec: FaultScenarioSpec,
    /// The concrete fault windows the spec expanded into.
    pub timeline: FaultTimeline,
    /// The healthy baseline run (also sized the fault windows).
    pub fault_free: RunResult,
    /// The run under faults. When `abort` is set, everything after the
    /// abort instant is a near-zero-power drain, so `faulty.e2e_s` is
    /// effectively the abort time.
    pub faulty: RunResult,
    /// Raw fault accounting (including the per-episode event log).
    pub stats: FaultStats,
    /// Set when the watchdog gave up with no graceful path.
    pub abort: Option<AbortInfo>,
}

impl FaultRun {
    /// Seconds of useful forward progress committed before the run ended:
    /// wall time minus watchdog stalls, clamped to the fault-free makespan.
    /// For a completed run this is the whole (de-stalled) run; for an
    /// aborted one it is what a recovery policy can salvage.
    pub fn useful_s(&self) -> f64 {
        let horizon = self.abort.as_ref().map_or(self.faulty.e2e_s, |a| a.at_s);
        (horizon - self.stats.stall_s).clamp(0.0, self.fault_free.e2e_s)
    }
}

/// Runs `exp` fault-free (the baseline that sizes the fault windows), then
/// again under the scenario. A watchdog abort is reported in
/// [`FaultRun::abort`], not as an error.
///
/// # Errors
///
/// Only when the experiment itself is infeasible or fails to simulate.
pub fn run_under_faults(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
) -> Result<FaultRun, ExperimentError> {
    let policy = exp.validate()?;
    let machine = exp.machine();
    let workload = exp.timeline(ExecutionMode::Overlapped, policy)?;
    let fault_free = execute(&workload, &machine).map_err(ExperimentError::from)?;

    let timeline = FaultTimeline::generate(spec, exp.n_gpus, fault_free.e2e_s);
    let mut injected = FaultyMachine::new(machine, timeline.clone());
    let faulty = execute_model(&workload, &mut injected, &mut NullObserver)
        .map_err(ExperimentError::from)?;
    let abort = injected.abort().cloned();
    let stats = injected.stats().clone();
    Ok(FaultRun {
        experiment: exp.clone(),
        spec: *spec,
        timeline,
        fault_free,
        faulty,
        stats,
        abort,
    })
}

/// Runs `exp` fault-free (the baseline that sizes the fault windows), then
/// again under the scenario, and scores the difference.
///
/// # Errors
///
/// [`FaultError::Aborted`] when the watchdog gives up with no graceful
/// path; [`FaultError::Experiment`] when the experiment itself is
/// infeasible or fails to simulate.
pub fn run_with_faults(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
) -> Result<FaultReport, FaultError> {
    let run = run_under_faults(exp, spec)?;
    if let Some(info) = run.abort {
        return Err(FaultError::Aborted(info));
    }
    let metrics = ResilienceMetrics::derive(&run.fault_free, &run.faulty, &run.stats);
    Ok(FaultReport {
        experiment: run.experiment,
        spec: run.spec,
        timeline: run.timeline,
        metrics,
        fault_free: run.fault_free,
        faulty: run.faulty,
        stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Severity;
    use olab_core::Strategy;
    use olab_gpu::SkuKind;
    use olab_models::ModelPreset;

    fn small_experiment() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    #[test]
    fn fault_free_lower_bounds_every_severity() {
        let exp = small_experiment();
        for severity in Severity::ALL {
            let spec = FaultScenarioSpec::degrade(7, severity);
            let report = run_with_faults(&exp, &spec).expect("degrade policy never aborts");
            assert!(
                report.metrics.faulty_e2e_s >= report.metrics.fault_free_e2e_s - 1e-9,
                "{severity:?}: faults cannot speed a run up"
            );
            assert!(report.metrics.time_lost_s >= -1e-9);
        }
    }

    #[test]
    fn severe_scenarios_degrade_a_collective_gracefully() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(3, Severity::Severe);
        let report = run_with_faults(&exp, &spec).expect("graceful degradation, not a panic");
        assert!(
            report.metrics.degraded_collectives > 0 || report.metrics.retries > 0,
            "a severe scenario (dead link) must trip the watchdog: {}",
            report.metrics
        );
    }

    #[test]
    fn reports_are_bit_identical_for_the_same_seed() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(11, Severity::Moderate);
        let a = run_with_faults(&exp, &spec).unwrap();
        let b = run_with_faults(&exp, &spec).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.chrome_trace(), b.chrome_trace());
    }

    #[test]
    fn different_seeds_produce_different_timelines() {
        let exp = small_experiment();
        let a = run_with_faults(&exp, &FaultScenarioSpec::degrade(1, Severity::Moderate)).unwrap();
        let b = run_with_faults(&exp, &FaultScenarioSpec::degrade(2, Severity::Moderate)).unwrap();
        assert_ne!(a.timeline, b.timeline);
    }

    #[test]
    fn aborts_are_data_under_faults_and_errors_with_faults() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::abort(3, Severity::Severe);
        let run = run_under_faults(&exp, &spec).expect("feasible experiment");
        let info = run.abort.clone().expect("severe abort policy must abort");
        assert!(info.at_s > 0.0);
        assert!(run.useful_s() <= info.at_s);
        assert!(run.useful_s() >= 0.0);
        match run_with_faults(&exp, &spec) {
            Err(FaultError::Aborted(e)) => assert_eq!(e, info),
            other => panic!("fail-fast contract must error: {other:?}"),
        }
    }

    #[test]
    fn completed_runs_commit_their_destalled_wall_time() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(7, Severity::Moderate);
        let run = run_under_faults(&exp, &spec).unwrap();
        assert!(run.abort.is_none());
        let expected = (run.faulty.e2e_s - run.stats.stall_s).clamp(0.0, run.fault_free.e2e_s);
        assert!((run.useful_s() - expected).abs() < 1e-12);
        assert!(run.useful_s() <= run.fault_free.e2e_s + 1e-12);
    }

    #[test]
    fn annotations_cover_every_fault_window_and_episode() {
        let exp = small_experiment();
        let spec = FaultScenarioSpec::degrade(5, Severity::Severe);
        let report = run_with_faults(&exp, &spec).unwrap();
        let notes = report.annotations();
        let expected = report.timeline.throttles.len()
            + report.timeline.link_faults.len()
            + report.stats.events.len();
        assert_eq!(notes.len(), expected);
        let json = report.chrome_trace();
        assert!(json.contains("\"cat\": \"fault\""));
        assert!(json.contains("faults/link"));
    }
}
