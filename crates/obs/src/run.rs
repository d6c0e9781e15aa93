//! Observed cell execution: run one experiment (or fault scenario) through
//! the product's own run function with a [`Recorder`] attached, and
//! assemble the run artifact from what it recorded.
//!
//! Observation is a parameter of the run, not a second implementation of
//! it: [`observe_cell`] calls `Experiment::run_observed`,
//! [`observe_fault_cell`] and [`observe_recovery_cell`] call
//! `olab_faults::run_under_faults` (the latter then `olab_resilience::
//! recover`), so an artifact always describes the run that produced the
//! numbers next to it. Everything here is a pure function of the cell and
//! the sampling cadence: no wall-clock, environment or thread count leaks
//! into the artifact.

use crate::artifact::{metrics_csv, FaultManifest, Manifest, RecoveryManifest, RunArtifact};
use crate::counters::{counter_tracks, counters_csv, sample_epochs};
use crate::event::{to_jsonl, EventBus, JsonlSink, ObsEvent};
use crate::record::Recorder;
use olab_core::sweep::{cell_descriptor, CELL_SCHEMA_VERSION};
use olab_core::{to_chrome_trace_full, Experiment, ExperimentError, RunTotals, TraceAnnotation};
use olab_faults::{run_under_faults, FaultCell, FaultRun, FaultScenarioSpec, FaultTimeline};
use olab_grid::GridJob;
use olab_resilience::{
    recover, RecoveryError, RecoveryPolicy, RecoveryReport, ResilienceCell, RECOVERY_SCHEMA_VERSION,
};
use olab_sim::SimTrace;
use std::cell::RefCell;
use std::rc::Rc;

/// One observed run in progress: the recorder the engine drives and the
/// event log its bus appends to.
struct Observation {
    recorder: Recorder,
    log: Rc<RefCell<String>>,
}

impl Observation {
    fn new() -> Self {
        let (sink, log) = JsonlSink::new();
        let mut bus = EventBus::new();
        bus.subscribe(Box::new(sink));
        Observation {
            recorder: Recorder::new(bus),
            log,
        }
    }

    fn emit(&mut self, event: &ObsEvent<'_>) {
        self.recorder.bus().emit(event);
    }

    /// The artifact: the recorded counters sampled at the manifest's
    /// cadence, `trace` with `notes` and the counter tracks, and the
    /// event log behind `prologue`.
    fn finish(
        self,
        manifest: Manifest,
        metrics: &[(&str, f64)],
        trace: &SimTrace,
        notes: &[TraceAnnotation],
        prologue: String,
    ) -> RunArtifact {
        let series = sample_epochs(
            self.recorder.epochs(),
            manifest.n_gpus,
            manifest.sample_ms / 1e3,
        );
        let mut events_jsonl = prologue;
        events_jsonl.push_str(&self.log.borrow());
        RunArtifact {
            manifest,
            metrics_csv: metrics_csv(metrics),
            counters_csv: counters_csv(&series),
            trace_json: to_chrome_trace_full(trace, notes, &counter_tracks(&series)),
            events_jsonl,
        }
    }
}

/// The manifest fields every kind of cell shares; the cell key is the
/// content address of `descriptor`.
fn manifest(
    kind: &'static str,
    exp: &Experiment,
    descriptor: String,
    sample_ms: f64,
    makespan_s: f64,
) -> Manifest {
    Manifest {
        kind,
        label: exp.label(),
        cell_key: olab_grid::fnv1a_64(descriptor.as_bytes()),
        descriptor,
        cell_schema_version: CELL_SCHEMA_VERSION,
        calibration_version: olab_gpu::CALIBRATION_VERSION,
        sample_ms,
        n_gpus: exp.n_gpus,
        makespan_s,
        fault: None,
        recovery: None,
    }
}

/// Runs `exp` fully instrumented and assembles its artifact: the
/// overlapped leg of [`Experiment::run_observed`] drives the recorder
/// (events + counters), sampled every `sample_ms` of simulated time.
///
/// # Errors
///
/// Same as [`Experiment::run`].
pub fn observe_cell(exp: &Experiment, sample_ms: f64) -> Result<RunArtifact, ExperimentError> {
    let mut obs = Observation::new();
    let report = exp.run_observed(&mut obs.recorder)?;
    let (m, overlapped) = (&report.metrics, &report.overlapped);
    let manifest = manifest(
        "experiment",
        exp,
        cell_descriptor(exp),
        sample_ms,
        overlapped.e2e_s,
    );
    let metrics = [
        ("compute_slowdown", m.compute_slowdown),
        ("overlap_ratio", m.overlap_ratio),
        ("e2e_overlapped_s", m.e2e_overlapped_s),
        ("e2e_ideal_s", m.e2e_ideal_s),
        ("e2e_sequential_derived_s", m.e2e_sequential_derived_s),
        ("e2e_sequential_measured_s", m.e2e_sequential_measured_s),
        ("avg_power_w", m.avg_power_w),
        ("peak_power_w", m.peak_power_w),
        ("avg_power_sequential_w", m.avg_power_sequential_w),
        ("peak_power_sequential_w", m.peak_power_sequential_w),
        ("energy_j", m.energy_j),
        ("ideal_simulated_e2e_s", report.ideal_simulated_e2e_s),
        ("comm_s", overlapped.comm_s()),
        ("overlapped_compute_s", overlapped.overlapped_compute_s()),
        ("hidden_comm_s", overlapped.hidden_comm_s()),
    ];
    Ok(obs.finish(manifest, &metrics, &overlapped.trace, &[], String::new()))
}

/// The fault windows as event-log lines. They are known before the faulty
/// leg starts, so they lead the log (prologue -> engine events ->
/// watchdog epilogue); the timeline is sized on the fault-free leg inside
/// the run, so they are rendered after it.
fn fault_prologue(timeline: &FaultTimeline) -> String {
    let mut out = String::new();
    let mut line = |event: &ObsEvent<'_>| {
        out.push_str(&to_jsonl(event));
        out.push('\n');
    };
    for w in &timeline.throttles {
        line(&ObsEvent::FaultThrottle {
            start_s: w.start_s,
            end_s: w.end_s,
            gpu: w.gpu,
            freq_factor: w.freq_factor,
        });
    }
    for l in &timeline.link_faults {
        line(&ObsEvent::FaultLink {
            start_s: l.start_s,
            end_s: l.end_s,
            link: &l.link.to_string(),
            bw_factor: l.bw_factor,
        });
    }
    out
}

/// The watchdog episodes and any abort of the faulty leg, after its
/// engine events.
fn emit_fault_epilogue(obs: &mut Observation, run: &FaultRun) {
    for e in &run.stats.events {
        obs.emit(&match e.kind {
            olab_faults::FaultEventKind::Stall => ObsEvent::WatchdogStall {
                start_s: e.start_s,
                end_s: e.end_s,
                label: &e.label,
            },
            olab_faults::FaultEventKind::Rebuild => ObsEvent::WatchdogRebuild {
                start_s: e.start_s,
                end_s: e.end_s,
                label: &e.label,
            },
        });
    }
    if let Some(abort) = &run.abort {
        obs.emit(&ObsEvent::WatchdogAbort {
            t_s: abort.at_s,
            label: &abort.collective,
            retries: abort.retries,
        });
    }
}

fn fault_manifest(run: &FaultRun) -> FaultManifest {
    FaultManifest {
        seed: run.spec.seed,
        severity: format!("{:?}", run.spec.severity),
        fault_schema_version: olab_faults::FAULT_SCHEMA_VERSION,
        aborted: run.abort.as_ref().map(|a| {
            format!(
                "collective '{}' unreachable after {} retries at {:.3}s",
                a.collective, a.retries, a.at_s
            )
        }),
    }
}

/// Runs `exp` under the fault scenario `spec`, fully instrumented: the
/// faulty leg of `olab_faults::run_under_faults` drives the recorder.
///
/// A watchdog abort is *not* an error here: the whole point of
/// observability is that failed cells leave a record too. The abort lands
/// in the event log and in `manifest.fault.aborted`.
///
/// # Errors
///
/// When the experiment is infeasible or fails to simulate.
pub fn observe_fault_cell(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
    sample_ms: f64,
) -> Result<RunArtifact, ExperimentError> {
    let mut obs = Observation::new();
    let run = run_under_faults(exp, spec, &mut obs.recorder)?;
    emit_fault_epilogue(&mut obs, &run);

    let m = run.metrics();
    let descriptor = FaultCell::new(exp.clone(), *spec).descriptor();
    let manifest = Manifest {
        fault: Some(fault_manifest(&run)),
        ..manifest("fault", exp, descriptor, sample_ms, run.faulty.e2e_s)
    };
    let metrics = [
        ("fault_free_e2e_s", m.fault_free_e2e_s),
        ("faulty_e2e_s", m.faulty_e2e_s),
        ("time_lost_s", m.time_lost_s),
        ("stall_s", m.stall_s),
        ("retries", f64::from(m.retries)),
        ("degraded_collectives", f64::from(m.degraded_collectives)),
        ("ecc_kernels", f64::from(m.ecc_kernels)),
        ("fault_free_overlap_ratio", m.fault_free_overlap_ratio),
        ("faulty_overlap_ratio", m.faulty_overlap_ratio),
        ("overlap_efficiency", m.overlap_efficiency),
    ];
    Ok(obs.finish(
        manifest,
        &metrics,
        &run.faulty.trace,
        &run.annotations(),
        fault_prologue(&run.timeline),
    ))
}

fn emit_recovery_epilogue(obs: &mut Observation, report: &RecoveryReport) {
    // Checkpoint writes pace the job every `interval` seconds of progress;
    // the event log places each back-to-back with its write cost.
    if let (Some(model), Some(interval)) = (&report.checkpoint, report.interval_s) {
        for seq in 1..=report.metrics.checkpoints_written {
            let start = f64::from(seq) * interval + f64::from(seq - 1) * model.write_s;
            obs.emit(&ObsEvent::Checkpoint {
                start_s: start,
                end_s: start + model.write_s,
                sequence: seq,
                bytes_per_gpu: model.bytes_per_gpu,
            });
        }
    }
    if let Some(abort) = &report.run.abort {
        if matches!(report.policy, RecoveryPolicy::CheckpointRestart { .. })
            && report.metrics.completed
        {
            let restored = report
                .interval_s
                .map_or(0, |t| (report.run.useful_s() / t).floor() as u32);
            obs.emit(&ObsEvent::Restore {
                t_s: abort.at_s,
                sequence: restored,
                ttr_s: report.metrics.time_to_recover_s,
            });
        }
    }
    if let Some(r) = &report.reshard {
        obs.emit(&ObsEvent::Reshard {
            t_s: report.run.abort.as_ref().map_or(0.0, |a| a.at_s),
            evicted: usize::from(r.evicted.0),
            from_ranks: r.from_ranks as usize,
            to_ranks: r.to_ranks as usize,
            bytes: r.bytes_before,
            reshard_s: r.reshard_s,
        });
    }
}

/// Runs `exp` under the fault scenario `spec` with the recovery policy
/// `policy` in force, fully instrumented.
///
/// The faulted phase runs once, through `olab_faults::run_under_faults`
/// with the recorder attached, and `olab_resilience::recover` applies the
/// policy to that same run, so the event log and counter series carry the
/// faulted phase's real lifecycle edges. The recovery lifecycle
/// (checkpoint writes, the restore, the elastic re-shard) lands as an
/// epilogue derived from the recovery report. The trace covers the whole
/// recovered job — including the mid-run world-size transition for an
/// elastic shrink — while the counter series covers the faulted phase.
///
/// # Errors
///
/// [`RecoveryError::Experiment`] when the experiment is infeasible;
/// [`RecoveryError::ShrinkInfeasible`] when elastic continuation cannot
/// shrink the job. A watchdog abort is *not* an error: the policy's
/// answer to it is the artifact.
pub fn observe_recovery_cell(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
    policy: RecoveryPolicy,
    sample_ms: f64,
) -> Result<RunArtifact, RecoveryError> {
    let mut obs = Observation::new();
    let run = run_under_faults(exp, spec, &mut obs.recorder)?;
    emit_fault_epilogue(&mut obs, &run);
    let prologue = fault_prologue(&run.timeline);
    let report = recover(run, policy)?;
    emit_recovery_epilogue(&mut obs, &report);

    let m = &report.metrics;
    let descriptor = ResilienceCell::new(exp.clone(), *spec, policy).descriptor();
    let manifest = Manifest {
        fault: Some(fault_manifest(&report.run)),
        recovery: Some(RecoveryManifest {
            policy: policy.descriptor(),
            completed: m.completed,
            final_world_size: m.final_world_size,
            checkpoints_written: m.checkpoints_written,
            recovery_schema_version: RECOVERY_SCHEMA_VERSION,
        }),
        ..manifest("resilience", exp, descriptor, sample_ms, m.wall_s)
    };
    let metrics = [
        ("fault_free_e2e_s", m.fault_free_e2e_s),
        ("wall_s", m.wall_s),
        ("committed_samples", m.committed_samples),
        ("goodput_samples_per_s", m.goodput_samples_per_s),
        ("lost_work_s", m.lost_work_s),
        ("time_to_recover_s", m.time_to_recover_s),
        ("checkpoints_written", f64::from(m.checkpoints_written)),
        ("checkpoint_overhead_s", m.checkpoint_overhead_s),
        ("recovery_energy_j", m.recovery_energy_j),
        ("final_world_size", f64::from(m.final_world_size)),
        ("stall_s", report.run.stats.stall_s),
        ("retries", f64::from(report.run.stats.retries)),
    ];
    Ok(obs.finish(
        manifest,
        &metrics,
        &report.trace,
        &report.run.annotations(),
        prologue,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::COUNTER_NAMES;
    use olab_core::fmtutil::validate_json;
    use olab_core::Strategy;
    use olab_faults::Severity;
    use olab_gpu::SkuKind;
    use olab_models::ModelPreset;

    const SAMPLE_MS: f64 = 100.0;

    fn small() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    #[test]
    fn observe_cell_produces_a_complete_consistent_artifact() {
        let artifact = observe_cell(&small(), SAMPLE_MS).expect("observes");
        validate_json(&artifact.manifest.to_json()).expect("manifest JSON");
        validate_json(&artifact.trace_json).expect("trace JSON");
        assert!(artifact.manifest.makespan_s > 0.0);
        assert_eq!(artifact.manifest.kind, "experiment");
        // 5 counter tracks per GPU, each present in the trace.
        for gpu in 0..4 {
            for name in COUNTER_NAMES {
                assert!(
                    artifact.trace_json.contains(&format!("gpu{gpu}/{name}")),
                    "missing track gpu{gpu}/{name}"
                );
            }
        }
        assert!(artifact.trace_json.contains("\"ph\": \"C\""));
        // The event log has task and collective lifecycle edges.
        for kind in [
            "task_start",
            "task_end",
            "collective_start",
            "collective_end",
        ] {
            assert!(
                artifact.events_jsonl.contains(kind),
                "missing {kind} events"
            );
        }
        for line in artifact.events_jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(artifact.metrics_csv.contains("e2e_overlapped_s,"));
        assert!(artifact.counters_csv.starts_with("gpu,t_ms,power_w"));
        assert!(artifact.counters_csv.lines().count() > 4, "has samples");
    }

    #[test]
    fn observed_metrics_match_the_unobserved_run() {
        let exp = small();
        let artifact = observe_cell(&exp, SAMPLE_MS).unwrap();
        let report = exp.run().unwrap();
        let row = format!("e2e_overlapped_s,{:.9}", report.metrics.e2e_overlapped_s);
        assert!(
            artifact.metrics_csv.contains(&row),
            "observation must not perturb the simulation: {row} not in\n{}",
            artifact.metrics_csv
        );
    }

    #[test]
    fn fault_cells_record_windows_watchdog_episodes_and_metrics() {
        let spec = FaultScenarioSpec::degrade(3, Severity::Severe);
        let artifact = observe_fault_cell(&small(), &spec, SAMPLE_MS).expect("observes");
        assert_eq!(artifact.manifest.kind, "fault");
        let fault = artifact.manifest.fault.as_ref().expect("fault block");
        assert_eq!(fault.seed, 3);
        assert_eq!(fault.severity, "Severe");
        validate_json(&artifact.manifest.to_json()).expect("manifest JSON");
        validate_json(&artifact.trace_json).expect("trace JSON");
        // Severe scenarios always include at least one fault window.
        assert!(
            artifact.events_jsonl.contains("fault_throttle")
                || artifact.events_jsonl.contains("fault_link"),
            "{}",
            artifact.events_jsonl
        );
        assert!(artifact.metrics_csv.contains("faulty_e2e_s,"));
        assert!(artifact.trace_json.contains("\"cat\": \"fault\""));
    }

    #[test]
    fn aborted_fault_cells_still_leave_a_record() {
        // A severe scenario always contains a dead link; under the abort
        // policy some seed in this range must kill the run (which one
        // depends on where the generated outage lands).
        let exp = small();
        let aborted = (1..=6).find_map(|seed| {
            let spec = FaultScenarioSpec::abort(seed, Severity::Severe);
            let artifact = observe_fault_cell(&exp, &spec, SAMPLE_MS).expect("record, not error");
            artifact
                .manifest
                .fault
                .as_ref()
                .is_some_and(|f| f.aborted.is_some())
                .then_some(artifact)
        });
        let artifact = aborted.expect("at least one seed aborts");
        assert!(
            artifact.events_jsonl.contains("watchdog_abort"),
            "{}",
            artifact.events_jsonl
        );
    }

    #[test]
    fn elastic_recovery_cells_record_the_shrink() {
        let spec = FaultScenarioSpec::abort(3, Severity::Severe);
        let artifact =
            observe_recovery_cell(&small(), &spec, RecoveryPolicy::ElasticContinue, SAMPLE_MS)
                .expect("recovers");
        assert_eq!(artifact.manifest.kind, "resilience");
        let rec = artifact.manifest.recovery.as_ref().expect("recovery block");
        assert!(rec.completed);
        assert_eq!(rec.final_world_size, 3);
        assert!(rec.policy.contains("policy=elastic"));
        let fault = artifact.manifest.fault.as_ref().expect("fault block");
        assert!(fault.aborted.is_some(), "the scenario killed phase 1");
        validate_json(&artifact.manifest.to_json()).expect("manifest JSON");
        validate_json(&artifact.trace_json).expect("trace JSON");
        assert!(
            artifact.events_jsonl.contains("\"event\": \"reshard\""),
            "{}",
            artifact.events_jsonl
        );
        assert!(artifact.events_jsonl.contains("watchdog_abort"));
        for line in artifact.events_jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(artifact.metrics_csv.contains("goodput_samples_per_s,"));
        assert!(artifact.metrics_csv.contains("final_world_size,3.0"));
        // The stitched trace outlives the aborted phase-1 makespan.
        assert!(artifact.manifest.makespan_s > 0.0);
    }

    #[test]
    fn checkpoint_recovery_cells_log_the_writes_and_the_restore() {
        let spec = FaultScenarioSpec::abort(3, Severity::Severe);
        let exp = small();
        // An explicit quarter-makespan interval guarantees several writes.
        let probe = olab_resilience::run_with_recovery(
            &exp,
            &spec,
            RecoveryPolicy::CheckpointRestart { interval_s: None },
        )
        .expect("probes");
        let interval = probe.metrics.fault_free_e2e_s / 4.0;
        let artifact = observe_recovery_cell(
            &exp,
            &spec,
            RecoveryPolicy::CheckpointRestart {
                interval_s: Some(interval),
            },
            SAMPLE_MS,
        )
        .expect("recovers");
        let rec = artifact.manifest.recovery.as_ref().expect("recovery block");
        assert!(rec.completed);
        assert!(rec.checkpoints_written >= 2, "{rec:?}");
        assert!(
            artifact.events_jsonl.contains("\"event\": \"checkpoint\""),
            "{}",
            artifact.events_jsonl
        );
        assert!(artifact.events_jsonl.contains("\"event\": \"restore\""));
        for line in artifact.events_jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn recovery_artifacts_are_deterministic() {
        let spec = FaultScenarioSpec::abort(3, Severity::Severe);
        let a = observe_recovery_cell(&small(), &spec, RecoveryPolicy::ElasticContinue, SAMPLE_MS)
            .unwrap();
        let b = observe_recovery_cell(&small(), &spec, RecoveryPolicy::ElasticContinue, SAMPLE_MS)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_artifacts_are_deterministic_per_seed() {
        let spec = FaultScenarioSpec::degrade(11, Severity::Moderate);
        let a = observe_fault_cell(&small(), &spec, SAMPLE_MS).unwrap();
        let b = observe_fault_cell(&small(), &spec, SAMPLE_MS).unwrap();
        assert_eq!(a, b);
        let c = observe_fault_cell(
            &small(),
            &FaultScenarioSpec::degrade(12, Severity::Moderate),
            SAMPLE_MS,
        )
        .unwrap();
        assert_ne!(a.events_jsonl, c.events_jsonl);
    }
}
