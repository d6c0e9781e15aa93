//! Observed cell execution: run one experiment (or fault scenario) with
//! full instrumentation and assemble the run artifact.
//!
//! Everything here is a pure function of the cell configuration plus the
//! [`ObserveConfig`]: no wall-clock, no environment, no thread-count
//! dependence leaks into the artifact, so the same cell observed with
//! `jobs = 1` and `jobs = N` produces byte-identical bytes in every file.

use crate::artifact::{metrics_csv, FaultManifest, Manifest, RecoveryManifest, RunArtifact};
use crate::counters::{counter_tracks, counters_csv, sample_epochs};
use crate::event::{EventBus, JsonlSink, ObsEvent};
use crate::record::Recorder;
use olab_core::sweep::{cell_descriptor, cell_key, CELL_SCHEMA_VERSION};
use olab_core::{
    execute, execute_model, to_chrome_trace_full, Experiment, ExperimentError, Machine,
    OverlapMetrics, RunResult,
};
use olab_faults::{
    fault_annotations, FaultCell, FaultError, FaultScenarioSpec, FaultTimeline, FaultyMachine,
};
use olab_grid::{GridJob, Pool};
use olab_parallel::{ExecutionMode, Op};
use olab_resilience::{
    run_with_recovery, RecoveryError, RecoveryPolicy, RecoveryReport, ResilienceCell,
    RECOVERY_SCHEMA_VERSION,
};
use olab_sim::Workload;

/// How to observe a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserveConfig {
    /// Counter sampling cadence, milliseconds of simulated time.
    pub sample_ms: f64,
    /// Worker threads for the auxiliary (sequential/ideal) runs. Purely a
    /// wall-clock knob: the artifact is byte-identical for any value.
    pub jobs: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            sample_ms: 100.0,
            jobs: 1,
        }
    }
}

fn recorder_with_log() -> (Recorder, std::rc::Rc<std::cell::RefCell<String>>) {
    let (sink, buf) = JsonlSink::new();
    let mut bus = EventBus::new();
    bus.subscribe(Box::new(sink));
    (Recorder::new(bus), buf)
}

/// Runs `exp` fully instrumented and assembles its artifact: the
/// overlapped run drives the recorder (events + counters), while the
/// sequential and contention-free runs — needed only for derived metrics —
/// fan out across `cfg.jobs` workers.
///
/// # Errors
///
/// Same as [`Experiment::run`].
pub fn observe_cell(exp: &Experiment, cfg: &ObserveConfig) -> Result<RunArtifact, ExperimentError> {
    let policy = exp.validate()?;
    let machine = exp.machine();

    let (mut recorder, events) = recorder_with_log();
    let workload = exp.timeline(ExecutionMode::Overlapped, policy)?;
    let overlapped = execute_model(&workload, machine.clone(), &mut recorder)?;

    // The unobserved auxiliary runs are independent: fan out. Both reuse
    // the one lowered schedule; the sequential run chains a copy per GPU.
    let aux: Vec<(Workload<Op>, Machine)> = vec![
        (workload.clone().into_sequential(), machine.clone()),
        (workload, machine.uncontended()),
    ];
    let mut aux_runs = Pool::new(cfg.jobs).map(&aux, |(w, m)| execute(w, m));
    let ideal = aux_runs.pop().expect("ideal run present")?;
    let sequential = aux_runs.pop().expect("sequential run present")?;

    let metrics = OverlapMetrics::derive(&overlapped, &sequential);
    let series = sample_epochs(recorder.epochs(), exp.n_gpus, cfg.sample_ms / 1e3);
    let tracks = counter_tracks(&series);
    let events_jsonl = events.borrow().clone();

    Ok(RunArtifact {
        manifest: Manifest {
            kind: "experiment",
            label: exp.label(),
            descriptor: cell_descriptor(exp),
            cell_key: cell_key(exp),
            cell_schema_version: CELL_SCHEMA_VERSION,
            calibration_version: olab_gpu::CALIBRATION_VERSION,
            sample_ms: cfg.sample_ms,
            n_gpus: exp.n_gpus,
            makespan_s: overlapped.e2e_s,
            fault: None,
            recovery: None,
        },
        metrics_csv: metrics_csv(&[
            ("compute_slowdown", metrics.compute_slowdown),
            ("overlap_ratio", metrics.overlap_ratio),
            ("e2e_overlapped_s", metrics.e2e_overlapped_s),
            ("e2e_ideal_s", metrics.e2e_ideal_s),
            ("e2e_sequential_derived_s", metrics.e2e_sequential_derived_s),
            (
                "e2e_sequential_measured_s",
                metrics.e2e_sequential_measured_s,
            ),
            ("avg_power_w", metrics.avg_power_w),
            ("peak_power_w", metrics.peak_power_w),
            ("avg_power_sequential_w", metrics.avg_power_sequential_w),
            ("peak_power_sequential_w", metrics.peak_power_sequential_w),
            ("energy_j", metrics.energy_j),
            ("ideal_simulated_e2e_s", ideal.e2e_s),
            ("comm_s", overlapped.comm_s()),
            ("overlapped_compute_s", overlapped.overlapped_compute_s()),
            ("hidden_comm_s", overlapped.hidden_comm_s()),
        ]),
        counters_csv: counters_csv(&series),
        trace_json: to_chrome_trace_full(&overlapped.trace, &[], &tracks),
        events_jsonl,
    })
}

fn emit_fault_prologue(recorder: &mut Recorder, timeline: &FaultTimeline) {
    // Fault windows are known before the run starts: emit them up front so
    // the event log reads prologue -> engine events -> watchdog epilogue.
    for w in &timeline.throttles {
        recorder.bus().emit(&ObsEvent::FaultThrottle {
            start_s: w.start_s,
            end_s: w.end_s,
            gpu: w.gpu,
            freq_factor: w.freq_factor,
        });
    }
    for l in &timeline.link_faults {
        let link = l.link.to_string();
        recorder.bus().emit(&ObsEvent::FaultLink {
            start_s: l.start_s,
            end_s: l.end_s,
            link: &link,
            bw_factor: l.bw_factor,
        });
    }
}

fn emit_fault_epilogue(recorder: &mut Recorder, injected: &FaultyMachine) {
    for e in &injected.stats().events {
        let event = match e.kind {
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
        };
        recorder.bus().emit(&event);
    }
    if let Some(abort) = injected.abort() {
        recorder.bus().emit(&ObsEvent::WatchdogAbort {
            t_s: abort.at_s,
            label: &abort.collective,
            retries: abort.retries,
        });
    }
}

/// Runs `exp` under the fault scenario `spec`, fully instrumented.
///
/// Unlike `olab_faults::run_with_faults`, a watchdog abort is *not* an
/// error here: the whole point of observability is that failed cells
/// leave a record too. The abort lands in the event log and in
/// `manifest.fault.aborted`.
///
/// # Errors
///
/// [`FaultError::Experiment`] when the experiment is infeasible or fails
/// to simulate.
pub fn observe_fault_cell(
    exp: &Experiment,
    spec: &FaultScenarioSpec,
    cfg: &ObserveConfig,
) -> Result<RunArtifact, FaultError> {
    let policy = exp.validate().map_err(FaultError::Experiment)?;
    let machine = exp.machine();
    let workload = exp.timeline(ExecutionMode::Overlapped, policy)?;
    let fault_free: RunResult = execute(&workload, &machine).map_err(ExperimentError::from)?;

    let timeline = FaultTimeline::generate(spec, exp.n_gpus, fault_free.e2e_s);
    let (mut recorder, events) = recorder_with_log();
    emit_fault_prologue(&mut recorder, &timeline);

    let mut injected = FaultyMachine::new(machine, timeline.clone());
    let faulty =
        execute_model(&workload, &mut injected, &mut recorder).map_err(ExperimentError::from)?;
    emit_fault_epilogue(&mut recorder, &injected);

    let stats = injected.stats();
    let base_overlap = fault_free.overlap_ratio();
    let faulty_overlap = faulty.overlap_ratio();
    let series = sample_epochs(recorder.epochs(), exp.n_gpus, cfg.sample_ms / 1e3);
    let tracks = counter_tracks(&series);
    let notes = fault_annotations(&timeline, stats, faulty.e2e_s);
    let descriptor = FaultCell::new(exp.clone(), *spec).descriptor();
    let events_jsonl = events.borrow().clone();

    Ok(RunArtifact {
        manifest: Manifest {
            kind: "fault",
            label: exp.label(),
            cell_key: olab_grid::fnv1a_64(descriptor.as_bytes()),
            descriptor,
            cell_schema_version: CELL_SCHEMA_VERSION,
            calibration_version: olab_gpu::CALIBRATION_VERSION,
            sample_ms: cfg.sample_ms,
            n_gpus: exp.n_gpus,
            makespan_s: faulty.e2e_s,
            fault: Some(FaultManifest {
                seed: spec.seed,
                severity: format!("{:?}", spec.severity),
                fault_schema_version: olab_faults::FAULT_SCHEMA_VERSION,
                aborted: injected.abort().map(|a| {
                    format!(
                        "collective '{}' unreachable after {} retries at {:.3}s",
                        a.collective, a.retries, a.at_s
                    )
                }),
            }),
            recovery: None,
        },
        metrics_csv: metrics_csv(&[
            ("fault_free_e2e_s", fault_free.e2e_s),
            ("faulty_e2e_s", faulty.e2e_s),
            ("time_lost_s", faulty.e2e_s - fault_free.e2e_s),
            ("stall_s", stats.stall_s),
            ("retries", f64::from(stats.retries)),
            (
                "degraded_collectives",
                f64::from(stats.degraded_collectives),
            ),
            ("ecc_kernels", f64::from(stats.ecc_kernels)),
            ("fault_free_overlap_ratio", base_overlap),
            ("faulty_overlap_ratio", faulty_overlap),
            (
                "overlap_efficiency",
                if base_overlap > 0.0 {
                    faulty_overlap / base_overlap
                } else {
                    1.0
                },
            ),
        ]),
        counters_csv: counters_csv(&series),
        trace_json: to_chrome_trace_full(&faulty.trace, &notes, &tracks),
        events_jsonl,
    })
}

fn emit_recovery_epilogue(recorder: &mut Recorder, report: &RecoveryReport) {
    // Checkpoint writes pace the job every `interval` seconds of progress;
    // the event log places each back-to-back with its write cost.
    if let (Some(model), Some(interval)) = (&report.checkpoint, report.interval_s) {
        for seq in 1..=report.metrics.checkpoints_written {
            let start = f64::from(seq) * interval + f64::from(seq - 1) * model.write_s;
            recorder.bus().emit(&ObsEvent::Checkpoint {
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
            recorder.bus().emit(&ObsEvent::Restore {
                t_s: abort.at_s,
                sequence: restored,
                ttr_s: report.metrics.time_to_recover_s,
            });
        }
    }
    if let Some(r) = &report.reshard {
        recorder.bus().emit(&ObsEvent::Reshard {
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
/// The faulted phase is re-driven through the observed engine so the
/// event log and counter series carry its real lifecycle edges; the
/// recovery lifecycle (checkpoint writes, the restore, the elastic
/// re-shard) lands as an epilogue derived from the recovery report. The
/// trace covers the whole recovered job — including the mid-run
/// world-size transition for an elastic shrink — while the counter
/// series covers the faulted phase.
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
    cfg: &ObserveConfig,
) -> Result<RunArtifact, RecoveryError> {
    let report = run_with_recovery(exp, spec, policy)?;

    let activation = exp.validate()?;
    let machine = exp.machine();
    let workload = exp.timeline(ExecutionMode::Overlapped, activation)?;
    let (mut recorder, events) = recorder_with_log();
    emit_fault_prologue(&mut recorder, &report.run.timeline);
    let mut injected = FaultyMachine::new(machine, report.run.timeline.clone());
    execute_model(&workload, &mut injected, &mut recorder).map_err(ExperimentError::from)?;
    emit_fault_epilogue(&mut recorder, &injected);
    emit_recovery_epilogue(&mut recorder, &report);

    let m = &report.metrics;
    let series = sample_epochs(recorder.epochs(), exp.n_gpus, cfg.sample_ms / 1e3);
    let tracks = counter_tracks(&series);
    let notes = fault_annotations(
        &report.run.timeline,
        &report.run.stats,
        report.run.faulty.e2e_s,
    );
    let descriptor = ResilienceCell::new(exp.clone(), *spec, policy).descriptor();
    let events_jsonl = events.borrow().clone();

    Ok(RunArtifact {
        manifest: Manifest {
            kind: "resilience",
            label: exp.label(),
            cell_key: olab_grid::fnv1a_64(descriptor.as_bytes()),
            descriptor,
            cell_schema_version: CELL_SCHEMA_VERSION,
            calibration_version: olab_gpu::CALIBRATION_VERSION,
            sample_ms: cfg.sample_ms,
            n_gpus: exp.n_gpus,
            makespan_s: m.wall_s,
            fault: Some(FaultManifest {
                seed: spec.seed,
                severity: format!("{:?}", spec.severity),
                fault_schema_version: olab_faults::FAULT_SCHEMA_VERSION,
                aborted: report.run.abort.as_ref().map(|a| {
                    format!(
                        "collective '{}' unreachable after {} retries at {:.3}s",
                        a.collective, a.retries, a.at_s
                    )
                }),
            }),
            recovery: Some(RecoveryManifest {
                policy: policy.descriptor(),
                completed: m.completed,
                final_world_size: m.final_world_size,
                checkpoints_written: m.checkpoints_written,
                recovery_schema_version: RECOVERY_SCHEMA_VERSION,
            }),
        },
        metrics_csv: metrics_csv(&[
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
        ]),
        counters_csv: counters_csv(&series),
        trace_json: to_chrome_trace_full(&report.trace, &notes, &tracks),
        events_jsonl,
    })
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

    fn small() -> Experiment {
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
    }

    #[test]
    fn observe_cell_produces_a_complete_consistent_artifact() {
        let artifact = observe_cell(&small(), &ObserveConfig::default()).expect("observes");
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
    fn artifacts_are_byte_identical_across_jobs_counts() {
        let exp = small();
        let serial = observe_cell(
            &exp,
            &ObserveConfig {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = observe_cell(
            &exp,
            &ObserveConfig {
                jobs: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn observed_metrics_match_the_unobserved_run() {
        let exp = small();
        let artifact = observe_cell(&exp, &ObserveConfig::default()).unwrap();
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
        let artifact =
            observe_fault_cell(&small(), &spec, &ObserveConfig::default()).expect("observes");
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
            let artifact = observe_fault_cell(&exp, &spec, &ObserveConfig::default())
                .expect("record, not error");
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
        let artifact = observe_recovery_cell(
            &small(),
            &spec,
            RecoveryPolicy::ElasticContinue,
            &ObserveConfig::default(),
        )
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
            &ObserveConfig::default(),
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
        let cfg = ObserveConfig::default();
        let a =
            observe_recovery_cell(&small(), &spec, RecoveryPolicy::ElasticContinue, &cfg).unwrap();
        let b =
            observe_recovery_cell(&small(), &spec, RecoveryPolicy::ElasticContinue, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_artifacts_are_deterministic_per_seed() {
        let spec = FaultScenarioSpec::degrade(11, Severity::Moderate);
        let cfg = ObserveConfig::default();
        let a = observe_fault_cell(&small(), &spec, &cfg).unwrap();
        let b = observe_fault_cell(&small(), &spec, &cfg).unwrap();
        assert_eq!(a, b);
        let c = observe_fault_cell(
            &small(),
            &FaultScenarioSpec::degrade(12, Severity::Moderate),
            &cfg,
        )
        .unwrap();
        assert_ne!(a.events_jsonl, c.events_jsonl);
    }
}
