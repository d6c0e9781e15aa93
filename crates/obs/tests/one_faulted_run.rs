//! Observing a recovery cell simulates exactly what the unobserved
//! recovery run simulates: the recorder rides along the one faulted phase
//! instead of re-running it. Counted with the process-wide engine-run
//! counter, so this binary holds a single test and nothing else in the
//! process runs the engine meanwhile.

use olab_core::{Experiment, Strategy};
use olab_faults::{FaultScenarioSpec, Severity};
use olab_gpu::SkuKind;
use olab_metrics::Determinism;
use olab_models::ModelPreset;
use olab_resilience::{run_with_recovery, RecoveryPolicy};

#[test]
fn observing_a_recovery_cell_adds_no_engine_run() {
    olab_metrics::set_enabled(true);
    olab_sim::metrics::touch();
    let runs = olab_metrics::counter("olab_sim_engine_runs_total", Determinism::CrossRun, "");
    let exp =
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    // Seed 3 at severe severity kills the run, so every policy acts.
    let spec = FaultScenarioSpec::abort(3, Severity::Severe);
    for policy in [
        RecoveryPolicy::FailFast,
        RecoveryPolicy::CheckpointRestart { interval_s: None },
        RecoveryPolicy::ElasticContinue,
    ] {
        let before = runs.get();
        run_with_recovery(&exp, &spec, policy).expect("recovers");
        let unobserved = runs.get() - before;
        assert!(
            unobserved >= 1,
            "{policy}: the faulted phase is an engine run"
        );

        let before = runs.get();
        olab_obs::observe_recovery_cell(&exp, &spec, policy, 100.0).expect("observes");
        let observed = runs.get() - before;
        assert_eq!(
            observed, unobserved,
            "{policy}: engine runs observed vs not"
        );
    }
}
