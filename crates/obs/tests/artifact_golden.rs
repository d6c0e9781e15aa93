//! The five artifact files of representative observed cells, pinned by
//! their FNV-1a 64 digests: the fig. 7 registry cell, a degraded and an
//! aborted fault cell, and one recovery cell per policy. An artifact is a
//! pure function of the cell and the sampling cadence, so any change to
//! these bytes is a change to what observation records — deliberate, and
//! shipped with new digests.

use olab_core::{Experiment, Strategy};
use olab_faults::{FaultScenarioSpec, Severity};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_obs::{
    observe_cell, observe_fault_cell, observe_recovery_cell, RunArtifact, ARTIFACT_FILES,
};
use olab_resilience::RecoveryPolicy;

const SAMPLE_MS: f64 = 100.0;

fn small() -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
}

/// Seed 3 at severe severity kills the run under the abort action.
fn killing_spec() -> FaultScenarioSpec {
    FaultScenarioSpec::abort(3, Severity::Severe)
}

/// Checks each file of `artifact` against `want`, in [`ARTIFACT_FILES`]
/// order.
fn assert_digests(cell: &str, artifact: &RunArtifact, want: [u64; 5]) {
    let files = [
        artifact.manifest.to_json(),
        artifact.metrics_csv.clone(),
        artifact.counters_csv.clone(),
        artifact.trace_json.clone(),
        artifact.events_jsonl.clone(),
    ];
    for ((name, file), want) in ARTIFACT_FILES.iter().zip(&files).zip(want) {
        let got = olab_grid::fnv1a_64(file.as_bytes());
        assert_eq!(got, want, "{cell}/{name}: digest {got:#018x}");
    }
}

#[test]
fn the_fig7_artifact_is_pinned() {
    let artifact = observe_cell(&olab_core::registry::fig7(), SAMPLE_MS).expect("observes");
    assert_digests(
        "fig7",
        &artifact,
        [
            0x1c40_d277_1cbc_07d8,
            0x4bea_e3ca_79fd_3c67,
            0x6cad_99f3_f9ec_b346,
            0x9d28_4ba3_84a2_f8af,
            0x2a90_c117_e43f_8a1f,
        ],
    );
}

#[test]
fn fault_cell_artifacts_are_pinned() {
    let degrade = FaultScenarioSpec::degrade(3, Severity::Severe);
    let artifact = observe_fault_cell(&small(), &degrade, SAMPLE_MS).expect("observes");
    assert_digests(
        "degrade",
        &artifact,
        [
            0x3325_bf8c_26ce_61d7,
            0xf788_dc0c_7aff_aca9,
            0xef66_6508_6f75_efa0,
            0xedac_a903_ebf8_02a0,
            0x2569_ef70_d5b2_eec5,
        ],
    );

    let artifact = observe_fault_cell(&small(), &killing_spec(), SAMPLE_MS).expect("observes");
    let fault = artifact.manifest.fault.as_ref().expect("fault block");
    assert!(fault.aborted.is_some(), "the abort cell must abort");
    assert_digests(
        "abort",
        &artifact,
        [
            0x7206_514a_3832_feff,
            0xc1ec_235b_b820_ee07,
            0xa1ae_7621_eefd_904a,
            0xae78_ebe0_0eb9_01f1,
            0x73eb_2a18_bb7a_f9f0,
        ],
    );
}

#[test]
fn recovery_cell_artifacts_are_pinned() {
    for (policy, want) in [
        (
            RecoveryPolicy::FailFast,
            [
                0x14b5_a93d_c744_bb89,
                0xae56_5343_2212_4934,
                0xa1ae_7621_eefd_904a,
                0x48ce_d043_cfae_86a9,
                0x73eb_2a18_bb7a_f9f0,
            ],
        ),
        (
            RecoveryPolicy::CheckpointRestart { interval_s: None },
            [
                0xadce_2022_2344_2cdb,
                0x70bf_6061_60ee_acd3,
                0xa1ae_7621_eefd_904a,
                0xa488_07d6_cd8b_33fd,
                0x960a_e987_5166_bfaa,
            ],
        ),
        (
            RecoveryPolicy::ElasticContinue,
            [
                0xfed3_3210_2e8b_a9b7,
                0xd307_0993_e865_b2b6,
                0xa1ae_7621_eefd_904a,
                0x0027_5f70_7b82_c090,
                0x7e7b_68a7_4417_662e,
            ],
        ),
    ] {
        let artifact =
            observe_recovery_cell(&small(), &killing_spec(), policy, SAMPLE_MS).expect("observes");
        assert_digests(policy.name(), &artifact, want);
    }
}
