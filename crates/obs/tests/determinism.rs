//! End-to-end determinism of observed runs: the artifact a cell leaves is
//! a pure function of the cell, never of sweep parallelism, and the trace
//! it contains is well-formed JSON with full counter coverage.

use olab_core::fmtutil::validate_json;
use olab_core::{Experiment, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_obs::{observe_cell, JsonlProgress, ObserveConfig, ARTIFACT_FILES, COUNTER_NAMES};
use std::fs;

fn cell() -> Experiment {
    // A shrunk fig. 7 shape (MI250, LLaMA-2 13B is too heavy for a unit
    // gate; GPT-3 XL keeps the same FSDP structure).
    Experiment::new(SkuKind::Mi250, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
}

#[test]
fn artifact_directories_are_byte_identical_serial_vs_parallel() {
    let base = std::env::temp_dir().join(format!("olab-obs-det-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);

    let serial = observe_cell(
        &cell(),
        &ObserveConfig {
            jobs: 1,
            ..Default::default()
        },
    )
    .expect("serial observe");
    let parallel = observe_cell(
        &cell(),
        &ObserveConfig {
            jobs: 4,
            ..Default::default()
        },
    )
    .expect("parallel observe");

    let dir_a = base.join("serial");
    let dir_b = base.join("parallel");
    serial.write_to(&dir_a).expect("write serial");
    parallel.write_to(&dir_b).expect("write parallel");
    for name in ARTIFACT_FILES {
        let a = fs::read(dir_a.join(name)).expect(name);
        let b = fs::read(dir_b.join(name)).expect(name);
        assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 4");
        assert!(!a.is_empty() || name == "events.jsonl", "{name} is empty");
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn trace_is_valid_json_with_all_counter_tracks_per_gpu() {
    let artifact = observe_cell(&cell(), &ObserveConfig::default()).expect("observes");
    validate_json(&artifact.trace_json)
        .unwrap_or_else(|e| panic!("trace.json is not valid JSON: {e}"));
    // The acceptance bar is >= 3 counter tracks per GPU; we ship 5.
    assert!(COUNTER_NAMES.len() >= 3);
    for gpu in 0..4 {
        for name in COUNTER_NAMES {
            assert!(
                artifact
                    .trace_json
                    .contains(&format!("\"gpu{gpu}/{name}\"")),
                "missing counter track gpu{gpu}/{name}"
            );
        }
    }
}

#[test]
fn sweep_progress_stream_does_not_perturb_outcomes() {
    let cells = vec![cell(), cell().with_seq(128)];
    let quiet = Sweep::new().with_jobs(2).run(&cells);
    let sink = JsonlProgress::new(Vec::new());
    let sweep = Sweep::new().with_jobs(2);
    let observed = sweep.run_guarded(&cells, sweep.executor().guard(), Some(&sink));
    assert_eq!(quiet.cells, observed.cells, "sink must not change results");
    assert!(observed.stats.observer_s > 0.0);
    assert_eq!(quiet.stats.observer_s, 0.0);

    let text = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cells.len());
    for line in lines {
        validate_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(line.contains("\"total\": 2"));
    }
}
