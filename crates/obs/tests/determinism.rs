//! End-to-end checks of observed runs: the trace an artifact contains is
//! well-formed JSON with full counter coverage, and live sweep progress
//! never perturbs outcomes. The artifact bytes themselves are pinned in
//! `artifact_golden.rs`.

use olab_core::fmtutil::validate_json;
use olab_core::{Experiment, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_obs::{observe_cell, JsonlProgress, COUNTER_NAMES};

fn cell() -> Experiment {
    // A shrunk fig. 7 shape (MI250, LLaMA-2 13B is too heavy for a unit
    // gate; GPT-3 XL keeps the same FSDP structure).
    Experiment::new(SkuKind::Mi250, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
}

#[test]
fn trace_is_valid_json_with_all_counter_tracks_per_gpu() {
    let artifact = observe_cell(&cell(), 100.0).expect("observes");
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
