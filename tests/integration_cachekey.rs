//! Grid cache-key stability.
//!
//! The sweep cache is content-addressed: the key is a hash of a versioned
//! textual descriptor of the cell configuration, and *nothing else* — in
//! particular not the execution path (event loop vs analytic fast path),
//! which both produce the same answers. These tests pin that contract
//! three ways:
//!
//! * a **golden vector**: the exact descriptor string and FNV-1a key of a
//!   fixed cell under fixed schema/calibration versions. If this test
//!   fails, the descriptor format changed — which silently invalidates (or
//!   worse, aliases) every existing on-disk cache. Bump
//!   [`CELL_SCHEMA_VERSION`](olab_core::sweep::CELL_SCHEMA_VERSION) instead
//!   of editing the format in place, then re-pin here;
//! * **path independence**: the key hashes the descriptor alone, which
//!   names no route, even for a cell whose legs take both routes;
//! * **attribution**: each leg's result (not the key) records which path
//!   served it, and the metrics a sweep caches agree with metrics derived
//!   from event-loop-only legs.

use olab_core::fastpath::Route;
use olab_core::sweep::{cell_descriptor, cell_descriptor_versioned, cell_key};
use olab_core::{execute, execute_model, Experiment, OverlapMetrics, Strategy, Sweep};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_parallel::ExecutionMode;
use olab_sim::NullObserver;

fn golden_cell() -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256)
}

#[test]
fn descriptor_and_key_match_the_golden_vector() {
    // Fixed versions, NOT the live ones: this pins the *format*, and must
    // keep passing when CELL_SCHEMA_VERSION or CALIBRATION_VERSION bump.
    let descriptor = cell_descriptor_versioned(&golden_cell(), 1, 1);
    assert_eq!(descriptor, GOLDEN_DESCRIPTOR, "descriptor format changed");
    assert_eq!(
        olab_grid::fnv1a_64(descriptor.as_bytes()),
        GOLDEN_KEY,
        "descriptor hash changed"
    );
}

const GOLDEN_DESCRIPTOR: &str = "olab-cell schema=1 calib=1 sku=H100 gpus=4 model=Gpt3Xl \
     strategy=Fsdp batch=8 seq=256 precision=Fp16 datapath=TensorCore power_cap=None \
     freq_cap=None schedule=OneFOneB grad_accum=1 fsdp_overlap=FsdpOverlap { \
     prefetch_all_gather: true, overlap_reduce_scatter: true }";
const GOLDEN_KEY: u64 = 0x06ac_15d7_ee86_ad91;

#[test]
fn cell_key_is_execution_path_independent() {
    let exp = golden_cell();
    let report = exp.run().expect("golden cell runs");
    assert_eq!(report.sequential.route, Route::FastPath);
    assert_eq!(report.overlapped.route, Route::EventLoop);

    let descriptor = cell_descriptor(&exp);
    assert_eq!(cell_key(&exp), olab_grid::fnv1a_64(descriptor.as_bytes()));
    for word in ["route", "fast", "event"] {
        assert!(
            !descriptor.to_lowercase().contains(word),
            "descriptor mentions '{word}': {descriptor}"
        );
    }
}

#[test]
fn results_attribute_the_route_and_paths_agree() {
    let cells = vec![
        Experiment::new(SkuKind::H100, 2, ModelPreset::Gpt3Xl, Strategy::Fsdp, 4).with_seq(64),
        Experiment::new(SkuKind::A100, 2, ModelPreset::Gpt3Xl, Strategy::Fsdp, 4).with_seq(64),
    ];
    let swept = Sweep::new().run(&cells);

    for (exp, cell) in cells.iter().zip(&swept.cells) {
        let cached = cell.as_ref().expect("cell simulates");
        let policy = exp.validate().expect("cell fits");
        let machine = exp.machine();
        let sequential_w = exp
            .timeline(ExecutionMode::Sequential, policy)
            .expect("timeline builds");
        let overlapped_w = exp
            .timeline(ExecutionMode::Overlapped, policy)
            .expect("timeline builds");
        assert_eq!(
            execute(&sequential_w, &machine).expect("runs").route,
            Route::FastPath,
            "a sequential leg has no co-residency"
        );
        assert_eq!(
            execute(&overlapped_w, &machine).expect("runs").route,
            Route::EventLoop,
            "a contended overlapped leg needs the event loop"
        );

        let reference = OverlapMetrics::derive(
            &execute_model(&overlapped_w, machine.clone(), &mut NullObserver).expect("runs"),
            &execute_model(&sequential_w, machine, &mut NullObserver).expect("runs"),
        );
        let m = &cached.metrics;
        for (a, b) in [
            (m.e2e_overlapped_s, reference.e2e_overlapped_s),
            (
                m.e2e_sequential_measured_s,
                reference.e2e_sequential_measured_s,
            ),
            (m.overlap_ratio, reference.overlap_ratio),
        ] {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-9),
                "paths disagree: {a} vs {b}"
            );
        }
    }
}
