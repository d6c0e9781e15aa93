//! Integration tests of the paper's metric derivations (Eqs. 1–5) against
//! directly simulated quantities.

use olab_core::{Experiment, RunTotals, Strategy};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;

fn report(sku: SkuKind) -> olab_core::ExperimentReport {
    Experiment::new(sku, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8)
        .with_seq(256)
        .run()
        .expect("experiment runs")
}

#[test]
fn eq1_compute_slowdown_matches_raw_sums() {
    let r = report(SkuKind::Mi250);
    let ovl = r.overlapped.compute_s();
    let seq = r.sequential.compute_s();
    let expected = (ovl - seq) / seq;
    assert!((r.metrics.compute_slowdown - expected).abs() < 1e-12);
}

#[test]
fn eq2_overlap_ratio_matches_coactive_fraction() {
    let r = report(SkuKind::H100);
    let expected = r.overlapped.overlapped_compute_s() / r.overlapped.compute_s();
    assert!((r.metrics.overlap_ratio - expected).abs() < 1e-12);
}

#[test]
fn eq4_ideal_is_overlapped_minus_compute_inflation() {
    let r = report(SkuKind::Mi210);
    let n = r.overlapped.gpus.len() as f64;
    let inflation = (r.overlapped.compute_s() - r.sequential.compute_s()) / n;
    let expected = r.metrics.e2e_overlapped_s - inflation;
    assert!((r.metrics.e2e_ideal_s - expected).abs() < 1e-9);
}

#[test]
fn eq5_derived_sequential_tracks_measured_sequential() {
    // The paper derives E2E_sequential from the overlapped run (Eq. 5); we
    // can also measure it. The two must agree to first order on every SKU.
    for sku in SkuKind::ALL {
        let r = report(sku);
        let ratio = r.metrics.e2e_sequential_derived_s / r.metrics.e2e_sequential_measured_s;
        assert!(
            (0.85..1.15).contains(&ratio),
            "{sku}: derived/measured = {ratio}"
        );
    }
}

#[test]
fn eq4_ideal_tracks_contention_free_simulation() {
    // Eq. 4 assumes the overlapped run hides communication completely; on
    // fabrics where collectives are longer than the compute they hide under
    // (the MI250), the derivation *under*-estimates the true contention-free
    // time. The simulator exposes this approximation error — the two still
    // agree within ~30%, and Eq. 4 is never *above* the simulated ideal by
    // more than the launch-overhead noise.
    for sku in SkuKind::ALL {
        let r = report(sku);
        let ratio = r.metrics.e2e_ideal_s / r.ideal_simulated_e2e_s;
        assert!(
            (0.7..1.1).contains(&ratio),
            "{sku}: Eq.4 ideal {} vs simulated ideal {}",
            r.metrics.e2e_ideal_s,
            r.ideal_simulated_e2e_s
        );
    }
}

#[test]
fn e2e_ordering_holds_on_every_sku() {
    for sku in SkuKind::ALL {
        let r = report(sku);
        assert!(
            r.metrics.e2e_ideal_s <= r.metrics.e2e_overlapped_s + 1e-12,
            "{sku}"
        );
        assert!(
            r.metrics.e2e_overlapped_s <= r.metrics.e2e_sequential_measured_s + 1e-12,
            "{sku}"
        );
    }
}

#[test]
fn makespan_is_bounded_by_stream_sums() {
    let r = report(SkuKind::A100);
    for run in [&r.overlapped, &r.sequential] {
        for gpu in &run.gpus {
            // A GPU cannot be busy longer than the iteration.
            assert!(gpu.compute_s <= run.e2e_s + 1e-9);
            // And the iteration cannot exceed everything serialized.
            assert!(run.e2e_s <= r.overlapped.compute_s() + r.overlapped.comm_s() + 1.0);
        }
    }
}

#[test]
fn hidden_comm_never_exceeds_total_comm() {
    for sku in SkuKind::ALL {
        let r = report(sku);
        assert!(
            r.overlapped.hidden_comm_s() <= r.overlapped.comm_s() + 1e-9,
            "{sku}"
        );
    }
}

#[test]
fn energy_is_consistent_with_average_power() {
    let r = report(SkuKind::H100);
    let n = r.overlapped.gpus.len() as f64;
    let implied = r.metrics.avg_power_w * n * r.metrics.e2e_overlapped_s;
    let ratio = r.metrics.energy_j / implied;
    assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
}
