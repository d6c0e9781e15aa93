//! Five of the paper's seven takeaways (1, 3, 4, 5 and 7), plus four
//! Section V-A trends, as executable assertions. Each test states the
//! takeaway or trend it verifies (Section V of the paper). No test covers
//! takeaways 2 or 6.

use olab_core::{Experiment, ExperimentError, Strategy};
use olab_gpu::{Datapath, Precision, SkuKind};
use olab_models::ModelPreset;

fn fsdp(sku: SkuKind, model: ModelPreset, batch: u64) -> Experiment {
    Experiment::new(sku, 4, model, Strategy::Fsdp, batch).with_seq(512)
}

fn pp(sku: SkuKind, model: ModelPreset, batch: u64) -> Experiment {
    Experiment::new(
        sku,
        4,
        model,
        Strategy::Pipeline { microbatch_size: 4 },
        batch,
    )
    .with_seq(512)
}

/// Takeaway 1: strategies with complex collectives (FSDP) overlap more and
/// slow compute more than send/recv-based pipeline parallelism.
#[test]
fn takeaway1_fsdp_slows_compute_more_than_pipeline() {
    for sku in [SkuKind::H100, SkuKind::Mi210] {
        let f = fsdp(sku, ModelPreset::Gpt3Xl, 8).run().unwrap();
        let p = pp(sku, ModelPreset::Gpt3Xl, 16).run().unwrap();
        assert!(
            f.metrics.compute_slowdown > p.metrics.compute_slowdown,
            "{sku}: FSDP {} vs PP {}",
            f.metrics.compute_slowdown,
            p.metrics.compute_slowdown
        );
        assert!(f.metrics.overlap_ratio > p.metrics.overlap_ratio, "{sku}");
    }
}

/// Section V-A: in FSDP larger batches dilute the overlap region (compute
/// scales, communication does not), reducing slowdown.
#[test]
fn fsdp_slowdown_decreases_with_batch_size() {
    let s8 = fsdp(SkuKind::Mi250, ModelPreset::Gpt3Xl, 8).run().unwrap();
    let s32 = fsdp(SkuKind::Mi250, ModelPreset::Gpt3Xl, 32).run().unwrap();
    assert!(
        s8.metrics.compute_slowdown > s32.metrics.compute_slowdown,
        "b8 {} must exceed b32 {}",
        s8.metrics.compute_slowdown,
        s32.metrics.compute_slowdown
    );
}

/// Section V-A: pipeline parallelism shows the opposite batch trend — more
/// microbatches mean a longer steady state with send/recv in flight.
#[test]
fn pipeline_overlap_grows_with_batch_size() {
    let b8 = pp(SkuKind::A100, ModelPreset::Gpt3_2_7B, 8).run().unwrap();
    let b64 = pp(SkuKind::A100, ModelPreset::Gpt3_2_7B, 64).run().unwrap();
    assert!(
        b64.metrics.overlap_ratio > b8.metrics.overlap_ratio,
        "b64 {} must exceed b8 {}",
        b64.metrics.overlap_ratio,
        b8.metrics.overlap_ratio
    );
}

/// Section V-A: the MI250 shows the largest slowdowns, the A100 the
/// smallest (it only fits small models).
#[test]
fn per_sku_slowdown_ordering_matches_the_paper() {
    let slowdown = |sku| {
        fsdp(sku, ModelPreset::Gpt3Xl, 8)
            .run()
            .unwrap()
            .metrics
            .compute_slowdown
    };
    let a100 = slowdown(SkuKind::A100);
    let h100 = slowdown(SkuKind::H100);
    let mi210 = slowdown(SkuKind::Mi210);
    let mi250 = slowdown(SkuKind::Mi250);
    assert!(mi250 > mi210, "MI250 {mi250} > MI210 {mi210}");
    assert!(mi210 > h100, "MI210 {mi210} > H100 {h100}");
    assert!(h100 > a100 * 0.9, "H100 {h100} >~ A100 {a100}");
}

/// Section V-A: the A100's 40 GB gate it to GPT-3 2.7B under FSDP — the
/// missing bars of Fig. 4.
#[test]
fn memory_gates_match_the_paper() {
    // Capacity gating uses the paper's configuration (seq 1024).
    let at = |sku: SkuKind, model: ModelPreset| {
        Experiment::new(sku, 4, model, Strategy::Fsdp, 8).validate()
    };
    assert!(at(SkuKind::A100, ModelPreset::Gpt3_2_7B).is_ok());
    assert!(matches!(
        at(SkuKind::A100, ModelPreset::Gpt3_6_7B),
        Err(ExperimentError::OutOfMemory { .. })
    ));
    assert!(at(SkuKind::Mi210, ModelPreset::Gpt3_6_7B).is_ok());
    assert!(at(SkuKind::Mi210, ModelPreset::Gpt3_13B).is_err());
    assert!(at(SkuKind::H100, ModelPreset::Gpt3_13B).is_ok());
    assert!(at(SkuKind::Mi250, ModelPreset::Llama2_13B).is_ok());
}

/// Takeaway 3: overlapping hides communication (beats sequential) but
/// cannot reach the ideal.
#[test]
fn takeaway3_overlap_between_ideal_and_sequential() {
    let r = fsdp(SkuKind::Mi250, ModelPreset::Gpt3_2_7B, 8)
        .run()
        .unwrap();
    assert!(r.metrics.e2e_ideal_s < r.metrics.e2e_overlapped_s);
    assert!(r.metrics.e2e_overlapped_s < r.metrics.e2e_sequential_measured_s);
    assert!(r.metrics.overlap_vs_ideal() > 0.01);
}

/// Takeaway 4: overlapping raises peak power versus sequential execution.
#[test]
fn takeaway4_overlap_raises_peak_power() {
    for sku in [SkuKind::H100, SkuKind::Mi250] {
        let r = fsdp(sku, ModelPreset::Gpt3_2_7B, 8).run().unwrap();
        assert!(
            r.metrics.peak_power_w > r.metrics.peak_power_sequential_w,
            "{sku}: {} vs {}",
            r.metrics.peak_power_w,
            r.metrics.peak_power_sequential_w
        );
    }
}

/// Takeaway 5: strict power caps amplify slowdowns; the 100 W A100 cap
/// roughly doubles iteration time (the paper reports up to 107%).
#[test]
fn takeaway5_power_caps_amplify_slowdowns() {
    let stock = fsdp(SkuKind::A100, ModelPreset::Gpt3_2_7B, 8)
        .run()
        .unwrap();
    let capped = fsdp(SkuKind::A100, ModelPreset::Gpt3_2_7B, 8)
        .with_power_cap(100.0)
        .run()
        .unwrap();
    let slowdown = capped.metrics.e2e_overlapped_s / stock.metrics.e2e_overlapped_s - 1.0;
    assert!(
        (0.7..1.4).contains(&slowdown),
        "100 W slowdown should be near the paper's ~107%, got {slowdown}"
    );
    // Decreasing caps monotonically increase latency.
    let mid = fsdp(SkuKind::A100, ModelPreset::Gpt3_2_7B, 8)
        .with_power_cap(200.0)
        .run()
        .unwrap();
    assert!(mid.metrics.e2e_overlapped_s < capped.metrics.e2e_overlapped_s);
    assert!(stock.metrics.e2e_overlapped_s < mid.metrics.e2e_overlapped_s);
}

/// Takeaway 7 (Fig. 10): FP16 raises overlap ratios and slowdowns relative
/// to FP32 (compute shrinks, communication stays), while cutting E2E time.
#[test]
fn takeaway7_fp16_increases_overlap_and_slowdown() {
    let fp32 = fsdp(SkuKind::H100, ModelPreset::Gpt3_2_7B, 8)
        .with_precision(Precision::Fp32)
        .with_datapath(Datapath::Vector)
        .run()
        .unwrap();
    let fp16 = fsdp(SkuKind::H100, ModelPreset::Gpt3_2_7B, 8)
        .run()
        .unwrap();
    assert!(fp16.metrics.overlap_ratio > fp32.metrics.overlap_ratio);
    assert!(fp16.metrics.compute_slowdown > fp32.metrics.compute_slowdown);
    assert!(fp16.metrics.e2e_overlapped_s < fp32.metrics.e2e_overlapped_s);
    // Fig. 10's power story at scale: the fast datapath runs hotter.
    assert!(fp16.metrics.peak_power_w > fp32.metrics.peak_power_w);
}

/// Takeaway 7 (Fig. 11): TF32 tensor cores accelerate FP32 training but
/// intensify contention the same way FP16 does.
#[test]
fn takeaway7_tensor_cores_trade_speed_for_contention() {
    let vector = fsdp(SkuKind::H100, ModelPreset::Gpt3_2_7B, 8)
        .with_precision(Precision::Fp32)
        .with_datapath(Datapath::Vector)
        .run()
        .unwrap();
    let tensor = fsdp(SkuKind::H100, ModelPreset::Gpt3_2_7B, 8)
        .with_precision(Precision::Tf32)
        .with_datapath(Datapath::TensorCore)
        .run()
        .unwrap();
    assert!(tensor.metrics.e2e_overlapped_s < vector.metrics.e2e_overlapped_s / 2.0);
    assert!(tensor.metrics.compute_slowdown > vector.metrics.compute_slowdown);
    assert!(tensor.metrics.peak_power_w > vector.metrics.peak_power_w);
}
