//! Integration tests for the extensions beyond the paper: tensor
//! parallelism, MoE all-to-all overlap, gradient accumulation, and the
//! adaptive overlap scheduler.

use olab_core::adaptive::{tune_fsdp, Objective};
use olab_core::{execute, Experiment, Machine, RunTotals, Strategy};
use olab_gpu::{Datapath, GpuSku, Precision, SkuKind};
use olab_models::ModelPreset;
use olab_parallel::{moe, ExecutionMode};

fn tp(sku: SkuKind) -> Experiment {
    Experiment::new(sku, 4, ModelPreset::Gpt3Xl, Strategy::TensorParallel, 8).with_seq(512)
}

#[test]
fn tensor_parallel_runs_on_every_sku() {
    for sku in SkuKind::ALL {
        let r = tp(sku).run().unwrap_or_else(|e| panic!("{sku}: {e}"));
        assert!(r.metrics.e2e_overlapped_s > 0.0);
        assert!(
            r.metrics.e2e_overlapped_s <= r.metrics.e2e_sequential_measured_s + 1e-12,
            "{sku}"
        );
    }
}

#[test]
fn tensor_parallel_comm_scales_with_tokens_fsdp_comm_does_not() {
    // TP all-reduces activations (∝ batch·seq); FSDP moves parameters
    // (constant). Comparing 32 samples/iteration at seq 1024: TP moves more
    // bytes than FSDP; and quadrupling TP's batch roughly quadruples its
    // comm while FSDP's stays flat.
    let tp_32 = Experiment::new(
        SkuKind::H100,
        4,
        ModelPreset::Gpt3_2_7B,
        Strategy::TensorParallel,
        32,
    )
    .run()
    .unwrap();
    let fsdp_32 = Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3_2_7B, Strategy::Fsdp, 8)
        .run()
        .unwrap();
    assert!(
        tp_32.overlapped.comm_s() > 2.0 * fsdp_32.overlapped.comm_s(),
        "TP comm {} s vs FSDP comm {} s",
        tp_32.overlapped.comm_s(),
        fsdp_32.overlapped.comm_s()
    );

    let tp_8 = Experiment::new(
        SkuKind::H100,
        4,
        ModelPreset::Gpt3_2_7B,
        Strategy::TensorParallel,
        8,
    )
    .run()
    .unwrap();
    let growth = tp_32.overlapped.comm_s() / tp_8.overlapped.comm_s();
    assert!((2.5..4.5).contains(&growth), "TP comm growth {growth}");
}

#[test]
fn tensor_parallel_backward_overlaps_wgrads() {
    // The backward input-gradient all-reduces hide under wgrad GEMMs, so
    // TP has a nonzero overlap ratio despite exposed forward all-reduces.
    let r = tp(SkuKind::H100).run().unwrap();
    assert!(
        r.metrics.overlap_ratio > 0.03,
        "got {}",
        r.metrics.overlap_ratio
    );
}

#[test]
fn moe_chunking_reduces_e2e_on_slow_fabrics() {
    let sku = GpuSku::mi250();
    let machine = Machine::stock(sku.clone(), 4);
    let topo = machine.config().topology.clone();
    let run = |chunks: u32| {
        let plan = moe::MoePlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 4,
            seq: 512,
            experts: 8,
            moe_every: 2,
            chunks,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
        };
        let w = moe::moe_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped);
        execute(&w, &machine).expect("moe runs")
    };
    let unchunked = run(1);
    let chunked = run(4);
    assert!(
        chunked.e2e_s < unchunked.e2e_s,
        "chunking should hide all-to-alls: {} vs {}",
        chunked.e2e_s,
        unchunked.e2e_s
    );
    assert!(chunked.hidden_comm_s() > unchunked.hidden_comm_s());
}

#[test]
fn gradient_accumulation_cuts_reduce_traffic() {
    let base =
        Experiment::new(SkuKind::Mi250, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(512);
    let plain = base.clone().run().unwrap();
    let accum = base.with_grad_accum(2).run().unwrap();
    // Two micro-steps double the compute but keep one reduce-scatter pass:
    // total comm grows by less than 2x.
    assert!(accum.overlapped.compute_s() > 1.8 * plain.overlapped.compute_s());
    assert!(accum.overlapped.comm_s() < 1.8 * plain.overlapped.comm_s());
}

#[test]
fn adaptive_scheduler_latency_choice_is_never_worse_than_default() {
    for sku in [SkuKind::H100, SkuKind::Mi250] {
        let exp = Experiment::new(sku, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
        let choice = tune_fsdp(&exp, Objective::Latency).unwrap();
        let default_report = exp.run().unwrap();
        assert!(
            choice.best().report.metrics.e2e_overlapped_s
                <= default_report.metrics.e2e_overlapped_s + 1e-9,
            "{sku}"
        );
    }
}

#[test]
fn adaptive_energy_choice_saves_energy_on_mi250() {
    let exp =
        Experiment::new(SkuKind::Mi250, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
    let choice = tune_fsdp(&exp, Objective::Energy).unwrap();
    assert!(
        choice.gain_over_default() > 0.02,
        "expected >2% energy gain from serialization, got {}",
        choice.gain_over_default()
    );
}

#[test]
fn tp_head_divisibility_is_enforced() {
    // 3 GPUs cannot split 32 heads.
    let exp = Experiment::new(
        SkuKind::H100,
        3,
        ModelPreset::Gpt3Xl,
        Strategy::TensorParallel,
        8,
    )
    .with_seq(256);
    let result = std::panic::catch_unwind(|| exp.run());
    assert!(result.is_err(), "indivisible heads must be rejected");
}
