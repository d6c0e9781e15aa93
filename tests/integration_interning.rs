//! Payload interning goes by value: every lowering the paper's figures
//! run holds each distinct payload once, and every interned payload is
//! run by some task. A payload id therefore names a value within its
//! workload, which is what lets the event loop key its pricing on ids and
//! the fast path keep its solo prices in per-id arrays, while both still
//! see exactly the classes a value-keyed table would.

use olab_core::{registry, Experiment, Strategy};
use olab_gpu::{Datapath, GpuSku, Precision, SkuKind};
use olab_models::{Family, ModelPreset};
use olab_parallel::{moe, ExecutionMode, Op};
use olab_sim::Workload;

/// Asserts that no two payloads of `w` are equal and that each is run by
/// some task; returns the number of distinct collectives.
fn assert_interned_once(w: &Workload<Op>, what: &str) -> usize {
    let payloads = w.payloads();
    for (i, a) in payloads.iter().enumerate() {
        if let Some(j) = payloads[..i].iter().position(|b| b == a) {
            panic!("{what}: payloads {j} and {i} are both {a}");
        }
    }
    let mut run = vec![false; payloads.len()];
    for task in w.tasks() {
        run[task.payload.index()] = true;
    }
    assert!(run.iter().all(|&r| r), "{what}: a payload no task runs");
    payloads.iter().filter(|p| p.as_comm().is_some()).count()
}

/// Checks an overlapped schedule and its sequential form, which chains
/// the same tasks and keeps the same table; returns the collective count.
fn check(w: Workload<Op>, what: &str) -> usize {
    let comms = assert_interned_once(&w, what);
    let payloads = w.payloads().to_vec();
    let seq = w.into_sequential();
    assert_eq!(seq.payloads(), payloads, "{what}: sequential table");
    assert_interned_once(&seq, &format!("{what} (sequential)"));
    comms
}

#[test]
fn every_feasible_main_grid_cell_interns_each_payload_value_once() {
    let mut cells = 0;
    for exp in registry::main_grid() {
        let Ok(policy) = exp.validate() else {
            continue;
        };
        let w = exp
            .timeline(ExecutionMode::Overlapped, policy)
            .expect("a feasible cell lowers");
        assert!(
            w.payloads().len() * 20 < w.len(),
            "{exp}: {} payloads for {} tasks",
            w.payloads().len(),
            w.len()
        );
        // One collective per distinct shape: FSDP's layer all-gather and
        // reduce-scatter; a pipeline's transfer per pair of neighbouring
        // stages, plus the GPT embedding sync.
        let want = match exp.strategy {
            Strategy::Fsdp => 2,
            Strategy::Pipeline { .. } => {
                exp.n_gpus - 1 + usize::from(exp.model.config().family == Family::Gpt)
            }
            Strategy::TensorParallel => 1,
        };
        assert_eq!(check(w, &exp.to_string()), want, "{exp}: collectives");
        cells += 1;
    }
    assert_eq!(cells, 107);
}

#[test]
fn tensor_parallel_and_moe_lowerings_intern_each_payload_value_once() {
    // The strategy ablation's tensor-parallel cells.
    for sku in [SkuKind::H100, SkuKind::Mi250] {
        let exp = Experiment::new(sku, 4, ModelPreset::Gpt3_2_7B, Strategy::TensorParallel, 32);
        let policy = exp.validate().expect("the ablation cell fits");
        let w = exp
            .timeline(ExecutionMode::Overlapped, policy)
            .expect("lowers");
        assert_eq!(check(w, &exp.to_string()), 1, "{exp}: one all-reduce");
    }
    // The MoE example's plans: one chunk all-to-all and the dense
    // gradient all-reduce, however many chunks.
    let sku = GpuSku::h100();
    let machine = olab_core::Machine::stock(sku.clone(), 4);
    for chunks in [1, 2, 4] {
        let plan = moe::MoePlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 8,
            seq: 1024,
            experts: 8,
            moe_every: 2,
            chunks,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
        };
        let w = moe::moe_timeline(
            &plan,
            &sku,
            &machine.config().topology,
            ExecutionMode::Overlapped,
        );
        assert_eq!(check(w, &format!("moe x{chunks}")), 2, "moe x{chunks}");
    }
}
