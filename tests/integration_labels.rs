//! Task-label rendering golden: the FNV-1a 64 digest of every rendered
//! task label (each followed by `\n`, in push order) of one small cell per
//! lowering, in both execution modes. Labels reach the Chrome trace, the
//! observability event log and the ECC fault selection hash, so their
//! rendered bytes must never drift; the digests were recorded from the
//! `String`-labelled lowerings.

use olab_core::{Experiment, Strategy};
use olab_gpu::{Datapath, GpuSku, Precision, SkuKind};
use olab_models::ModelPreset;
use olab_parallel::fsdp::FsdpOverlap;
use olab_parallel::pipeline::PipelineSchedule;
use olab_parallel::{moe, ExecutionMode, Op};
use olab_sim::Workload;

const MODES: [ExecutionMode; 2] = [ExecutionMode::Overlapped, ExecutionMode::Sequential];

/// `(task count, digest)` of the rendered labels of `w`.
fn digest(w: &Workload<Op>) -> (usize, u64) {
    let mut bytes = Vec::new();
    for task in w.tasks() {
        bytes.extend_from_slice(task.label.to_string().as_bytes());
        bytes.push(b'\n');
    }
    (w.len(), olab_grid::fnv1a_64(&bytes))
}

fn cell(strategy: Strategy) -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, strategy, 8).with_seq(256)
}

/// The golden cells: FSDP plain, with two accumulation steps and under
/// each selective-overlap policy; pipeline 1F1B and GPipe; tensor
/// parallel.
fn experiments() -> Vec<(String, Experiment)> {
    let mut cells = vec![
        ("fsdp".to_string(), cell(Strategy::Fsdp)),
        (
            "fsdp.accum2".to_string(),
            cell(Strategy::Fsdp).with_grad_accum(2),
        ),
    ];
    for (i, policy) in FsdpOverlap::all_policies().into_iter().enumerate() {
        cells.push((
            format!("fsdp.policy{i}"),
            cell(Strategy::Fsdp).with_fsdp_overlap(policy),
        ));
    }
    let pp = Strategy::Pipeline { microbatch_size: 2 };
    cells.push(("pp.1f1b".to_string(), cell(pp)));
    cells.push((
        "pp.gpipe".to_string(),
        cell(pp).with_pipeline_schedule(PipelineSchedule::GPipe),
    ));
    cells.push(("tp".to_string(), cell(Strategy::TensorParallel)));
    cells
}

fn moe_workload(mode: ExecutionMode) -> Workload<Op> {
    let sku = GpuSku::h100();
    let machine = olab_core::Machine::stock(sku.clone(), 4);
    let plan = moe::MoePlan {
        model: ModelPreset::Gpt3Xl.config(),
        ranks: 4,
        batch_per_rank: 4,
        seq: 256,
        experts: 8,
        moe_every: 2,
        chunks: 2,
        precision: Precision::Fp16,
        datapath: Datapath::TensorCore,
    };
    moe::moe_timeline(&plan, &sku, &machine.config().topology, mode)
}

/// Every cell's `(name, mode, task count, digest)`.
fn rendered() -> Vec<(String, ExecutionMode, usize, u64)> {
    let mut out = Vec::new();
    for (name, exp) in experiments() {
        let policy = exp.validate().expect("golden cells fit");
        for mode in MODES {
            let w = exp.timeline(mode, policy).expect("lowers");
            let (n, d) = digest(&w);
            out.push((name.clone(), mode, n, d));
        }
    }
    for mode in MODES {
        let (n, d) = digest(&moe_workload(mode));
        out.push(("moe.chunks2".to_string(), mode, n, d));
    }
    out
}

#[test]
fn rendered_labels_match_the_golden_digests() {
    let got = rendered();
    let table: Vec<String> = got
        .iter()
        .map(|(name, mode, n, d)| format!("{name} {mode:?} {n} {d:016x}"))
        .collect();
    assert_eq!(table, GOLDEN, "got:\n{}", table.join("\n"));
}

const GOLDEN: &[&str] = &[
    "fsdp Overlapped 3184 8979c812e3cf12c5",
    "fsdp Sequential 3184 8979c812e3cf12c5",
    "fsdp.accum2 Overlapped 6436 7e9c7cb24dc58867",
    "fsdp.accum2 Sequential 6436 7e9c7cb24dc58867",
    "fsdp.policy0 Overlapped 3184 8979c812e3cf12c5",
    "fsdp.policy0 Sequential 3184 8979c812e3cf12c5",
    "fsdp.policy1 Overlapped 3184 8979c812e3cf12c5",
    "fsdp.policy1 Sequential 3184 8979c812e3cf12c5",
    "fsdp.policy2 Overlapped 3184 8979c812e3cf12c5",
    "fsdp.policy2 Sequential 3184 8979c812e3cf12c5",
    "fsdp.policy3 Overlapped 3184 8979c812e3cf12c5",
    "fsdp.policy3 Sequential 3184 8979c812e3cf12c5",
    "pp.1f1b Overlapped 3137 05fcdbeb62bd7965",
    "pp.1f1b Sequential 3137 05fcdbeb62bd7965",
    "pp.gpipe Overlapped 3137 a31ee5e0f0d6c053",
    "pp.gpipe Sequential 3137 a31ee5e0f0d6c053",
    "tp Overlapped 2788 23d55c6a73b99d89",
    "tp Sequential 2788 23d55c6a73b99d89",
    "moe.chunks2 Overlapped 3989 281b96252716dc7f",
    "moe.chunks2 Sequential 3989 281b96252716dc7f",
];
