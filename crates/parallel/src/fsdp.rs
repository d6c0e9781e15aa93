//! Fully-Sharded Data Parallelism (ZeRO-3) schedule.
//!
//! One training iteration, per the paper's Fig. 3(a):
//!
//! * **Forward**: parameters of layer *i* are all-gathered before its
//!   forward compute; the all-gather of layer *i+1* is prefetched while
//!   layer *i* computes (one-layer prefetch, DeepSpeed's default).
//! * **Backward**: parameters are re-gathered (ZeRO-3 frees them after
//!   forward), gradients are reduce-scattered; both overlap the backward
//!   compute of the neighbouring layer.
//! * **Optimizer**: each rank updates its `1/N` shard with Adam.
//!
//! Two mitigation levers from the paper are modeled:
//!
//! * **Gradient accumulation** ([`FsdpPlan::grad_accum_steps`]): run `k`
//!   forward/backward micro-steps, reduce-scattering only on the last one —
//!   communication per sample drops by `k`.
//! * **Selective overlap** ([`FsdpOverlap`]): disable all-gather prefetch
//!   and/or reduce-scatter overlap individually (DeepSpeed's
//!   `overlap_comm`-style switches). The `olab-core` adaptive scheduler
//!   searches this space.
//!
//! In [`ExecutionMode::Sequential`] the whole schedule is chained so that no
//! communication overlaps computation — the paper's baseline.

use crate::builder::RankTasks;
use crate::{ExecutionMode, Op, ScheduleBuilder};
use olab_ccl::{lower, Algorithm, Collective};
use olab_gpu::{Datapath, GpuSku, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::{ops, TransformerConfig};
use olab_net::Topology;
use olab_sim::{GpuId, Label, PayloadId, TaskId, TaskSpec, Workload};

/// Which communication classes may overlap compute (overlapped mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsdpOverlap {
    /// Prefetch the next layer's all-gather under the current compute.
    pub prefetch_all_gather: bool,
    /// Let reduce-scatters run under the neighbouring backward compute.
    pub overlap_reduce_scatter: bool,
}

impl Default for FsdpOverlap {
    fn default() -> Self {
        FsdpOverlap {
            prefetch_all_gather: true,
            overlap_reduce_scatter: true,
        }
    }
}

impl FsdpOverlap {
    /// All four policy combinations, for adaptive search.
    pub fn all_policies() -> [FsdpOverlap; 4] {
        [
            FsdpOverlap {
                prefetch_all_gather: true,
                overlap_reduce_scatter: true,
            },
            FsdpOverlap {
                prefetch_all_gather: true,
                overlap_reduce_scatter: false,
            },
            FsdpOverlap {
                prefetch_all_gather: false,
                overlap_reduce_scatter: true,
            },
            FsdpOverlap {
                prefetch_all_gather: false,
                overlap_reduce_scatter: false,
            },
        ]
    }
}

impl std::fmt::Display for FsdpOverlap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ag:{} rs:{}",
            if self.prefetch_all_gather {
                "ovl"
            } else {
                "seq"
            },
            if self.overlap_reduce_scatter {
                "ovl"
            } else {
                "seq"
            }
        )
    }
}

/// Configuration of one FSDP training iteration.
#[derive(Debug, Clone)]
pub struct FsdpPlan {
    /// The model to train.
    pub model: TransformerConfig,
    /// Data-parallel ranks (= GPUs).
    pub ranks: usize,
    /// Per-rank batch size (per micro-step).
    pub batch_per_rank: u64,
    /// Sequence length.
    pub seq: u64,
    /// Training precision.
    pub precision: Precision,
    /// Datapath for matrix kernels.
    pub datapath: Datapath,
    /// Whether activations are recomputed in the backward pass.
    pub activation_policy: ActivationPolicy,
    /// Forward/backward micro-steps per optimizer step (gradients are
    /// reduce-scattered only on the last one). 1 = the paper's setup.
    pub grad_accum_steps: u32,
    /// Which communication classes may overlap.
    pub overlap: FsdpOverlap,
}

impl FsdpPlan {
    /// A plan with the paper's defaults (no accumulation, full overlap).
    pub fn new(
        model: TransformerConfig,
        ranks: usize,
        batch_per_rank: u64,
        seq: u64,
        precision: Precision,
        datapath: Datapath,
        activation_policy: ActivationPolicy,
    ) -> Self {
        FsdpPlan {
            model,
            ranks,
            batch_per_rank,
            seq,
            precision,
            datapath,
            activation_policy,
            grad_accum_steps: 1,
            overlap: FsdpOverlap::default(),
        }
    }

    /// Bytes of one layer's parameters at the training precision.
    pub fn layer_bytes(&self) -> u64 {
        self.model.layer_params() * self.precision.bytes()
    }
}

/// Builds the task DAG of one FSDP iteration (all micro-steps plus the
/// optimizer update).
///
/// # Panics
///
/// Panics if `ranks < 2`, `grad_accum_steps == 0`, or the topology is
/// smaller than `ranks`.
pub fn fsdp_timeline(
    plan: &FsdpPlan,
    sku: &GpuSku,
    topo: &Topology,
    mode: ExecutionMode,
) -> Workload<Op> {
    assert!(plan.ranks >= 2, "FSDP needs at least 2 ranks");
    assert!(plan.grad_accum_steps >= 1, "need at least one micro-step");
    assert!(topo.n_gpus() >= plan.ranks, "topology too small");

    let n = plan.ranks;
    let group: Vec<GpuId> = (0..n as u16).map(GpuId).collect();
    let layers = plan.model.layers as usize;
    let mut b = ScheduleBuilder::new(n, mode);

    // Every payload is interned once up front: each kernel shape, and each
    // of the two collectives every layer runs, lowered once.
    let kernels = |b: &mut ScheduleBuilder, kernels: &[olab_gpu::KernelKind]| {
        b.intern_kernels(kernels, plan.precision, plan.datapath)
    };
    let collective = |b: &mut ScheduleBuilder, c: Collective| {
        let algo = Algorithm::auto_for(c.kind, c.bytes, &c.group, topo);
        b.intern(Op::Comm(lower(&c, algo, sku, topo, plan.precision)))
    };

    let layer = ops::layer_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let head = ops::head_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let emb = ops::embedding_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let layer_bytes = plan.layer_bytes();

    let emb = kernels(&mut b, &emb);
    let layer_forward = kernels(&mut b, &layer.forward);
    let head_forward = kernels(&mut b, &head.forward);
    let head_backward = kernels(&mut b, &head.backward);
    let bwd_kernels: Vec<PayloadId> = match plan.activation_policy {
        ActivationPolicy::Full => kernels(&mut b, &layer.backward),
        ActivationPolicy::Recompute => {
            let mut v = layer_forward.clone();
            v.extend(kernels(&mut b, &layer.backward));
            v
        }
    };
    let all_gather = collective(&mut b, Collective::all_gather(layer_bytes, group.clone()));
    let reduce_scatter = collective(
        &mut b,
        Collective::reduce_scatter(layer_bytes, group.clone()),
    );
    // Accumulation micro-steps fold each layer's gradients into a buffer
    // with a small elementwise add.
    let accum = (plan.grad_accum_steps > 1).then(|| {
        let add = olab_gpu::KernelKind::Elementwise {
            elems: plan.model.layer_params(),
            flops_per_elem: 1,
            streams: 3,
        };
        kernels(&mut b, &[add])[0]
    });
    let shard_params = plan.model.param_count() / n as u64;
    let adam = kernels(&mut b, &[ops::optimizer_kernel(shard_params)])[0];

    let mut final_rs: Vec<TaskId> = Vec::with_capacity(layers);
    // Per micro-step, reused by the next: each layer's forward all-gather,
    // and its forward, backward and backward re-gather's tasks.
    let mut ag_f: Vec<TaskId> = Vec::with_capacity(layers);
    let mut f_last: Vec<RankTasks> = Vec::with_capacity(layers);
    let mut ag_b: Vec<Option<TaskId>> = vec![None; layers];
    let mut b_last: Vec<RankTasks> = vec![RankTasks::new(); layers];

    for step in 0..plan.grad_accum_steps {
        let is_last_step = step + 1 == plan.grad_accum_steps;
        let tag = |pattern: &'static str| Label::new(pattern).with(step);

        // ---- Forward pass ----
        b.push_kernels(&group, || tag("st{}.emb.f.k{}.gpu{}"), &emb, &[]);

        ag_f.clear();
        f_last.clear();
        for i in 0..layers {
            // Prefetch discipline: AG(i) may start once layer i-2's forward
            // is done (so it runs while layer i-1 computes), keeping at most
            // two layers unsharded. Without prefetch, AG(i) waits for layer
            // i-1 and is fully exposed.
            let mut spec =
                TaskSpec::collective(tag("st{}.ag.f.L{}").with(i), &group[..], all_gather);
            let lookback = if plan.overlap.prefetch_all_gather {
                2
            } else {
                1
            };
            if i >= lookback {
                spec.deps.extend(f_last[i - lookback].iter().copied());
            }
            ag_f.push(b.push(spec));

            let last = b.push_kernels(
                &group,
                || tag("st{}.L{}.f.k{}.gpu{}").with(i),
                &layer_forward,
                &[ag_f[i]],
            );
            f_last.push(last);
        }

        // LM head (local, unsharded in this model) forward + backward.
        let head_f_last =
            b.push_kernels(&group, || tag("st{}.head.f.k{}.gpu{}"), &head_forward, &[]);
        let head_b_last =
            b.push_kernels(&group, || tag("st{}.head.b.k{}.gpu{}"), &head_backward, &[]);

        // ---- Backward pass ----
        ag_b.fill(None);
        {
            let mut spec = TaskSpec::collective(
                tag("st{}.ag.b.L{}").with(layers - 1),
                &group[..],
                all_gather,
            );
            spec.deps.extend(head_f_last.iter().copied());
            ag_b[layers - 1] = Some(b.push(spec));
        }

        let mut prev_rs: Option<TaskId> = None;
        for i in (0..layers).rev() {
            // Prefetch the re-gather of layer i-1 while layer i runs backward.
            if i > 0 {
                let mut spec =
                    TaskSpec::collective(tag("st{}.ag.b.L{}").with(i - 1), &group[..], all_gather);
                let anchor: &[TaskId] = if plan.overlap.prefetch_all_gather {
                    if i + 1 < layers {
                        &b_last[i + 1]
                    } else {
                        &head_b_last
                    }
                } else {
                    // No prefetch: wait for layer i itself (exposed)...
                    // which has not run yet, so anchor on the re-gather
                    // consumer's predecessor: layer i's own gather.
                    std::slice::from_ref(ag_b[i].as_ref().expect("gather enqueued"))
                };
                spec.deps.extend(anchor.iter().copied());
                ag_b[i - 1] = Some(b.push(spec));
            }

            let gather = ag_b[i].expect("all-gather enqueued");
            // Serialized reduce-scatter: the next backward waits for it.
            let first_deps: &[TaskId] = match prev_rs {
                Some(rs) if !plan.overlap.overlap_reduce_scatter => &[gather, rs],
                _ => &[gather],
            };
            b_last[i] = b.push_kernels(
                &group,
                || tag("st{}.L{}.b.k{}.gpu{}").with(i),
                &bwd_kernels,
                first_deps,
            );
            let last = &b_last[i];

            if is_last_step {
                let mut spec =
                    TaskSpec::collective(tag("st{}.rs.L{}").with(i), &group[..], reduce_scatter);
                spec.deps.extend(last.iter().copied());
                let rs = b.push(spec);
                final_rs.push(rs);
                prev_rs = Some(rs);
            } else {
                // Accumulation micro-step: gradients stay local and fold
                // into the accumulation buffer.
                let accum = accum.expect("accumulation steps intern the add");
                for gpu in &group {
                    let mut spec = TaskSpec::compute(
                        tag("st{}.accum.L{}.gpu{}").with(i).with(gpu.0),
                        *gpu,
                        accum,
                    );
                    spec.deps.push(last[gpu.index()]);
                    b.push(spec);
                }
            }
        }
    }

    // ---- Optimizer ----
    for gpu in &group {
        let mut spec = TaskSpec::compute(Label::new("adam.gpu{}").with(gpu.0), *gpu, adam);
        spec.deps.extend(final_rs.iter().copied());
        b.push(spec);
    }

    b.build()
}

/// Number of collectives one FSDP iteration issues (for tests/reports):
/// per micro-step `layers` forward all-gathers + `layers` backward
/// re-gathers, plus `layers` reduce-scatters on the final step.
pub fn collective_count(layers: u32, grad_accum_steps: u32) -> u32 {
    2 * layers * grad_accum_steps + layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_models::ModelPreset;
    use olab_sim::StreamKind;

    fn plan() -> FsdpPlan {
        FsdpPlan::new(
            ModelPreset::Gpt3Xl.config(),
            4,
            4,
            256,
            Precision::Fp16,
            Datapath::TensorCore,
            ActivationPolicy::Full,
        )
    }

    fn node() -> (GpuSku, Topology) {
        let sku = GpuSku::h100();
        let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
        (sku, topo)
    }

    #[test]
    fn timeline_contains_expected_collective_count() {
        let (sku, topo) = node();
        let w = fsdp_timeline(&plan(), &sku, &topo, ExecutionMode::Overlapped);
        let comms = w
            .tasks()
            .iter()
            .filter(|t| matches!(w.payload(t), Op::Comm(_)))
            .count();
        assert_eq!(comms as u32, collective_count(plan().model.layers, 1));
    }

    #[test]
    fn gradient_accumulation_repeats_gathers_but_not_reduces() {
        let (sku, topo) = node();
        let mut p = plan();
        p.grad_accum_steps = 3;
        let w = fsdp_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
        let comms = w
            .tasks()
            .iter()
            .filter(|t| matches!(w.payload(t), Op::Comm(_)))
            .count();
        assert_eq!(comms as u32, collective_count(p.model.layers, 3));
        let reduces = w
            .tasks()
            .iter()
            .filter(|t| t.label.to_string().contains("rs.L"))
            .count();
        assert_eq!(reduces as u32, p.model.layers, "one RS per layer total");
    }

    #[test]
    fn collectives_span_all_ranks() {
        let (sku, topo) = node();
        let w = fsdp_timeline(&plan(), &sku, &topo, ExecutionMode::Overlapped);
        for t in w.tasks() {
            if matches!(w.payload(t), Op::Comm(_)) {
                assert_eq!(t.participants.len(), 4, "{}", t.label);
                assert_eq!(t.stream, StreamKind::Comm);
            } else {
                assert_eq!(t.participants.len(), 1, "{}", t.label);
                assert_eq!(t.stream, StreamKind::Compute);
            }
        }
    }

    #[test]
    fn sequential_mode_has_strictly_more_dependencies() {
        let (sku, topo) = node();
        let ov = fsdp_timeline(&plan(), &sku, &topo, ExecutionMode::Overlapped);
        let seq = fsdp_timeline(&plan(), &sku, &topo, ExecutionMode::Sequential);
        assert_eq!(ov.len(), seq.len(), "same tasks, different edges");
        let edges = |w: &Workload<Op>| -> usize { w.tasks().iter().map(|t| t.deps.len()).sum() };
        assert!(edges(&seq) > edges(&ov));
    }

    #[test]
    fn disabling_reduce_scatter_overlap_adds_serialization_edges() {
        let (sku, topo) = node();
        let mut p = plan();
        p.overlap.overlap_reduce_scatter = false;
        let partial = fsdp_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
        let full = fsdp_timeline(&plan(), &sku, &topo, ExecutionMode::Overlapped);
        let edges = |w: &Workload<Op>| -> usize { w.tasks().iter().map(|t| t.deps.len()).sum() };
        assert!(edges(&partial) > edges(&full));
    }

    #[test]
    fn recompute_policy_adds_forward_kernels_to_backward() {
        let (sku, topo) = node();
        let mut p = plan();
        let full = fsdp_timeline(&p, &sku, &topo, ExecutionMode::Overlapped).len();
        p.activation_policy = ActivationPolicy::Recompute;
        let ckpt = fsdp_timeline(&p, &sku, &topo, ExecutionMode::Overlapped).len();
        assert!(ckpt > full);
    }

    #[test]
    fn all_modes_and_policies_validate_as_dags() {
        let (sku, topo) = node();
        for mode in ExecutionMode::ALL {
            for overlap in FsdpOverlap::all_policies() {
                let mut p = plan();
                p.overlap = overlap;
                fsdp_timeline(&p, &sku, &topo, mode)
                    .validate()
                    .expect("valid DAG");
            }
        }
    }

    #[test]
    fn overlap_policy_displays_compactly() {
        assert_eq!(FsdpOverlap::default().to_string(), "ag:ovl rs:ovl");
    }

    #[test]
    #[should_panic(expected = "at least 2 ranks")]
    fn single_rank_fsdp_is_rejected() {
        let (sku, topo) = node();
        let mut p = plan();
        p.ranks = 1;
        fsdp_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
    }
}
