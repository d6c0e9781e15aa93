//! Pipeline-parallelism schedules: 1F1B (Megatron/PipeDream style, the
//! default) and GPipe (all-forward-then-all-backward, kept for ablation).
//!
//! The model's layers are split into `stages` contiguous chunks, one per
//! GPU. A global batch is split into `microbatches` whose boundary
//! activations/gradients move stage-to-stage as point-to-point transfers on
//! the comm stream (the paper's Fig. 3(b)).
//!
//! The schedules differ in *when* communication can hide:
//!
//! * **1F1B** interleaves forward and backward microbatches in the steady
//!   state, so the send of one microbatch's activations runs while the
//!   stage computes a *different* microbatch — genuine overlap, growing
//!   with the number of microbatches (the paper's Fig. 1(b) trend).
//! * **GPipe** runs all forwards, then all backwards; every transfer sits
//!   on the critical path between perfectly-aligned slots, so almost
//!   nothing overlaps. Comparing the two is the `ablation_schedule` study.
//!
//! Megatron-style embedding-gradient synchronization between the first and
//! last stage closes the iteration alongside the per-stage Adam step.

use crate::{ComputeOp, ExecutionMode, Op, ScheduleBuilder};
use olab_ccl::{lower, Algorithm, Collective};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::{ops, Family, TransformerConfig};
use olab_net::Topology;
use olab_sim::{GpuId, Label, PayloadId, TaskId, TaskSpec, Workload};

/// Which pipeline schedule to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineSchedule {
    /// One-forward-one-backward steady state (Megatron/PipeDream default).
    #[default]
    OneFOneB,
    /// All forwards, flush, all backwards (GPipe).
    GPipe,
}

impl std::fmt::Display for PipelineSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineSchedule::OneFOneB => write!(f, "1F1B"),
            PipelineSchedule::GPipe => write!(f, "GPipe"),
        }
    }
}

/// Configuration of one pipeline-parallel training iteration.
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// The model to train.
    pub model: TransformerConfig,
    /// Pipeline stages (= GPUs).
    pub stages: usize,
    /// Number of microbatches per iteration.
    pub microbatches: u32,
    /// Global batch size (must divide evenly into microbatches).
    pub batch_total: u64,
    /// Sequence length.
    pub seq: u64,
    /// Training precision.
    pub precision: Precision,
    /// Datapath for matrix kernels.
    pub datapath: Datapath,
    /// Whether activations are recomputed in the backward pass.
    pub activation_policy: ActivationPolicy,
    /// The schedule flavor.
    pub schedule: PipelineSchedule,
}

impl PipelinePlan {
    /// Per-microbatch batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_total` is not divisible by `microbatches`.
    pub fn microbatch_size(&self) -> u64 {
        assert!(
            self.microbatches > 0
                && self
                    .batch_total
                    .is_multiple_of(u64::from(self.microbatches)),
            "batch {} must divide into {} microbatches",
            self.batch_total,
            self.microbatches
        );
        self.batch_total / u64::from(self.microbatches)
    }

    /// Bytes of one microbatch's boundary activation tensor.
    pub fn activation_bytes(&self) -> u64 {
        self.microbatch_size() * self.seq * self.model.hidden * self.precision.bytes()
    }

    /// Layers owned by the largest stage (stages are balanced: the first
    /// `layers % stages` stages get one extra layer).
    pub fn layers_per_stage(&self) -> usize {
        (self.model.layers as usize).div_ceil(self.stages)
    }

    /// Layers owned by a specific stage under the balanced split.
    pub fn stage_layers(&self, stage: usize) -> usize {
        let total = self.model.layers as usize;
        let base = total / self.stages;
        base + usize::from(stage < total % self.stages)
    }

    /// Microbatches whose activations a stage holds at once: all of them
    /// under GPipe, at most the pipeline depth under 1F1B.
    pub fn activations_in_flight(&self) -> usize {
        match self.schedule {
            PipelineSchedule::GPipe => self.microbatches as usize,
            PipelineSchedule::OneFOneB => (self.microbatches as usize).min(self.stages),
        }
    }

    /// Parameters owned by a stage (embedding/head folded into the edge
    /// stages).
    pub fn stage_params(&self, stage: usize) -> u64 {
        let base = self.stage_layers(stage) as u64 * self.model.layer_params();
        let edge = if stage == 0 || stage == self.stages - 1 {
            self.model.vocab * self.model.hidden
        } else {
            0
        };
        base + edge
    }
}

/// One entry of a stage's execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageOp {
    Forward(usize),
    Backward(usize),
}

/// Per-stage op sequences for a schedule.
fn stage_programs(schedule: PipelineSchedule, stages: usize, m: usize) -> Vec<Vec<StageOp>> {
    (0..stages)
        .map(|s| {
            let mut program = Vec::with_capacity(2 * m);
            match schedule {
                PipelineSchedule::GPipe => {
                    program.extend((0..m).map(StageOp::Forward));
                    // GPipe drains in reverse microbatch order.
                    program.extend((0..m).rev().map(StageOp::Backward));
                }
                PipelineSchedule::OneFOneB => {
                    let warmup = (stages - 1 - s).min(m);
                    program.extend((0..warmup).map(StageOp::Forward));
                    for i in 0..(m - warmup) {
                        program.push(StageOp::Forward(warmup + i));
                        program.push(StageOp::Backward(i));
                    }
                    program.extend((m - warmup..m).map(StageOp::Backward));
                }
            }
            program
        })
        .collect()
}

/// Builds the task DAG of one pipeline iteration.
///
/// # Panics
///
/// Panics if `stages < 2`, the topology is smaller than `stages`, or the
/// batch does not divide into microbatches.
pub fn pipeline_timeline(
    plan: &PipelinePlan,
    sku: &GpuSku,
    topo: &Topology,
    mode: ExecutionMode,
) -> Workload<Op> {
    assert!(plan.stages >= 2, "pipeline needs at least 2 stages");
    assert!(
        plan.stages <= plan.model.layers as usize,
        "more stages than layers"
    );
    assert!(topo.n_gpus() >= plan.stages, "topology too small");
    let mb = plan.microbatch_size();
    let s_count = plan.stages;
    let m_count = plan.microbatches as usize;

    let mut b = ScheduleBuilder::new(s_count, mode);

    let layer = ops::layer_kernels(&plan.model, mb, plan.seq);
    let head = ops::head_kernels(&plan.model, mb, plan.seq);
    let emb = ops::embedding_kernels(&plan.model, mb, plan.seq);
    let act_bytes = plan.activation_bytes();

    // Every payload is interned once up front: each kernel shape, and the
    // one transfer between each pair of neighbouring stages (both
    // directions move the same activation bytes over the same link), each
    // lowered once.
    let mut kernels = |k: &[KernelKind]| b.intern_kernels(k, plan.precision, plan.datapath);
    let emb = kernels(&emb);
    let layer_forward = kernels(&layer.forward);
    let head_forward = kernels(&head.forward);
    let head_backward = kernels(&head.backward);
    let bwd_kernels: Vec<PayloadId> = match plan.activation_policy {
        ActivationPolicy::Full => kernels(&layer.backward),
        ActivationPolicy::Recompute => {
            let mut v = layer_forward.clone();
            v.extend(kernels(&layer.backward));
            v
        }
    };
    // `links[s]` moves a microbatch's boundary tensor between stages `s`
    // and `s + 1`.
    let links: Vec<PayloadId> = (0..s_count - 1)
        .map(|s| {
            let c = Collective::p2p(act_bytes, GpuId(s as u16), GpuId((s + 1) as u16));
            b.intern(Op::Comm(lower(
                &c,
                Algorithm::Direct,
                sku,
                topo,
                plan.precision,
            )))
        })
        .collect();

    // Kernel chunks of one forward / backward cell on stage `s`.
    let forward_chunks = |s: usize| {
        let emb = (s == 0).then_some(&emb[..]);
        let head = (s == s_count - 1).then_some(&head_forward[..]);
        let layers = std::iter::repeat_n(&layer_forward[..], stage_layer_count(plan, s));
        emb.into_iter().chain(layers).chain(head)
    };
    let backward_chunks = |s: usize| {
        let head = (s == s_count - 1).then_some(&head_backward[..]);
        let layers = std::iter::repeat_n(&bwd_kernels[..], stage_layer_count(plan, s));
        head.into_iter().chain(layers)
    };

    // Pushes the compute of one (stage, microbatch) cell; returns last task.
    // `label` is the cell's pattern, with stage, microbatch, chunk and
    // kernel holes.
    fn push_cell<'a>(
        b: &mut ScheduleBuilder,
        stage: usize,
        m: usize,
        chunks: impl Iterator<Item = &'a [PayloadId]>,
        label: &'static str,
        first_dep: Option<TaskId>,
    ) -> TaskId {
        let gpu = GpuId(stage as u16);
        let mut last = None;
        let mut dep = first_dep;
        for (ci, chunk) in chunks.enumerate() {
            for (ki, &k) in chunk.iter().enumerate() {
                let mut spec = TaskSpec::compute(
                    Label::new(label).with(stage).with(m).with(ci).with(ki),
                    gpu,
                    k,
                );
                if let Some(d) = dep.take() {
                    spec.deps.push(d);
                }
                last = Some(b.push(spec));
            }
        }
        last.expect("stage owns at least one kernel")
    }

    // Breadth-first emission of the per-stage programs: each pass emits at
    // most one op per stage, and only once its cross-stage producer is
    // emitted. Emission order defines comm-queue order, so keeping passes
    // aligned with the schedule's time slots both avoids rendezvous
    // deadlocks and keeps transfers adjacent to the compute they overlap
    // (draining a stage's whole program at once would queue its sends far
    // ahead of its neighbours' receives and serialize the pipeline).
    let programs = stage_programs(plan.schedule, s_count, m_count);
    let mut cursor = vec![0usize; s_count];
    // What each (stage, microbatch) cell emitted, at `s * m_count + m`.
    let cells = s_count * m_count;
    let at = |s: usize, m: usize| s * m_count + m;
    let mut fwd_send: Vec<Option<TaskId>> = vec![None; cells];
    let mut bwd_send: Vec<Option<TaskId>> = vec![None; cells];
    let mut fwd_done: Vec<Option<TaskId>> = vec![None; cells];
    let mut bwd_done: Vec<Option<TaskId>> = vec![None; cells];

    let total_ops: usize = programs.iter().map(Vec::len).sum();
    let mut emitted = 0usize;
    while emitted < total_ops {
        let mut progressed = false;
        for s in 0..s_count {
            if cursor[s] < programs[s].len() {
                let op = programs[s][cursor[s]];
                let ready = match op {
                    StageOp::Forward(m) => s == 0 || fwd_send[at(s - 1, m)].is_some(),
                    StageOp::Backward(m) => s == s_count - 1 || bwd_send[at(s + 1, m)].is_some(),
                };
                if !ready {
                    continue;
                }
                match op {
                    StageOp::Forward(m) => {
                        let recv = if s > 0 { fwd_send[at(s - 1, m)] } else { None };
                        let last =
                            push_cell(&mut b, s, m, forward_chunks(s), "s{}.m{}.f.c{}k{}", recv);
                        fwd_done[at(s, m)] = Some(last);
                        if s + 1 < s_count {
                            let spec = TaskSpec::collective(
                                Label::new("x.f.s{}->s{}.m{}").with(s).with(s + 1).with(m),
                                [GpuId(s as u16), GpuId((s + 1) as u16)],
                                links[s],
                            )
                            .after(last);
                            fwd_send[at(s, m)] = Some(b.push(spec));
                        } else {
                            // Terminal stage: mark availability for readiness
                            // checks without a transfer.
                            fwd_send[at(s, m)] = Some(last);
                        }
                    }
                    StageOp::Backward(m) => {
                        let recv = if s + 1 < s_count {
                            bwd_send[at(s + 1, m)]
                        } else {
                            fwd_done[at(s, m)]
                        };
                        let last =
                            push_cell(&mut b, s, m, backward_chunks(s), "s{}.m{}.b.c{}k{}", recv);
                        bwd_done[at(s, m)] = Some(last);
                        if s > 0 {
                            let spec = TaskSpec::collective(
                                Label::new("x.b.s{}->s{}.m{}").with(s).with(s - 1).with(m),
                                [GpuId((s - 1) as u16), GpuId(s as u16)],
                                links[s - 1],
                            )
                            .after(last);
                            bwd_send[at(s, m)] = Some(b.push(spec));
                        } else {
                            bwd_send[at(s, m)] = Some(last);
                        }
                    }
                }
                cursor[s] += 1;
                emitted += 1;
                progressed = true;
            }
        }
        assert!(progressed, "pipeline schedule emission stalled (bug)");
    }

    // ---- Embedding-gradient synchronization (Megatron ties input/output
    // embeddings across the first and last stage for GPT models) ----
    let mut embed_sync = None;
    if plan.model.family == Family::Gpt && s_count >= 2 {
        let bytes = plan.model.vocab * plan.model.hidden * plan.precision.bytes();
        let c = Collective::all_reduce(bytes, vec![GpuId(0), GpuId((s_count - 1) as u16)]);
        let algo = Algorithm::auto(c.kind, c.bytes, 2);
        let sync = b.intern(Op::Comm(lower(&c, algo, sku, topo, plan.precision)));
        let mut spec =
            TaskSpec::collective("ar.embed", [GpuId(0), GpuId((s_count - 1) as u16)], sync);
        for s in [0, s_count - 1] {
            for done in &bwd_done[at(s, 0)..at(s + 1, 0)] {
                spec.deps.push(done.expect("backward emitted"));
            }
        }
        embed_sync = Some(b.push(spec));
    }

    // ---- Optimizer, one Adam step per stage ----
    for s in 0..s_count {
        let gpu = GpuId(s as u16);
        let adam = b.intern(Op::Compute(ComputeOp::new(
            ops::optimizer_kernel(plan.stage_params(s)),
            plan.precision,
            plan.datapath,
        )));
        let mut spec = TaskSpec::compute(Label::new("adam.s{}").with(s), gpu, adam);
        if let (Some(sync), true) = (embed_sync, s == 0 || s == s_count - 1) {
            spec.deps.push(sync);
        }
        b.push(spec);
    }

    b.build()
}

/// Number of model layers resident on a stage.
fn stage_layer_count(plan: &PipelinePlan, stage: usize) -> usize {
    plan.stage_layers(stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_models::ModelPreset;

    fn plan(microbatches: u32) -> PipelinePlan {
        PipelinePlan {
            model: ModelPreset::Gpt3Xl.config(),
            stages: 4,
            microbatches,
            batch_total: 8 * u64::from(microbatches),
            seq: 256,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            activation_policy: ActivationPolicy::Full,
            schedule: PipelineSchedule::OneFOneB,
        }
    }

    fn node() -> (GpuSku, Topology) {
        let sku = GpuSku::a100();
        let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
        (sku, topo)
    }

    #[test]
    fn p2p_count_matches_pipeline_structure() {
        let (sku, topo) = node();
        let m = 4u32;
        for schedule in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
            let mut p = plan(m);
            p.schedule = schedule;
            let w = pipeline_timeline(&p, &sku, &topo, ExecutionMode::Overlapped);
            let p2ps = w
                .tasks()
                .iter()
                .filter(|t| t.label.to_string().starts_with("x."))
                .count();
            // (stages-1) forward + (stages-1) backward transfers per microbatch.
            assert_eq!(p2ps, 2 * 3 * m as usize, "{schedule}");
        }
    }

    #[test]
    fn one_f_one_b_programs_interleave_in_steady_state() {
        let programs = stage_programs(PipelineSchedule::OneFOneB, 4, 8);
        // The last stage has no warmup: strict F,B alternation.
        assert_eq!(programs[3][0], StageOp::Forward(0));
        assert_eq!(programs[3][1], StageOp::Backward(0));
        // Stage 0 warms up with (stages-1) forwards.
        assert_eq!(
            &programs[0][..3],
            &[
                StageOp::Forward(0),
                StageOp::Forward(1),
                StageOp::Forward(2)
            ]
        );
        // Every program covers each microbatch exactly once per direction.
        for program in &programs {
            assert_eq!(program.len(), 16);
        }
    }

    #[test]
    fn gpipe_programs_flush_before_backward() {
        let programs = stage_programs(PipelineSchedule::GPipe, 4, 4);
        for program in &programs {
            let first_backward = program
                .iter()
                .position(|op| matches!(op, StageOp::Backward(_)))
                .unwrap();
            assert!(program[..first_backward]
                .iter()
                .all(|op| matches!(op, StageOp::Forward(_))));
        }
    }

    #[test]
    fn stages_split_all_layers() {
        let p = plan(2);
        let total: usize = (0..p.stages).map(|s| stage_layer_count(&p, s)).sum();
        assert_eq!(total, p.model.layers as usize);
    }

    #[test]
    fn stage_params_cover_the_model() {
        let p = plan(2);
        let total: u64 = (0..p.stages).map(|s| p.stage_params(s)).sum();
        // GPT ties embeddings, so the tied matrix appears on both edge
        // stages: total covers params + one extra embedding copy.
        assert!(total >= p.model.param_count());
    }

    #[test]
    fn in_flight_activations_differ_between_schedules() {
        let mut p = plan(8);
        assert_eq!(p.activations_in_flight(), 4, "1F1B caps at pipeline depth");
        p.schedule = PipelineSchedule::GPipe;
        assert_eq!(p.activations_in_flight(), 8, "GPipe stashes everything");
    }

    #[test]
    fn embed_sync_present_for_gpt() {
        let (sku, topo) = node();
        let w = pipeline_timeline(&plan(2), &sku, &topo, ExecutionMode::Overlapped);
        assert!(w.tasks().iter().any(|t| t.label == "ar.embed"));
    }

    #[test]
    fn both_modes_and_schedules_validate() {
        let (sku, topo) = node();
        for mode in ExecutionMode::ALL {
            for schedule in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
                let mut p = plan(3);
                p.schedule = schedule;
                pipeline_timeline(&p, &sku, &topo, mode)
                    .validate()
                    .expect("valid DAG");
            }
        }
    }

    #[test]
    fn microbatch_size_divides_batch() {
        let p = plan(4);
        assert_eq!(p.microbatch_size(), 8);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_batch_is_rejected() {
        let mut p = plan(3);
        p.batch_total = 10;
        p.microbatch_size();
    }

    #[test]
    fn activation_bytes_scale_with_microbatch() {
        let p2 = plan(2);
        let p4 = plan(4);
        // Same per-microbatch size (batch_total scales with microbatches).
        assert_eq!(p2.activation_bytes(), p4.activation_bytes());
    }
}
