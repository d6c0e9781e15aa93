//! Schedule construction with optional sequential serialization.

use crate::{ComputeOp, ExecutionMode, Op};
use olab_gpu::{Datapath, KernelKind, Precision};
use olab_sim::{GpuId, Label, PayloadId, SmallList, TaskId, TaskSpec, Workload};
use std::cell::RefCell;

/// One task per rank of a node, in rank order: inline up to 8 ranks, so a
/// lowering's per-layer id lists allocate nothing on any paper node.
pub(crate) type RankTasks = SmallList<TaskId, 8>;

/// A schedule's task storage and payload table.
type Storage = (Vec<TaskSpec<Op>>, Vec<Op>);

thread_local! {
    /// Storage handed back by [`recycle`], taken by the next
    /// [`ScheduleBuilder`] on this thread.
    static SPARE: RefCell<Storage> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Hands a finished schedule's task storage and payload table to the next
/// [`ScheduleBuilder`] on this thread.
///
/// A paper cell lowers up to ~16k tasks, a few MiB of contiguous storage.
/// Built afresh for every cell, that storage grows by doubling and is
/// freed again, and the large holes it leaves behind make the process's
/// peak memory depend on what else happens to land in them. Kept from one
/// cell to the next, it is allocated once per thread, at the size of the
/// largest schedule lowered so far. The tasks themselves are dropped here,
/// which frees nothing per task: a task's participants and dependencies
/// live inline in its [`TaskSpec`], and only a list that spilled (a
/// collective over more than 8 GPUs, a task with more than 4 deps) owns a
/// heap block. The payload table is kept the same way; dropping its
/// payloads frees one group per distinct collective.
pub fn recycle(workload: Workload<Op>) {
    let (mut tasks, mut payloads) = workload.into_storage();
    tasks.clear();
    payloads.clear();
    SPARE.with_borrow_mut(|spare| {
        if tasks.capacity() > spare.0.capacity() {
            spare.0 = tasks;
        }
        if payloads.capacity() > spare.1.capacity() {
            spare.1 = payloads;
        }
    });
}

/// Builds a [`Workload`] of [`Op`]s in program order.
///
/// A lowering interns each distinct payload once ([`ScheduleBuilder::intern`],
/// [`ScheduleBuilder::intern_kernels`]) and pushes every task that runs it
/// by id, so a collective is lowered once however many layers run it.
///
/// Tasks are pushed exactly as the overlapped schedule issues them. In
/// [`ExecutionMode::Sequential`], [`ScheduleBuilder::build`] serializes the
/// finished schedule with [`Workload::into_sequential`]: every task then
/// also depends on the previously pushed task of *every* participant GPU,
/// regardless of stream, so nothing on a GPU ever runs concurrently with
/// anything else on that GPU. Tasks must therefore be pushed in a valid
/// execution order (schedules here always are: they are emitted in program
/// order).
#[derive(Debug)]
pub struct ScheduleBuilder {
    workload: Workload<Op>,
    mode: ExecutionMode,
}

impl ScheduleBuilder {
    /// Creates a builder for an `n_gpus` node, pushing into the storage
    /// [`recycle`] last handed back on this thread, if any.
    pub fn new(n_gpus: usize, mode: ExecutionMode) -> Self {
        let (tasks, payloads) = SPARE.with_borrow_mut(std::mem::take);
        ScheduleBuilder {
            workload: Workload::reusing(n_gpus, tasks, payloads),
            mode,
        }
    }

    /// The execution mode this builder serializes for.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Interns a payload by value (see [`Workload::intern`]).
    pub fn intern(&mut self, op: Op) -> PayloadId {
        self.workload.intern(op)
    }

    /// Interns each kernel as a compute op: the ids of `kernels` in order,
    /// equal shapes sharing one id.
    pub fn intern_kernels(
        &mut self,
        kernels: &[KernelKind],
        precision: Precision,
        datapath: Datapath,
    ) -> Vec<PayloadId> {
        kernels
            .iter()
            .map(|k| self.intern(Op::Compute(ComputeOp::new(*k, precision, datapath))))
            .collect()
    }

    /// Pushes a task.
    pub fn push(&mut self, spec: TaskSpec<Op>) -> TaskId {
        self.workload.push(spec)
    }

    /// Pushes one kernel sequence on the compute stream of every GPU in
    /// `group`, GPU by GPU, the first kernel on each depending on
    /// `first_deps`; returns each GPU's last task. `label` returns a
    /// pattern ending in the kernel index and GPU holes (`….k{}.gpu{}`),
    /// with its leading holes already filled. It is called once per task:
    /// a label built where it is pushed costs next to nothing, one cloned
    /// and then filled costs several times more (see `olab_sim::Label`).
    pub(crate) fn push_kernels(
        &mut self,
        group: &[GpuId],
        label: impl Fn() -> Label,
        kernels: &[PayloadId],
        first_deps: &[TaskId],
    ) -> RankTasks {
        let mut last = RankTasks::new();
        for gpu in group {
            let mut end = TaskId(0);
            for (ki, &k) in kernels.iter().enumerate() {
                let mut spec = TaskSpec::compute(label().with(ki).with(gpu.0), *gpu, k);
                if ki == 0 {
                    spec.deps.extend_from_slice(first_deps);
                }
                end = self.push(spec);
            }
            last.push(end);
        }
        last
    }

    /// Finishes construction, serializing per GPU in sequential mode.
    pub fn build(self) -> Workload<Op> {
        match self.mode {
            ExecutionMode::Overlapped => self.workload,
            ExecutionMode::Sequential => self.workload.into_sequential(),
        }
    }

    /// Number of tasks pushed so far.
    pub fn len(&self) -> usize {
        self.workload.len()
    }

    /// Whether no task has been pushed.
    pub fn is_empty(&self) -> bool {
        self.workload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_sim::{GpuId, StreamKind};

    fn op() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(4, 4, 4),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    #[test]
    fn sequential_mode_chains_across_streams() {
        let mut b = ScheduleBuilder::new(1, ExecutionMode::Sequential);
        let op = b.intern(op());
        let a = b.push(TaskSpec::compute("a", GpuId(0), op));
        let c = b.push(TaskSpec::comm("c", GpuId(0), op));
        let w = b.build();
        assert_eq!(w.tasks()[c.index()].deps, vec![a]);
    }

    #[test]
    fn a_recycled_schedule_lends_its_storage_to_the_next_builder() {
        let mut b = ScheduleBuilder::new(1, ExecutionMode::Sequential);
        let gemms: Vec<KernelKind> = (1..=20).map(|n| KernelKind::gemm(n, n, n)).collect();
        let ids = b.intern_kernels(&gemms, Precision::Fp16, Datapath::TensorCore);
        for _ in 0..5 {
            for &id in &ids {
                b.push(TaskSpec::compute("a", GpuId(0), id));
            }
        }
        recycle(b.build());
        let next = ScheduleBuilder::new(2, ExecutionMode::Overlapped).build();
        assert!(next.is_empty() && next.payloads().is_empty());
        assert_eq!(next.n_gpus(), 2);
        let (tasks, payloads) = next.into_storage();
        assert!(tasks.capacity() >= 100 && payloads.capacity() >= 20);
        // The storage was taken: a second builder starts from nothing.
        let other = ScheduleBuilder::new(1, ExecutionMode::Overlapped).build();
        let (tasks, payloads) = other.into_storage();
        assert_eq!((tasks.capacity(), payloads.capacity()), (0, 0));
    }

    #[test]
    fn overlapped_mode_adds_no_deps() {
        let mut b = ScheduleBuilder::new(1, ExecutionMode::Overlapped);
        let op = b.intern(op());
        b.push(TaskSpec::compute("a", GpuId(0), op));
        let c = b.push(TaskSpec::comm("c", GpuId(0), op));
        let w = b.build();
        assert!(w.tasks()[c.index()].deps.is_empty());
    }

    #[test]
    fn sequential_collectives_chain_on_every_participant() {
        let mut b = ScheduleBuilder::new(2, ExecutionMode::Sequential);
        let op = b.intern(op());
        let a0 = b.push(TaskSpec::compute("a0", GpuId(0), op));
        let a1 = b.push(TaskSpec::compute("a1", GpuId(1), op));
        let coll = b.push(TaskSpec::new(
            "ar",
            vec![GpuId(0), GpuId(1)],
            StreamKind::Comm,
            op,
        ));
        let w = b.build();
        let deps = &w.tasks()[coll.index()].deps;
        assert!(deps.contains(&a0) && deps.contains(&a1));
    }
}
