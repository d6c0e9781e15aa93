//! Task specifications and workload construction.

use crate::{Deps, GpuId, Label, Participants, PayloadId, SimError, StreamKind, TaskId};
use std::marker::PhantomData;

/// Specification of one task in a [`Workload`].
///
/// A task occupies the `stream` queue on every device in `participants`.
/// Single-participant tasks model kernels; multi-participant tasks model
/// collectives, which start only when they reach the head of every
/// participant's queue (rendezvous semantics, like NCCL).
///
/// A task names its payload by id; the value lives once in the workload's
/// payload table (see [`Workload::intern`]). `P` ties a spec to the payload
/// type of the workload it is pushed into.
#[derive(Debug, Clone)]
pub struct TaskSpec<P> {
    /// Human-readable label, carried into the trace and rendered only
    /// when displayed.
    pub label: Label,
    /// Devices this task occupies, deduplicated and sorted by
    /// [`Workload::push`]; inline up to eight.
    pub participants: Participants,
    /// The stream the task occupies on each participant.
    pub stream: StreamKind,
    /// Explicit dependencies in addition to stream ordering; inline up to
    /// four.
    pub deps: Deps,
    /// The task's payload in the workload's table, interpreted by the
    /// [`RateModel`](crate::RateModel).
    pub payload: PayloadId,
    payload_type: PhantomData<fn() -> P>,
}

impl<P> TaskSpec<P> {
    /// Creates a task spec with no explicit dependencies.
    pub fn new(
        label: impl Into<Label>,
        participants: impl Into<Participants>,
        stream: StreamKind,
        payload: PayloadId,
    ) -> Self {
        TaskSpec {
            label: label.into(),
            participants: participants.into(),
            stream,
            deps: Deps::new(),
            payload,
            payload_type: PhantomData,
        }
    }

    /// Convenience constructor for a single-device compute task.
    pub fn compute(label: impl Into<Label>, gpu: GpuId, payload: PayloadId) -> Self {
        Self::new(label, [gpu], StreamKind::Compute, payload)
    }

    /// Convenience constructor for a single-device communication task.
    pub fn comm(label: impl Into<Label>, gpu: GpuId, payload: PayloadId) -> Self {
        Self::new(label, [gpu], StreamKind::Comm, payload)
    }

    /// Convenience constructor for a multi-device collective on the comm stream.
    pub fn collective(
        label: impl Into<Label>,
        participants: impl Into<Participants>,
        payload: PayloadId,
    ) -> Self {
        Self::new(label, participants, StreamKind::Comm, payload)
    }

    /// Adds an explicit dependency and returns `self` for chaining.
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Adds several explicit dependencies and returns `self` for chaining.
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }
}

/// An ordered collection of tasks forming the DAG the engine executes,
/// and the table of distinct payloads its tasks name.
///
/// Stream order is implied by push order: two tasks on the same
/// `(device, stream)` queue run in the order they were pushed, exactly like
/// kernels launched on a CUDA stream.
#[derive(Debug, Clone)]
pub struct Workload<P> {
    n_gpus: usize,
    tasks: Vec<TaskSpec<P>>,
    payloads: Vec<P>,
}

impl<P> Workload<P> {
    /// Creates an empty workload for a node with `n_gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is zero.
    pub fn new(n_gpus: usize) -> Self {
        Self::reusing(n_gpus, Vec::new(), Vec::new())
    }

    /// Creates an empty workload that pushes into `tasks`' and interns
    /// into `payloads`' storage: both vectors are cleared and their
    /// capacity kept, so a caller lowering one schedule after another can
    /// give each the storage of the last (see [`Workload::into_storage`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is zero.
    pub fn reusing(n_gpus: usize, mut tasks: Vec<TaskSpec<P>>, mut payloads: Vec<P>) -> Self {
        assert!(n_gpus > 0, "workload needs at least one device");
        tasks.clear();
        payloads.clear();
        Workload {
            n_gpus,
            tasks,
            payloads,
        }
    }

    /// The tasks in push order and the payload table, by value: the
    /// storage a later [`Workload::reusing`] can take over.
    pub fn into_storage(self) -> (Vec<TaskSpec<P>>, Vec<P>) {
        (self.tasks, self.payloads)
    }

    /// Number of devices in the node.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Number of tasks pushed so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workload holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task and returns its id.
    ///
    /// Participants are deduplicated and sorted. Dependencies may reference
    /// any task id already pushed; forward references are rejected at
    /// [`Engine::run`](crate::Engine::run) time.
    ///
    /// # Panics
    ///
    /// Panics if the task has no participants, references a device outside
    /// the node, or names a payload this workload has not interned.
    #[inline(always)]
    pub fn push(&mut self, spec: TaskSpec<P>) -> TaskId {
        // Stored first and then checked in place: a spec built at the call
        // site is then written once, straight into the task vector.
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        self.tasks.push(spec);
        let spec = self.tasks.last_mut().expect("a task was just pushed");
        if spec.participants.len() > 1 {
            spec.participants.sort_unstable();
            spec.participants.dedup();
        }
        // Sorted, so the last is the highest device.
        let fits = spec
            .participants
            .last()
            .is_some_and(|gpu| gpu.index() < self.n_gpus);
        if !fits || spec.payload.index() >= self.payloads.len() {
            self.reject();
        }
        id
    }

    /// Takes back the task [`Workload::push`] just stored and panics with
    /// its first fault.
    #[cold]
    #[inline(never)]
    fn reject(&mut self) -> ! {
        let spec = self.tasks.pop().expect("a task was just pushed");
        assert!(
            !spec.participants.is_empty(),
            "task {:?} has no participants",
            spec.label
        );
        assert!(
            spec.payload.index() < self.payloads.len(),
            "task {:?} names payload {} but the workload interned {}",
            spec.label,
            spec.payload.0,
            self.payloads.len()
        );
        let gpu = spec
            .participants
            .iter()
            .find(|gpu| gpu.index() >= self.n_gpus)
            .expect("a rejected task has a fault");
        panic!(
            "task {:?} references {} but the node has {} devices",
            spec.label, gpu, self.n_gpus
        );
    }

    /// The tasks in push order.
    pub fn tasks(&self) -> &[TaskSpec<P>] {
        &self.tasks
    }

    /// Looks up one task spec.
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec<P>> {
        self.tasks.get(id.index())
    }

    /// The payload table: each distinct payload once, indexed by
    /// [`PayloadId::index`].
    pub fn payloads(&self) -> &[P] {
        &self.payloads
    }

    /// The payload a task names.
    pub fn payload(&self, task: &TaskSpec<P>) -> &P {
        &self.payloads[task.payload.index()]
    }

    /// Serializes the workload per device, in place: each task additionally
    /// depends on the previous task, in push order, of every one of its
    /// participants, regardless of stream. Chaining deps are appended after
    /// the explicit ones in sorted participant order, and a predecessor that
    /// is already a dep is not repeated. Nothing on a device can then run
    /// concurrently with anything else on it, which is the paper's
    /// sequential execution. Labels and the payload table are moved, not
    /// cloned, and chaining deps are appended to each task's inline
    /// [`Deps`], so a task with at most four deps in all allocates nothing.
    pub fn into_sequential(mut self) -> Self {
        let mut last_on_gpu: Vec<Option<TaskId>> = vec![None; self.n_gpus];
        for (i, task) in self.tasks.iter_mut().enumerate() {
            let id = TaskId(i as u32);
            for gpu in &task.participants {
                let last = &mut last_on_gpu[gpu.index()];
                if let Some(prev) = last.replace(id) {
                    if !task.deps.contains(&prev) {
                        task.deps.push(prev);
                    }
                }
            }
        }
        self
    }

    /// Validates structural invariants (dependency ids in range, no
    /// self-dependency): the first offending dependency in task order, and
    /// in dependency order within a task. The engine makes the same checks
    /// while it builds its dependency tables, with the same result.
    pub fn validate(&self) -> Result<(), SimError> {
        for (i, task) in self.tasks.iter().enumerate() {
            for dep in &task.deps {
                check_dep(i, *dep, self.tasks.len())?;
            }
        }
        Ok(())
    }
}

impl<P: PartialEq> Workload<P> {
    /// Interns `payload` by value and returns its id: the id of an equal
    /// payload interned before, else a new id. The table is scanned
    /// linearly, so a lowering interns each distinct kernel shape or
    /// collective once up front and pushes every repeat by id.
    pub fn intern(&mut self, payload: P) -> PayloadId {
        let at = match self.payloads.iter().position(|p| *p == payload) {
            Some(at) => at,
            None => {
                self.payloads.push(payload);
                self.payloads.len() - 1
            }
        };
        PayloadId(u32::try_from(at).expect("too many payloads"))
    }
}

/// The structural check of one dependency `dep` of task `task` in a
/// workload of `n` tasks.
#[inline]
pub(crate) fn check_dep(task: usize, dep: TaskId, n: usize) -> Result<(), SimError> {
    if dep.index() >= n {
        return Err(SimError::UnknownDependency {
            task: TaskId(task as u32),
            dep,
        });
    }
    if dep.index() == task {
        return Err(SimError::SelfDependency {
            task: TaskId(task as u32),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one payload of the unit workloads below.
    const U: PayloadId = PayloadId(0);

    /// An empty workload of `n_gpus` devices with `()` interned as [`U`].
    fn unit(n_gpus: usize) -> Workload<()> {
        let mut w = Workload::new(n_gpus);
        assert_eq!(w.intern(()), U);
        w
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut w = unit(2);
        let a = w.push(TaskSpec::compute("a", GpuId(0), U));
        let b = w.push(TaskSpec::comm("b", GpuId(1), U));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn participants_are_deduplicated_and_sorted() {
        let mut w = unit(4);
        let id = w.push(TaskSpec::collective(
            "ar",
            vec![GpuId(3), GpuId(1), GpuId(3), GpuId(0)],
            U,
        ));
        let spec = w.get(id).unwrap();
        assert_eq!(spec.participants, vec![GpuId(0), GpuId(1), GpuId(3)]);
    }

    #[test]
    fn validate_rejects_unknown_and_self_dependencies() {
        let mut w = unit(1);
        w.push(TaskSpec::compute("a", GpuId(0), U).after(TaskId(5)));
        assert!(matches!(
            w.validate(),
            Err(SimError::UnknownDependency { .. })
        ));

        let mut w = unit(1);
        w.push(TaskSpec::compute("a", GpuId(0), U).after(TaskId(0)));
        assert!(matches!(w.validate(), Err(SimError::SelfDependency { .. })));
    }

    #[test]
    fn push_sorts_and_deduplicates_spilled_participants() {
        let mut w = unit(12);
        let gpus: Vec<GpuId> = (0..12u16).rev().chain([3, 7, 0]).map(GpuId).collect();
        let id = w.push(TaskSpec::collective("ar", gpus, U));
        let spec = w.get(id).unwrap();
        assert!(spec.participants.spilled());
        assert_eq!(spec.participants, (0..12u16).map(GpuId).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "has no participants")]
    fn a_task_without_participants_panics() {
        let mut w = unit(2);
        w.push(TaskSpec::new("a", Vec::new(), StreamKind::Compute, U));
    }

    #[test]
    #[should_panic(expected = "references gpu2")]
    fn out_of_range_device_panics() {
        let mut w = unit(2);
        w.push(TaskSpec::compute("a", GpuId(2), U));
    }

    fn deps<P>(w: &Workload<P>) -> Vec<Vec<TaskId>> {
        w.tasks().iter().map(|t| t.deps.to_vec()).collect()
    }

    #[test]
    fn into_sequential_chains_across_streams() {
        let mut w = unit(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), U));
        let b = w.push(TaskSpec::comm("b", GpuId(0), U));
        let c = w.push(TaskSpec::compute("c", GpuId(0), U));
        let w = w.into_sequential();
        assert_eq!(deps(&w), vec![vec![], vec![a], vec![b]]);
        assert_eq!(w.get(c).unwrap().label, "c");
        w.validate().unwrap();
    }

    #[test]
    fn into_sequential_chains_a_collective_on_every_participant() {
        let mut w = unit(3);
        let a0 = w.push(TaskSpec::compute("a0", GpuId(0), U));
        let a2 = w.push(TaskSpec::compute("a2", GpuId(2), U));
        let ar = w.push(TaskSpec::collective(
            "ar",
            vec![GpuId(2), GpuId(1), GpuId(0)],
            U,
        ));
        let b1 = w.push(TaskSpec::compute("b1", GpuId(1), U));
        let w = w.into_sequential();
        assert_eq!(deps(&w), vec![vec![], vec![], vec![a0, a2], vec![ar]]);
        assert_eq!(w.get(b1).unwrap().deps, vec![ar]);
        w.validate().unwrap();
    }

    #[test]
    fn into_sequential_does_not_duplicate_an_explicit_predecessor() {
        let mut w = unit(2);
        let a = w.push(TaskSpec::compute("a", GpuId(0), U));
        let ar = w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], U).after(a));
        let b = w.push(TaskSpec::compute("b", GpuId(1), U).after(ar));
        let w = w.into_sequential();
        assert_eq!(w.get(ar).unwrap().deps, vec![a]);
        assert_eq!(w.get(b).unwrap().deps, vec![ar]);
        w.validate().unwrap();
    }

    #[test]
    fn into_sequential_appends_chaining_deps_after_explicit_ones() {
        let mut w = unit(3);
        let x = w.push(TaskSpec::compute("x", GpuId(2), U));
        let p1 = w.push(TaskSpec::comm("p1", GpuId(1), U));
        let p0 = w.push(TaskSpec::compute("p0", GpuId(0), U));
        let ar = w.push(TaskSpec::collective("ar", vec![GpuId(1), GpuId(0)], U).after(x));
        let w = w.into_sequential();
        assert_eq!(w.get(ar).unwrap().deps, vec![x, p0, p1]);
        w.validate().unwrap();
    }

    #[test]
    fn into_sequential_leaves_empty_and_single_task_workloads_unchanged() {
        let w: Workload<()> = unit(2).into_sequential();
        assert!(w.is_empty());
        assert_eq!(w.n_gpus(), 2);

        let mut w = Workload::new(2);
        let seven = w.intern(7u8);
        w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], seven));
        let w = w.into_sequential();
        assert_eq!(w.len(), 1);
        assert!(w.tasks()[0].deps.is_empty());
        assert_eq!(*w.payload(&w.tasks()[0]), 7);
        w.validate().unwrap();
    }

    #[test]
    fn intern_hands_out_one_id_per_distinct_value() {
        let mut w = Workload::new(1);
        let a = w.intern(3u8);
        let b = w.intern(5u8);
        assert_eq!((a, b), (PayloadId(0), PayloadId(1)));
        assert_eq!(w.intern(3u8), a, "an equal value gets the earlier id");
        assert_eq!(w.payloads(), [3, 5]);
        let k = w.push(TaskSpec::compute("k", GpuId(0), b));
        assert_eq!(*w.payload(w.get(k).unwrap()), 5);
        let (tasks, payloads) = w.into_storage();
        let w = Workload::reusing(1, tasks, payloads);
        assert!(w.is_empty() && w.payloads().is_empty());
    }

    #[test]
    #[should_panic(expected = "names payload 1 but the workload interned 1")]
    fn a_task_naming_an_uninterned_payload_panics() {
        let mut w = unit(1);
        w.push(TaskSpec::compute("k", GpuId(0), PayloadId(1)));
    }

    /// Chains the way `into_sequential` did when deps were `Vec`s: explicit
    /// deps first, then each participant's predecessor in sorted order,
    /// skipping one that is already a dep.
    fn chained_reference<P>(w: &Workload<P>) -> Vec<Vec<TaskId>> {
        let mut last_on_gpu = vec![None; w.n_gpus()];
        w.tasks()
            .iter()
            .enumerate()
            .map(|(i, task)| {
                let mut deps = task.deps.to_vec();
                for gpu in &task.participants {
                    if let Some(prev) = last_on_gpu[gpu.index()].replace(TaskId(i as u32)) {
                        if !deps.contains(&prev) {
                            deps.push(prev);
                        }
                    }
                }
                deps
            })
            .collect()
    }

    #[test]
    fn into_sequential_spills_long_dep_lists_in_order() {
        let mut w = unit(10);
        let kernels: Vec<TaskId> = (0..10u16)
            .map(|g| w.push(TaskSpec::compute("k", GpuId(g), U)))
            .collect();
        // Explicit deps on the even GPUs' kernels, then chaining deps on
        // every GPU: 10 deps in all, 5 of them repeats.
        let evens = kernels.iter().step_by(2).copied();
        let ar = w.push(
            TaskSpec::collective("ar", (0..10u16).map(GpuId).collect::<Vec<_>>(), U)
                .after_all(evens),
        );
        w.push(TaskSpec::compute("tail", GpuId(9), U).after_all(kernels[..3].iter().copied()));
        let expected = chained_reference(&w);
        let w = w.into_sequential();
        assert_eq!(deps(&w), expected);
        let ar = w.get(ar).unwrap();
        assert!(ar.deps.spilled());
        assert_eq!(ar.deps.len(), 10);
        w.validate().unwrap();
    }

    #[test]
    fn after_all_extends_dependencies() {
        let mut w = unit(1);
        let a = w.push(TaskSpec::compute("a", GpuId(0), U));
        let b = w.push(TaskSpec::compute("b", GpuId(0), U));
        let c: TaskSpec<()> = TaskSpec::compute("c", GpuId(0), U).after_all([a, b]);
        assert_eq!(c.deps, vec![a, b]);
    }
}
