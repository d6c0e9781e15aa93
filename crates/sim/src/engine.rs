//! The piecewise-fluid simulation loop.

use crate::obs::{EngineObserver, GpuCounters, NullObserver};
use crate::rate::{RateModel, RunningTask};
use crate::trace::{GpuActivity, PowerSegment, SimTrace, TaskRecord, Window};
use crate::{SimError, SimTime, StreamKind, TaskId, Workload};
use std::cell::RefCell;

/// Work fractions below this are considered complete (guards rounding).
const REMAINING_TOLERANCE: f64 = 1e-12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pending,
    Running,
    Done,
}

/// Reusable per-run scratch memory for the engine.
///
/// A cell simulation used to allocate a dozen vectors (dependency lists,
/// one `VecDeque` per device stream, status/progress arrays, per-epoch
/// scratch) and drop them all at the end of the run. An arena keeps those
/// buffers alive between runs: [`SimArena::reset`] rewinds lengths without
/// releasing capacity, so a steady-state sweep performs no per-cell
/// allocations for engine bookkeeping at all (the returned [`SimTrace`]
/// still owns its records).
///
/// The dependency graph and the per-(device, stream) FIFO queues are stored
/// in CSR form (offset table + one flat array); queue contents never change
/// during a run — only a head cursor advances — so "pop front" is an index
/// increment instead of a `VecDeque` rotation.
///
/// [`Engine::run`] and [`Engine::run_observed`] draw an arena from a
/// thread-local pool automatically; [`Engine::run_observed_in`] takes an
/// explicit arena for callers (benchmarks, allocation tests) that want to
/// control reuse.
#[derive(Debug, Default)]
pub struct SimArena {
    /// Unsatisfied dependency count per task.
    deps_left: Vec<u32>,
    /// CSR offsets into `dep_edges`: task `i`'s dependents occupy
    /// `dep_edges[dep_off[i]..dep_off[i + 1]]`.
    dep_off: Vec<u32>,
    dep_edges: Vec<TaskId>,
    /// Fill cursors while building `dep_edges` (dead after setup).
    dep_cursor: Vec<u32>,
    /// CSR offsets into `queue_tasks`: queue `q` occupies
    /// `queue_tasks[queue_off[q]..queue_off[q + 1]]` in push order.
    queue_off: Vec<u32>,
    queue_tasks: Vec<TaskId>,
    /// Absolute index of each queue's current head in `queue_tasks`.
    queue_head: Vec<u32>,
    status: Vec<Status>,
    remaining: Vec<f64>,
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    coactive: Vec<SimTime>,
    running: Vec<TaskId>,
    rates: Vec<f64>,
    power: Vec<f64>,
    counters: Vec<GpuCounters>,
    stream_busy: Vec<[bool; 2]>,
}

impl SimArena {
    /// An empty arena; buffers grow on first use and persist afterwards.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Rewinds every buffer for a workload of `n` tasks on `n_gpus`
    /// devices, building the CSR dependency and queue tables. Capacity from
    /// earlier runs is retained.
    fn reset<P>(&mut self, workload: &Workload<P>) {
        let n = workload.len();
        let n_gpus = workload.n_gpus();
        let n_queues = n_gpus * 2;
        let tasks = workload.tasks();

        let m = crate::metrics::sim_metrics();
        if self.dep_off.capacity() == 0 {
            m.arena_cold_resets.inc();
        } else {
            m.arena_warm_resets.inc();
        }

        self.deps_left.clear();
        self.deps_left.resize(n, 0);
        self.dep_off.clear();
        self.dep_off.resize(n + 1, 0);
        for (i, task) in tasks.iter().enumerate() {
            self.deps_left[i] = task.deps.len() as u32;
            for dep in &task.deps {
                self.dep_off[dep.index() + 1] += 1;
            }
        }
        for i in 0..n {
            self.dep_off[i + 1] += self.dep_off[i];
        }
        self.dep_cursor.clear();
        self.dep_cursor.extend_from_slice(&self.dep_off[..n]);
        self.dep_edges.clear();
        self.dep_edges.resize(self.dep_off[n] as usize, TaskId(0));
        for (i, task) in tasks.iter().enumerate() {
            for dep in &task.deps {
                let slot = &mut self.dep_cursor[dep.index()];
                self.dep_edges[*slot as usize] = TaskId(i as u32);
                *slot += 1;
            }
        }

        self.queue_off.clear();
        self.queue_off.resize(n_queues + 1, 0);
        for task in tasks {
            for gpu in &task.participants {
                self.queue_off[gpu.index() * 2 + task.stream.index() + 1] += 1;
            }
        }
        for q in 0..n_queues {
            self.queue_off[q + 1] += self.queue_off[q];
        }
        self.queue_head.clear();
        self.queue_head
            .extend_from_slice(&self.queue_off[..n_queues]);
        let mut cursor = std::mem::take(&mut self.dep_cursor);
        cursor.clear();
        cursor.extend_from_slice(&self.queue_off[..n_queues]);
        self.queue_tasks.clear();
        self.queue_tasks
            .resize(self.queue_off[n_queues] as usize, TaskId(0));
        for (i, task) in tasks.iter().enumerate() {
            for gpu in &task.participants {
                let q = gpu.index() * 2 + task.stream.index();
                self.queue_tasks[cursor[q] as usize] = TaskId(i as u32);
                cursor[q] += 1;
            }
        }
        self.dep_cursor = cursor;

        self.status.clear();
        self.status.resize(n, Status::Pending);
        self.remaining.clear();
        self.remaining.resize(n, 1.0);
        self.start.clear();
        self.start.resize(n, SimTime::ZERO);
        self.end.clear();
        self.end.resize(n, SimTime::ZERO);
        self.coactive.clear();
        self.coactive.resize(n, SimTime::ZERO);
        self.running.clear();
        self.rates.clear();
        self.power.clear();
        self.counters.clear();
        self.stream_busy.clear();
        self.stream_busy.resize(n_gpus, [false; 2]);
    }
}

thread_local! {
    /// Per-thread arena backing [`Engine::run`] / [`Engine::run_observed`],
    /// so back-to-back cells on one worker reuse the same buffers.
    static SCRATCH: RefCell<SimArena> = RefCell::new(SimArena::new());
}

/// Executes a [`Workload`] under a [`RateModel`].
///
/// The engine is deterministic: identical workloads and models produce
/// identical traces. Each iteration of the main loop ("epoch") runs until the
/// earliest completion among running tasks — or, for time-varying models,
/// until the model's [`next_boundary`](RateModel::next_boundary) — so the
/// number of epochs is bounded by the number of tasks plus the number of
/// distinct model boundaries.
#[derive(Debug)]
pub struct Engine<M> {
    model: M,
}

impl<M: RateModel> Engine<M> {
    /// Creates an engine driving the given rate model.
    pub fn new(model: M) -> Self {
        Engine { model }
    }

    /// Consumes the engine, returning the rate model (useful when the model
    /// accumulates state across a run).
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs the workload to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if tasks remain but none can start,
    /// [`SimError::UnknownDependency`]/[`SimError::SelfDependency`] for
    /// malformed DAGs, and [`SimError::InvalidRate`]/[`SimError::InvalidPower`]
    /// if the rate model misbehaves.
    pub fn run(&mut self, workload: &Workload<M::Payload>) -> Result<SimTrace, SimError> {
        self.run_observed(workload, &mut NullObserver)
    }

    /// Runs the workload to completion, driving `obs` through every task
    /// start/end and epoch (see [`EngineObserver`]).
    ///
    /// [`run`](Engine::run) is this with the [`NullObserver`], whose
    /// `ENABLED = false` compiles the instrumentation away — observed and
    /// unobserved runs produce identical traces.
    ///
    /// # Errors
    ///
    /// As for [`run`](Engine::run).
    pub fn run_observed<O: EngineObserver>(
        &mut self,
        workload: &Workload<M::Payload>,
        obs: &mut O,
    ) -> Result<SimTrace, SimError> {
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut arena) => self.run_observed_in(workload, obs, &mut arena),
            // A rate model or observer that itself runs an engine would find
            // the thread-local arena busy; give the nested run a fresh one.
            Err(_) => self.run_observed_in(workload, obs, &mut SimArena::new()),
        })
    }

    /// [`run_observed`](Engine::run_observed) with an explicit [`SimArena`]:
    /// the caller controls scratch reuse — benchmarks and allocation tests
    /// use this to compare cold (fresh arena each run) against warm (one
    /// arena across runs) cost.
    ///
    /// # Errors
    ///
    /// As for [`run`](Engine::run).
    pub fn run_observed_in<O: EngineObserver>(
        &mut self,
        workload: &Workload<M::Payload>,
        obs: &mut O,
        arena: &mut SimArena,
    ) -> Result<SimTrace, SimError> {
        workload.validate()?;

        let n = workload.len();
        let n_gpus = workload.n_gpus();
        let n_queues = n_gpus * 2;
        let tasks = workload.tasks();

        arena.reset(workload);
        let SimArena {
            deps_left,
            dep_off,
            dep_edges,
            queue_off,
            queue_tasks,
            queue_head,
            status,
            remaining,
            start,
            end,
            coactive,
            running,
            rates,
            power,
            counters,
            stream_busy,
            ..
        } = arena;

        let mut gpus: Vec<GpuActivity> = vec![GpuActivity::default(); n_gpus];
        // Task views borrow the workload, so they cannot live in the arena;
        // one allocation per run, cleared and rebuilt each epoch.
        let mut views: Vec<RunningTask<'_, M::Payload>> = Vec::with_capacity(n);

        let mut now = SimTime::ZERO;
        let mut done = 0usize;

        while done < n {
            // Promote every task that is at the head of all its queues with
            // satisfied dependencies.
            let mut promoted = true;
            while promoted {
                promoted = false;
                for q in 0..n_queues {
                    let head_at = queue_head[q];
                    if head_at >= queue_off[q + 1] {
                        continue;
                    }
                    let head = queue_tasks[head_at as usize];
                    if status[head.index()] != Status::Pending || deps_left[head.index()] != 0 {
                        continue;
                    }
                    let spec = &tasks[head.index()];
                    let ready = spec.participants.iter().all(|g| {
                        let pq = g.index() * 2 + spec.stream.index();
                        let at = queue_head[pq];
                        at < queue_off[pq + 1] && queue_tasks[at as usize] == head
                    });
                    if ready {
                        status[head.index()] = Status::Running;
                        start[head.index()] = now;
                        running.push(head);
                        promoted = true;
                        if O::ENABLED {
                            obs.on_task_start(
                                now.as_secs(),
                                head,
                                &spec.label,
                                &spec.participants,
                                spec.stream,
                            );
                        }
                    }
                }
            }
            running.sort_unstable();

            if running.is_empty() {
                let stuck: Vec<TaskId> = (0..n)
                    .filter(|&i| status[i] != Status::Done)
                    .map(|i| TaskId(i as u32))
                    .collect();
                return Err(SimError::Deadlock { at: now, stuck });
            }

            // Ask the model for rates and power.
            views.clear();
            views.extend(running.iter().map(|&id| {
                let spec = &tasks[id.index()];
                RunningTask {
                    id,
                    label: &spec.label,
                    participants: &spec.participants,
                    stream: spec.stream,
                    remaining: remaining[id.index()],
                    payload: &spec.payload,
                }
            }));
            rates.clear();
            rates.resize(running.len(), 0.0);
            power.clear();
            power.resize(n_gpus, 0.0);
            self.model
                .assign_rates_at(now.as_secs(), &views, rates, power);

            for (i, &rate) in rates.iter().enumerate() {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(SimError::InvalidRate {
                        task: running[i],
                        rate,
                    });
                }
            }
            for (g, &watts) in power.iter().enumerate() {
                if !(watts.is_finite() && watts >= 0.0) {
                    return Err(SimError::InvalidPower { gpu: g, watts });
                }
            }

            // Advance to the earliest completion.
            let mut dt = f64::INFINITY;
            let mut argmin = 0usize;
            for (i, &id) in running.iter().enumerate() {
                let t = remaining[id.index()] / rates[i];
                if t < dt {
                    dt = t;
                    argmin = i;
                }
            }
            debug_assert!(dt.is_finite());

            // A time-varying model may change rates before the earliest
            // completion; clamp the epoch to the model's next boundary and
            // re-solve there instead of retiring anything. Boundaries at or
            // before `now` (within floating-point slack) are stale and
            // ignored, which keeps a model that repeats an old boundary from
            // stalling the loop.
            let mut completes = true;
            if let Some(boundary) = self.model.next_boundary(now.as_secs()) {
                let until = boundary - now.as_secs();
                let eps = 1e-12f64.max(now.as_secs() * 1e-12);
                if until > eps && until < dt {
                    dt = until;
                    completes = false;
                }
            }

            // Per-device stream occupancy during this epoch.
            for busy in stream_busy.iter_mut() {
                *busy = [false; 2];
            }
            for &id in running.iter() {
                let spec = &tasks[id.index()];
                for gpu in &spec.participants {
                    stream_busy[gpu.index()][spec.stream.index()] = true;
                }
            }

            let epoch = SimTime::from_secs(dt);
            let epoch_end = now + epoch;

            if O::ENABLED {
                counters.clear();
                for (g, &watts) in power.iter().enumerate() {
                    let mut c = self.model.counters(g);
                    c.power_w = watts;
                    counters.push(c);
                }
                obs.on_epoch(now.as_secs(), epoch_end.as_secs(), counters);
            }

            for (g, busy) in stream_busy.iter().enumerate() {
                for s in StreamKind::ALL {
                    if busy[s.index()] {
                        gpus[g].busy[s.index()] += epoch;
                    }
                }
                if busy[0] && busy[1] {
                    push_window(&mut gpus[g].overlap_windows, now, epoch_end);
                }
                push_power(&mut gpus[g].power, now, epoch_end, power[g]);
            }

            for (i, &id) in running.iter().enumerate() {
                let spec = &tasks[id.index()];
                let other_busy = spec
                    .participants
                    .iter()
                    .any(|g| stream_busy[g.index()][spec.stream.other().index()]);
                if other_busy {
                    coactive[id.index()] += epoch;
                }
                remaining[id.index()] = (remaining[id.index()] - rates[i] * dt).max(0.0);
                if completes && i == argmin {
                    remaining[id.index()] = 0.0;
                }
            }

            now = epoch_end;

            // Retire completed tasks in place (`retain` visits in order and
            // compacts without allocating).
            running.retain(|&id| {
                if remaining[id.index()] > REMAINING_TOLERANCE {
                    return true;
                }
                status[id.index()] = Status::Done;
                end[id.index()] = now;
                done += 1;
                let spec = &tasks[id.index()];
                if O::ENABLED {
                    obs.on_task_end(
                        now.as_secs(),
                        id,
                        &spec.label,
                        &spec.participants,
                        spec.stream,
                    );
                }
                for gpu in &spec.participants {
                    let q = gpu.index() * 2 + spec.stream.index();
                    debug_assert_eq!(queue_tasks[queue_head[q] as usize], id);
                    queue_head[q] += 1;
                }
                let lo = dep_off[id.index()] as usize;
                let hi = dep_off[id.index() + 1] as usize;
                for dep in &dep_edges[lo..hi] {
                    deps_left[dep.index()] -= 1;
                }
                false
            });
        }

        let records = (0..n)
            .map(|i| {
                let spec = &tasks[i];
                TaskRecord {
                    id: TaskId(i as u32),
                    label: spec.label.clone(),
                    participants: spec.participants.clone(),
                    stream: spec.stream,
                    start: start[i],
                    end: end[i],
                    coactive: coactive[i],
                }
            })
            .collect();

        crate::metrics::sim_metrics().engine_runs.inc();
        Ok(SimTrace::new(records, gpus, now))
    }
}

/// Appends `[start, end)` to the window list, merging with the previous
/// window when contiguous.
fn push_window(windows: &mut Vec<Window>, start: SimTime, end: SimTime) {
    if let Some(last) = windows.last_mut() {
        if (last.end.as_secs() - start.as_secs()).abs() < 1e-12 {
            last.end = end;
            return;
        }
    }
    windows.push(Window { start, end });
}

/// Appends a power segment, merging with the previous segment when the draw
/// is identical and the windows are contiguous.
fn push_power(segments: &mut Vec<PowerSegment>, start: SimTime, end: SimTime, watts: f64) {
    if let Some(last) = segments.last_mut() {
        let contiguous = (last.window.end.as_secs() - start.as_secs()).abs() < 1e-12;
        if contiguous && (last.watts - watts).abs() < 1e-9 {
            last.window.end = end;
            return;
        }
    }
    segments.push(PowerSegment {
        window: Window { start, end },
        watts,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::ConstantRate;
    use crate::{GpuId, TaskSpec};

    fn unit_workload() -> Workload<()> {
        Workload::new(2)
    }

    #[test]
    fn empty_workload_completes_immediately() {
        let trace = Engine::new(ConstantRate::default())
            .run(&unit_workload())
            .unwrap();
        assert_eq!(trace.makespan(), SimTime::ZERO);
        assert!(trace.records().is_empty());
    }

    #[test]
    fn stream_order_serializes_same_stream_tasks() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::compute("b", GpuId(0), ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        assert!((trace.makespan().as_secs() - 2.0).abs() < 1e-9);
        let a = trace.record(TaskId(0)).unwrap();
        let b = trace.record(TaskId(1)).unwrap();
        assert!(b.start >= a.end);
    }

    #[test]
    fn different_streams_run_concurrently_and_count_coactive_time() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("k", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        assert!((trace.makespan().as_secs() - 1.0).abs() < 1e-9);
        for record in trace.records() {
            assert!((record.coactive.as_secs() - 1.0).abs() < 1e-9);
        }
        assert!((trace.gpu(GpuId(0)).overlap_time().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tasks_on_different_gpus_run_concurrently() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::compute("b", GpuId(1), ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        assert!((trace.makespan().as_secs() - 1.0).abs() < 1e-9);
        // Different devices: no co-activity.
        assert_eq!(trace.records()[0].coactive, SimTime::ZERO);
    }

    #[test]
    fn dependencies_are_honored_across_streams() {
        let mut w = unit_workload();
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()).after(a));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        assert!((trace.makespan().as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(trace.gpu(GpuId(0)).overlap_time(), SimTime::ZERO);
    }

    #[test]
    fn collective_rendezvous_waits_for_all_ranks() {
        let mut w = unit_workload();
        // gpu0 computes 2 tasks before reaching the collective; gpu1 none.
        let a = w.push(TaskSpec::compute("a0", GpuId(0), ()));
        let b = w.push(TaskSpec::compute("a1", GpuId(0), ()).after(a));
        let ar = w.push(TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], ()).after(b));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let rec = trace.record(ar).unwrap();
        assert!((rec.start.as_secs() - 2.0).abs() < 1e-9);
        assert!((trace.makespan().as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn dependency_cycle_is_reported_as_deadlock() {
        let mut w = unit_workload();
        // b (id 1) depends on c (id 2); c depends on b via stream order is
        // not expressible, so use explicit forward dependency: a valid
        // workload where task 0 depends on task 1 and task 1 on task 0
        // cannot be built with `after` (ids are sequential), so emulate a
        // cross-stream deadlock instead: comm task first in queue waits on a
        // compute task that is behind another comm task.
        let mut c1 = TaskSpec::comm("c1", GpuId(0), ());
        c1.deps.push(TaskId(1)); // forward reference to k, pushed next
        w.push(c1);
        w.push(TaskSpec::compute("k", GpuId(0), ()).after(TaskId(2)));
        w.push(TaskSpec::comm("c2", GpuId(0), ()));
        // c2 is behind c1 in the comm queue; c1 waits on k; k waits on c2.
        let err = Engine::new(ConstantRate::default()).run(&w).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn invalid_rate_is_reported() {
        struct Broken;
        impl RateModel for Broken {
            type Payload = ();
            fn assign_rates(
                &mut self,
                _running: &[RunningTask<'_, ()>],
                _rates: &mut [f64],
                _power: &mut [f64],
            ) {
                // leaves rates at 0.0
            }
        }
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        let err = Engine::new(Broken).run(&w).unwrap_err();
        assert!(matches!(err, SimError::InvalidRate { rate, .. } if rate == 0.0));
    }

    /// Rate 1.0 before `switch_at`, `late_rate` after; boundary reported at
    /// `switch_at`. Exercises the fault-injection hook points.
    struct SteppedRate {
        switch_at: f64,
        late_rate: f64,
    }

    impl RateModel for SteppedRate {
        type Payload = ();
        fn assign_rates(
            &mut self,
            _running: &[RunningTask<'_, ()>],
            _rates: &mut [f64],
            _power: &mut [f64],
        ) {
            unreachable!("engine must call assign_rates_at");
        }
        fn assign_rates_at(
            &mut self,
            now: f64,
            running: &[RunningTask<'_, ()>],
            rates: &mut [f64],
            _power: &mut [f64],
        ) {
            let rate = if now < self.switch_at {
                1.0
            } else {
                self.late_rate
            };
            for r in rates.iter_mut().take(running.len()) {
                *r = rate;
            }
        }
        fn next_boundary(&mut self, now: f64) -> Option<f64> {
            (now < self.switch_at).then_some(self.switch_at)
        }
    }

    #[test]
    fn model_boundary_splits_the_epoch_and_rates_are_requeried() {
        // One 1.0-unit task: rate 1.0 until t=0.4 (0.4 done), then rate 0.5
        // for the remaining 0.6 units -> finishes at 0.4 + 1.2 = 1.6 s.
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        let trace = Engine::new(SteppedRate {
            switch_at: 0.4,
            late_rate: 0.5,
        })
        .run(&w)
        .unwrap();
        assert!((trace.makespan().as_secs() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn boundary_beyond_completion_does_not_delay_retirement() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        let trace = Engine::new(SteppedRate {
            switch_at: 10.0,
            late_rate: 0.5,
        })
        .run(&w)
        .unwrap();
        assert!((trace.makespan().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stale_boundaries_are_ignored() {
        // Always reports a boundary at t=0; after the first epoch that is in
        // the past and must not stall the loop or block retirement.
        struct Stale;
        impl RateModel for Stale {
            type Payload = ();
            fn assign_rates(
                &mut self,
                running: &[RunningTask<'_, ()>],
                rates: &mut [f64],
                _power: &mut [f64],
            ) {
                for r in rates.iter_mut().take(running.len()) {
                    *r = 1.0;
                }
            }
            fn next_boundary(&mut self, _now: f64) -> Option<f64> {
                Some(0.0)
            }
        }
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::compute("b", GpuId(0), ()));
        let trace = Engine::new(Stale).run(&w).unwrap();
        assert!((trace.makespan().as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn power_segments_cover_the_busy_span_and_merge() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::compute("b", GpuId(0), ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let segs = &trace.gpu(GpuId(0)).power;
        assert_eq!(segs.len(), 1, "equal-power contiguous segments merge");
        assert!((segs[0].window.end.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(segs[0].watts, 100.0);
    }

    #[derive(Default)]
    struct Recording {
        events: Vec<String>,
        epoch_s: f64,
        epochs: usize,
    }

    impl crate::EngineObserver for Recording {
        fn on_task_start(
            &mut self,
            now_s: f64,
            _id: TaskId,
            label: &str,
            _participants: &[GpuId],
            _stream: StreamKind,
        ) {
            self.events.push(format!("start {label} @{now_s}"));
        }
        fn on_task_end(
            &mut self,
            now_s: f64,
            _id: TaskId,
            label: &str,
            _participants: &[GpuId],
            _stream: StreamKind,
        ) {
            self.events.push(format!("end {label} @{now_s}"));
        }
        fn on_epoch(&mut self, start_s: f64, end_s: f64, counters: &[crate::GpuCounters]) {
            assert_eq!(counters.len(), 2, "one counter set per device");
            self.epoch_s += end_s - start_s;
            self.epochs += 1;
        }
    }

    #[test]
    fn observer_sees_task_edges_and_epochs_covering_the_makespan() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::compute("b", GpuId(0), ()));
        let mut obs = Recording::default();
        let trace = Engine::new(ConstantRate::default())
            .run_observed(&w, &mut obs)
            .unwrap();
        assert_eq!(
            obs.events,
            vec!["start a @0", "end a @1", "start b @1", "end b @2"]
        );
        assert!((obs.epoch_s - trace.makespan().as_secs()).abs() < 1e-9);
        assert_eq!(obs.epochs, 2);
    }

    #[test]
    fn observed_and_unobserved_runs_produce_identical_traces() {
        let mut w = unit_workload();
        let a = w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()).after(a));
        w.push(TaskSpec::compute("b", GpuId(1), ()));
        let plain = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let mut obs = Recording::default();
        let observed = Engine::new(ConstantRate::default())
            .run_observed(&w, &mut obs)
            .unwrap();
        assert_eq!(plain.makespan(), observed.makespan());
        assert_eq!(plain.records().len(), observed.records().len());
        for (p, o) in plain.records().iter().zip(observed.records()) {
            assert_eq!(p.start, o.start);
            assert_eq!(p.end, o.end);
        }
        // Epoch counters carry the engine's power and the model default
        // clock, so the observer's integral matches the trace's.
        assert!(obs.epochs > 0);
    }

    #[test]
    fn busy_time_accumulates_per_stream() {
        let mut w = unit_workload();
        w.push(TaskSpec::compute("a", GpuId(0), ()));
        w.push(TaskSpec::comm("c", GpuId(0), ()));
        let trace = Engine::new(ConstantRate::default()).run(&w).unwrap();
        let activity = trace.gpu(GpuId(0));
        assert!((activity.busy_time(StreamKind::Compute).as_secs() - 1.0).abs() < 1e-9);
        assert!((activity.busy_time(StreamKind::Comm).as_secs() - 1.0).abs() < 1e-9);
    }
}
