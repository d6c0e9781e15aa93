//! Closed-form first-order estimates of FSDP iteration time.
//!
//! The simulator prices contention epoch by epoch; this module computes
//! what a back-of-envelope model (the kind the paper says distributed
//! frameworks implicitly assume: "constant computation and communication
//! latencies") predicts. It serves two purposes:
//!
//! * a **fast planner** — microseconds instead of milliseconds per
//!   configuration, useful for sweeping thousands of candidate setups;
//! * a **cross-check** — integration tests assert the simulator stays
//!   within a sane band of the closed form for the quantities the closed
//!   form can capture (isolated compute/comm totals, the sequential bound),
//!   and quantify exactly where the naive model breaks (the contention the
//!   paper characterizes).
//!
//! It also holds the executor side of the contention-free fast path (see
//! `docs/FASTPATH.md`): the one-pass schedule of an eligible workload at
//! solo prices, in full and lean form. A workload holds each distinct
//! payload once and its tasks name them by id, so each leg prices a
//! payload once, on the first task that runs it, into arrays indexed by
//! payload id (`SoloPrices` for durations and solo draws, `PowerMemo`
//! for co-resident pairs); every other task is an array read.

use crate::executor::{run_result_from_trace, LeanGpuStats, LeanRun, RunResult};
use crate::fastpath::Route;
use crate::Machine;
use olab_ccl::{lower, Algorithm, Collective};
use olab_gpu::{roofline, GpuSku};
use olab_models::memory::ActivationPolicy;
use olab_models::ops;
use olab_net::Topology;
use olab_parallel::fsdp::FsdpPlan;
use olab_parallel::Op;
use olab_power::{PowerFold, PowerStats, PowerTrace};
use olab_sim::{
    GpuActivity, PayloadId, SimTime, SimTrace, StreamKind, StreamTotals, TaskId, TaskRecord,
    TaskSpec, Workload,
};

/// First-order estimates for one FSDP iteration, per GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEstimate {
    /// Sum of isolated compute-kernel durations, seconds.
    pub compute_s: f64,
    /// Sum of isolated collective durations, seconds.
    pub comm_s: f64,
    /// Sequential execution estimate: compute + comm.
    pub e2e_sequential_s: f64,
    /// Contention-free overlap estimate: compute plus the comm that cannot
    /// hide (the first forward all-gather, plus any comm overhang beyond
    /// the compute it overlaps).
    pub e2e_ideal_s: f64,
}

impl AnalyticEstimate {
    /// Communication-to-computation ratio.
    pub fn comm_ratio(&self) -> f64 {
        if self.compute_s > 0.0 {
            self.comm_s / self.compute_s
        } else {
            0.0
        }
    }
}

/// Estimates one FSDP iteration analytically.
pub fn estimate_fsdp(plan: &FsdpPlan, sku: &GpuSku, topo: &Topology) -> AnalyticEstimate {
    let layer = ops::layer_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let head = ops::head_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let emb = ops::embedding_kernels(&plan.model, plan.batch_per_rank, plan.seq);
    let layers = f64::from(plan.model.layers);
    let steps = f64::from(plan.grad_accum_steps);

    let kernel_time = |kernels: &[olab_gpu::KernelKind]| -> f64 {
        roofline::isolated_total_duration(kernels, sku, plan.precision, plan.datapath, 1.0)
    };

    let fwd = kernel_time(&layer.forward);
    let bwd = match plan.activation_policy {
        ActivationPolicy::Full => kernel_time(&layer.backward),
        ActivationPolicy::Recompute => kernel_time(&layer.forward) + kernel_time(&layer.backward),
    };
    let edge = kernel_time(&emb) + kernel_time(&head.forward) + kernel_time(&head.backward);
    let adam = roofline::isolated_duration(
        &ops::optimizer_kernel(plan.model.param_count() / plan.ranks as u64),
        sku,
        plan.precision,
        plan.datapath,
        1.0,
    );
    let accum_overhead = if plan.grad_accum_steps > 1 {
        (steps - 1.0)
            * layers
            * roofline::isolated_duration(
                &olab_gpu::KernelKind::Elementwise {
                    elems: plan.model.layer_params(),
                    flops_per_elem: 1,
                    streams: 3,
                },
                sku,
                plan.precision,
                plan.datapath,
                1.0,
            )
    } else {
        0.0
    };
    let compute_s = steps * (layers * (fwd + bwd) + edge) + adam + accum_overhead;

    let group: Vec<olab_sim::GpuId> = (0..plan.ranks as u16).map(olab_sim::GpuId).collect();
    let layer_bytes = plan.layer_bytes();
    let ag = lower(
        &Collective::all_gather(layer_bytes, group.clone()),
        Algorithm::auto(olab_ccl::CollectiveKind::AllGather, layer_bytes, plan.ranks),
        sku,
        topo,
        plan.precision,
    )
    .isolated_duration_s();
    let rs = lower(
        &Collective::reduce_scatter(layer_bytes, group),
        Algorithm::auto(
            olab_ccl::CollectiveKind::ReduceScatter,
            layer_bytes,
            plan.ranks,
        ),
        sku,
        topo,
        plan.precision,
    )
    .isolated_duration_s();
    // Per micro-step: forward + backward all-gathers; final step adds the
    // reduce-scatters.
    let comm_s = steps * layers * 2.0 * ag + layers * rs;

    // Ideal overlap: forward comm hides under forward compute (except the
    // un-prefetchable first gather), backward likewise.
    let fwd_comm = layers * ag;
    let bwd_comm = layers * (ag + rs / steps.max(1.0));
    let fwd_exposed = ag + (fwd_comm - layers * fwd).max(0.0);
    let bwd_exposed = (bwd_comm - layers * bwd).max(0.0);
    let e2e_ideal_s = compute_s + steps * (fwd_exposed + bwd_exposed);

    AnalyticEstimate {
        compute_s,
        comm_s,
        e2e_sequential_s: compute_s + comm_s,
        e2e_ideal_s,
    }
}

/// The speculative solo-priced schedule of one fast-path-eligible cell:
/// task intervals and per-(GPU, stream) interval lists ("lanes"), from
/// which both output shapes — the full [`RunResult`] of [`execute_fast`]
/// and the scalar-only [`LeanRun`](crate::LeanRun) of
/// [`execute_fast_lean`] — price power.
struct FastSchedule<'w> {
    tasks: &'w [TaskSpec<Op>],
    start: Vec<f64>,
    end: Vec<f64>,
    lanes: Vec<[Vec<usize>; 2]>,
    makespan: f64,
}

/// Solo prices per payload id. A workload holds each distinct payload
/// once, and an eligible cell has no per-GPU state that could tell two
/// tasks of one payload apart — the caller has excluded jitter and
/// transient frequency caps, so `Machine::gpu_epoch` is a pure function of
/// the payload alone. Each payload a leg runs is therefore priced once, on
/// the first task that names it, and every repeat is an array read.
struct SoloPrices<'w> {
    payloads: &'w [Op],
    /// Solo duration per payload id, NaN until priced.
    duration: Vec<f64>,
}

impl<'w> SoloPrices<'w> {
    fn new(workload: &'w Workload<Op>) -> Self {
        SoloPrices {
            payloads: workload.payloads(),
            duration: vec![f64::NAN; workload.payloads().len()],
        }
    }

    /// The solo duration of `task`'s payload, or `None` when the task
    /// disqualifies the cell: a payload kind disagreeing with its stream
    /// (the engine prices by payload while the closed form walks streams)
    /// or a non-finite/non-positive solo duration (the event loop then
    /// produces the proper rate error).
    #[inline]
    fn duration(&mut self, task: &TaskSpec<Op>, machine: &Machine) -> Option<f64> {
        let op = &self.payloads[task.payload.index()];
        if task.stream != stream_of(op) {
            return None;
        }
        let d = &mut self.duration[task.payload.index()];
        if d.is_nan() {
            *d = match op {
                Op::Compute(c) => machine.solo_compute_duration(task.participants[0].index(), c),
                Op::Comm(op) => machine.solo_comm_duration(&task.participants, op),
            };
        }
        (d.is_finite() && *d > 0.0).then_some(*d)
    }
}

/// The stream a payload runs on.
#[inline]
fn stream_of(op: &Op) -> StreamKind {
    match op {
        Op::Compute(_) => StreamKind::Compute,
        Op::Comm(_) => StreamKind::Comm,
    }
}

/// The draw of each co-resident (kernel, collective) pair, priced on
/// first use, in a dense matrix over the payloads of each kind plus
/// "none": (kernels + 1) × (collectives + 1), NaN until priced. Like the
/// durations, `segment_power_w` has no per-GPU input on an eligible
/// machine, so the memo is shared across GPUs.
struct PowerMemo<'w> {
    payloads: &'w [Op],
    /// Each payload's index among the payloads of its kind.
    slot: Vec<usize>,
    kernels: usize,
    comms: usize,
    watts: Vec<f64>,
}

impl<'w> PowerMemo<'w> {
    fn new(payloads: &'w [Op]) -> Self {
        let (mut kernels, mut comms) = (0, 0);
        let slot = payloads
            .iter()
            .map(|op| {
                let n = match op {
                    Op::Compute(_) => &mut kernels,
                    Op::Comm(_) => &mut comms,
                };
                *n += 1;
                *n - 1
            })
            .collect();
        PowerMemo {
            payloads,
            slot,
            kernels,
            comms,
            watts: vec![f64::NAN; (kernels + 1) * (comms + 1)],
        }
    }

    /// The draw of GPU `g` running `kernel` and `comm` (either may be
    /// absent).
    fn watts(
        &mut self,
        machine: &Machine,
        g: usize,
        kernel: Option<PayloadId>,
        comm: Option<PayloadId>,
    ) -> f64 {
        let k = kernel.map_or(self.kernels, |id| self.slot[id.index()]);
        let c = comm.map_or(self.comms, |id| self.slot[id.index()]);
        let slot = &mut self.watts[k * (self.comms + 1) + c];
        if slot.is_nan() {
            let kernel = kernel.and_then(|id| self.payloads[id.index()].as_compute());
            let comm = comm.and_then(|id| self.payloads[id.index()].as_comm());
            *slot = machine.segment_power_w(g, kernel, comm);
        }
        *slot
    }
}

/// When task `i` becomes ready at solo prices: the latest end among its
/// dependencies, then among its queue predecessors on every participant's
/// stream — or `None` for a dependency that does not point strictly
/// backward in push order. Every schedule pass of the fast path starts
/// its tasks here, so they all do the same arithmetic in the same order.
#[inline]
fn ready_at(task: &TaskSpec<Op>, i: usize, end: &[f64], queue_last: &[f64]) -> Option<f64> {
    let mut t = 0.0f64;
    for dep in &task.deps {
        if dep.index() >= i {
            return None;
        }
        t = t.max(end[dep.index()]);
    }
    let si = task.stream.index();
    for g in &task.participants {
        t = t.max(queue_last[g.index() * 2 + si]);
    }
    Some(t)
}

/// Whether the interval `[t, e)` shares positive measure with an interval
/// of `lane` (task ids into `start`/`end`). A lane's queue serializes its
/// tasks, so its ends never decrease: only the suffix ending after `t`
/// can intersect, and the scan stops at the first earlier end. Each
/// intersecting pair of a schedule is caught when its later-pushed member
/// is pushed, so checking every task against the other stream's lane on
/// each participant finds a co-residency exactly when one exists.
#[inline]
fn overlaps_lane(lane: &[usize], start: &[f64], end: &[f64], t: f64, e: f64) -> bool {
    lane.iter()
        .rev()
        .take_while(|&&j| end[j] > t)
        .any(|&j| end[j].min(e) > start[j].max(t))
}

/// Builds the one-pass speculative schedule at solo prices, or `None` when
/// the cell needs the event loop after all:
///
/// * a dependency that does not point strictly backward in push order —
///   this also covers self-dependencies and out-of-range indices, so the
///   event-loop fallback reproduces the exact [`olab_sim::SimError`] a
///   malformed workload deserves;
/// * a payload kind disagreeing with its stream (the engine prices by
///   payload while the closed form walks streams);
/// * a non-finite or non-positive solo duration (the event loop then
///   produces the proper rate error);
/// * on a **contended** machine, any compute/comm co-residency in the
///   resulting schedule: co-resident pairs are priced differently there —
///   exactly the paper's phenomenon — and only the event loop prices that
///   epoch by epoch. On an uncontended machine overlap is fine: rates are
///   co-residency independent. The check runs as each task is pushed, so
///   a schedule that overlaps stops at its first co-resident task (see
///   [`overlaps_lane`]).
///
/// The engine with constant rates admits this closed form: a task starts at
/// the max of (a) its queue predecessors' ends on every participant stream
/// and (b) its dependencies' ends, and runs for its solo duration — one
/// O(n) pass in push order. Durations come from the *same* per-GPU pricing
/// the event loop uses (`Machine::gpu_epoch` via `solo_compute_duration` /
/// `solo_comm_duration`), so agreement is by construction, not by
/// re-derivation. Timelines repeat a handful of distinct kernel shapes and
/// collectives thousands of times (one per layer per step), and each is
/// priced once per leg ([`SoloPrices`]).
fn build_schedule<'w>(workload: &'w Workload<Op>, machine: &Machine) -> Option<FastSchedule<'w>> {
    debug_assert!(
        !machine.has_jitter() && !machine.has_gpu_freq_caps(),
        "build_schedule requires a deterministic machine"
    );
    let n = workload.len();
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();

    let mut prices = SoloPrices::new(workload);

    // The per-(GPU, stream) lanes fall out of the same pass: each queue
    // serializes its tasks, so push order is start order within a lane.
    let mut lanes: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; n_gpus];
    let mut start = vec![0.0f64; n];
    let mut end = vec![0.0f64; n];
    let mut queue_last = vec![0.0f64; n_gpus * 2];
    let contended = machine.is_contended();
    for (i, task) in tasks.iter().enumerate() {
        let t = ready_at(task, i, &end, &queue_last)?;
        let e = t + prices.duration(task, machine)?;
        start[i] = t;
        end[i] = e;
        let (si, oi) = (task.stream.index(), task.stream.other().index());
        for g in &task.participants {
            let lane = &mut lanes[g.index()];
            // On a contended machine any compute/comm co-residency
            // invalidates solo pricing — fall back to the event loop.
            if contended && overlaps_lane(&lane[oi], &start, &end, t, e) {
                return None;
            }
            queue_last[g.index() * 2 + si] = e;
            lane[si].push(i);
        }
    }
    let makespan = end.iter().copied().fold(0.0f64, f64::max);
    Some(FastSchedule {
        tasks,
        start,
        end,
        lanes,
        makespan,
    })
}

/// Sweeps GPU `g`'s elementary power segments — every interval edge plus
/// `[0, makespan)` coverage — pricing each with its co-resident set exactly
/// as the engine prices an epoch, and feeding each `(start, end, watts)` to
/// `emit`. Each lane's edge stream (start, end, start, end, …) is already
/// non-decreasing — the queue serializes its tasks — so the segment
/// boundaries come from a two-pointer merge of the two streams,
/// deduplicated on the fly, instead of a sort.
fn sweep_power_segments(
    s: &FastSchedule<'_>,
    machine: &Machine,
    g: usize,
    bounds: &mut Vec<f64>,
    power_memo: &mut PowerMemo<'_>,
    mut emit: impl FnMut(f64, f64, f64),
) {
    let compute_lane = &s.lanes[g][0];
    let comm_lane = &s.lanes[g][1];
    bounds.clear();
    bounds.push(0.0);
    let edge = |lane: &[usize], k: usize| {
        let t = lane[k >> 1];
        if k & 1 == 0 {
            s.start[t]
        } else {
            s.end[t]
        }
    };
    let (mut ei, mut ej) = (0usize, 0usize);
    let (ni, nj) = (compute_lane.len() * 2, comm_lane.len() * 2);
    while ei < ni || ej < nj {
        let a = if ei < ni {
            edge(compute_lane, ei)
        } else {
            f64::INFINITY
        };
        let b = if ej < nj {
            edge(comm_lane, ej)
        } else {
            f64::INFINITY
        };
        let v = if a <= b {
            ei += 1;
            a
        } else {
            ej += 1;
            b
        };
        if v > *bounds.last().expect("bounds is non-empty") {
            bounds.push(v);
        }
    }
    if s.makespan > *bounds.last().expect("bounds is non-empty") {
        bounds.push(s.makespan);
    }
    let (mut pi, mut pj) = (0usize, 0usize);
    for w in bounds.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        if t1 <= t0 {
            continue;
        }
        while pi < compute_lane.len() && s.end[compute_lane[pi]] <= t0 {
            pi += 1;
        }
        while pj < comm_lane.len() && s.end[comm_lane[pj]] <= t0 {
            pj += 1;
        }
        let kernel = (pi < compute_lane.len() && s.start[compute_lane[pi]] <= t0)
            .then(|| s.tasks[compute_lane[pi]].payload);
        let comm = (pj < comm_lane.len() && s.start[comm_lane[pj]] <= t0)
            .then(|| s.tasks[comm_lane[pj]].payload);
        emit(t0, t1, power_memo.watts(machine, g, kernel, comm));
    }
}

/// Feeds GPU `g`'s overlap intervals — the intersections of its two
/// lanes, in time order — to `emit`; [`GpuActivity::push_overlap`] merges
/// them into the engine's windows.
fn lane_intersections(s: &FastSchedule<'_>, g: usize, mut emit: impl FnMut(SimTime, SimTime)) {
    let [compute_lane, comm_lane] = &s.lanes[g];
    let (mut i, mut j) = (0, 0);
    while i < compute_lane.len() && j < comm_lane.len() {
        let (a, b) = (compute_lane[i], comm_lane[j]);
        let lo = s.start[a].max(s.start[b]);
        let hi = s.end[a].min(s.end[b]);
        if hi > lo {
            emit(SimTime::from_secs(lo), SimTime::from_secs(hi));
        }
        if s.end[a] <= s.end[b] {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Co-active time per task: measure of the union, over its participants,
/// of other-stream busy intervals clipped to the task's own interval.
/// Any such clip is by definition inside one of the participant's overlap
/// windows, so tasks whose participants all have none (`has_overlap[g] ==
/// false` — every task of a sequential schedule) skip the lane scans
/// outright.
fn coactive_times(s: &FastSchedule<'_>, has_overlap: &[bool]) -> Vec<f64> {
    let tasks = s.tasks;
    let mut coactive = vec![0.0f64; tasks.len()];
    let mut clips: Vec<(f64, f64)> = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        if task.participants.iter().all(|g| !has_overlap[g.index()]) {
            continue;
        }
        let other = task.stream.other().index();
        clips.clear();
        for g in &task.participants {
            let lane = &s.lanes[g.index()][other];
            let from = lane.partition_point(|&j| s.end[j] <= s.start[i]);
            for &j in &lane[from..] {
                if s.start[j] >= s.end[i] {
                    break;
                }
                let lo = s.start[j].max(s.start[i]);
                let hi = s.end[j].min(s.end[i]);
                if hi > lo {
                    clips.push((lo, hi));
                }
            }
        }
        if clips.is_empty() {
            continue;
        }
        clips.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut cur_lo, mut cur_hi) = clips[0];
        let mut total = 0.0;
        for &(lo, hi) in &clips[1..] {
            if lo > cur_hi {
                total += cur_hi - cur_lo;
                (cur_lo, cur_hi) = (lo, hi);
            } else {
                cur_hi = cur_hi.max(hi);
            }
        }
        total += cur_hi - cur_lo;
        coactive[i] = total;
    }
    coactive
}

/// Executes a fast-path-eligible workload analytically, producing the same
/// [`RunResult`] the event loop would (to floating-point rounding), or
/// `None` if the schedule turns out to need the event loop after all (see
/// [`build_schedule`] for the bail conditions — including malformed
/// workloads, whose fallback run reproduces the exact engine error).
///
/// Power segments are reconstructed with the full co-resident set, so the
/// per-GPU traces match the engine's segment by segment.
pub(crate) fn execute_fast(workload: &Workload<Op>, machine: &Machine) -> Option<RunResult> {
    let n = workload.len();
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();

    if n == 0 {
        let trace = SimTrace::from_parts(
            Vec::new(),
            vec![GpuActivity::default(); n_gpus],
            SimTime::ZERO,
        );
        return Some(run_result_from_trace(trace, n_gpus, Route::FastPath));
    }

    let s = build_schedule(workload, machine)?;

    // Per-GPU activity: busy time, overlap windows, power segments.
    let mut power_memo = PowerMemo::new(workload.payloads());
    let mut gpus: Vec<GpuActivity> = vec![GpuActivity::default(); n_gpus];
    let mut bounds: Vec<f64> = Vec::new();
    for (g, activity) in gpus.iter_mut().enumerate() {
        for (lane_ix, lane) in s.lanes[g].iter().enumerate() {
            let total: f64 = lane.iter().map(|&i| s.end[i] - s.start[i]).sum();
            activity.busy[lane_ix] = SimTime::from_secs(total);
        }
        lane_intersections(&s, g, |lo, hi| activity.push_overlap(lo, hi));
        sweep_power_segments(&s, machine, g, &mut bounds, &mut power_memo, |t0, t1, w| {
            activity.push_power(SimTime::from_secs(t0), SimTime::from_secs(t1), w);
        });
    }

    let has_overlap: Vec<bool> = gpus.iter().map(|a| !a.overlap_windows.is_empty()).collect();
    let coactive = coactive_times(&s, &has_overlap);

    let records: Vec<TaskRecord> = tasks
        .iter()
        .enumerate()
        .map(|(i, spec)| TaskRecord {
            id: TaskId(i as u32),
            label: spec.label.clone(),
            participants: spec.participants.clone(),
            stream: spec.stream,
            start: SimTime::from_secs(s.start[i]),
            end: SimTime::from_secs(s.end[i]),
            coactive: SimTime::from_secs(coactive[i]),
        })
        .collect();
    let trace = SimTrace::from_parts(records, gpus, SimTime::from_secs(s.makespan));
    Some(run_result_from_trace(trace, n_gpus, Route::FastPath))
}

/// Executes a fast-path-eligible workload analytically, producing only the
/// scalar metrics of [`LeanRun`] — no task records and no trace — and,
/// with `keep_gpu0`, GPU 0's power trace. This is where the
/// closed form's asymmetry over the event loop is largest: the engine
/// *must* run every epoch before any statistic exists, while the closed
/// form integrates the same quantities directly. Returns `None` exactly
/// when [`execute_fast`] would (the bail conditions are the same).
///
/// The result equals [`LeanRun::summarize`](crate::LeanRun::summarize) of
/// [`execute_fast`] bit for bit: every sum adds the same terms in the same
/// order as the full path's statistics derivation. Task time is summed as
/// `end − start` per task in task order, and power goes through
/// [`PowerFold`], which merges segments by the engine's rule and folds
/// them exactly as [`olab_power::PowerStats`] does over the full trace.
///
/// Two regimes:
///
/// * **no cross-stream co-residency** (every sequential schedule): one
///   fused pass ([`single_pass`]) computes the schedule and every scalar
///   together;
/// * **overlapping streams** (uncontended machines only), or a kept
///   trace: the full schedule with its per-(GPU, stream) lanes
///   ([`lean_from_lanes`]).
pub(crate) fn execute_fast_lean(
    workload: &Workload<Op>,
    machine: &Machine,
    keep_gpu0: bool,
) -> Option<(LeanRun, Option<PowerTrace>)> {
    if !keep_gpu0 {
        if let SinglePass::Done(run) = single_pass(workload, machine)? {
            return Some((run, None));
        }
    }
    lean_from_lanes(workload, machine, keep_gpu0)
}

/// The makespan of a fast-path-eligible schedule on an **uncontended**
/// machine — the one number the ideal leg reports — or `None` where
/// [`build_schedule`] bails. This is [`build_schedule`]'s task loop and
/// nothing else: the same solo prices, the same [`ready_at`] and
/// `t + duration` arithmetic in the same order, and the same fold over the
/// task ends, so it equals the `e2e_s` of [`execute_fast_lean`] bit for
/// bit. It builds no lanes, power segments, co-activity or per-GPU
/// statistics. (Uncontended, because co-residency is only checkable
/// against lanes.)
pub(crate) fn fast_makespan(workload: &Workload<Op>, machine: &Machine) -> Option<f64> {
    debug_assert!(
        !machine.is_contended() && !machine.has_jitter() && !machine.has_gpu_freq_caps(),
        "fast_makespan requires an uncontended deterministic machine"
    );
    let tasks = workload.tasks();
    let mut prices = SoloPrices::new(workload);
    let mut end = vec![0.0f64; tasks.len()];
    let mut queue_last = vec![0.0f64; workload.n_gpus() * 2];
    for (i, task) in tasks.iter().enumerate() {
        let t = ready_at(task, i, &end, &queue_last)?;
        end[i] = t + prices.duration(task, machine)?;
        let si = task.stream.index();
        for g in &task.participants {
            queue_last[g.index() * 2 + si] = end[i];
        }
    }
    Some(end.iter().copied().fold(0.0f64, f64::max))
}

/// Outcome of [`single_pass`] on a fast-path-eligible schedule.
enum SinglePass {
    /// The schedule has no cross-stream co-residency: here is its result.
    Done(LeanRun),
    /// Compute and communication may overlap somewhere: use the lanes.
    Overlapping,
}

/// The fused single pass for schedules without cross-stream co-residency:
/// the schedule and its scalar statistics together, with no lanes and no
/// per-task id tables, or `None` where [`build_schedule`] bails.
///
/// Co-residency is detected on the fly: a task starting before the other
/// stream's latest end on any participant *may* overlap an earlier
/// interval (it may also land in a gap), and any actual overlap pair is
/// caught this way on its later-pushed member — so finishing the pass
/// proves the schedule has no co-residency on any GPU. Then every task
/// starts after all earlier-pushed tasks on its GPUs have ended, so each
/// GPU's tasks arrive in time order and its elementary power segments —
/// idle gap, task, idle gap, … — are exactly those of the boundary sweep;
/// they stream straight into the GPU's fold. Windows and co-activity are
/// zero.
fn single_pass(workload: &Workload<Op>, machine: &Machine) -> Option<SinglePass> {
    let n = workload.len();
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();

    let mut prices = SoloPrices::new(workload);
    // Solo draw per payload id, NaN until priced. Like the durations,
    // `segment_power_w` has no per-GPU input on an eligible machine.
    let mut solo_watts = vec![f64::NAN; workload.payloads().len()];
    let idle_w = machine.segment_power_w(0, None, None);
    let mut end = vec![0.0f64; n];
    let mut queue_last = vec![0.0f64; n_gpus * 2];
    // Task time per GPU and stream. A task's `end - start` here equals its
    // record's `SimTime` difference (`end >= start`), so these sums match
    // the full path's totals.
    let mut busy = vec![[0.0f64; 2]; n_gpus];
    let mut folds = vec![PowerFold::default(); n_gpus];
    for (i, task) in tasks.iter().enumerate() {
        let t = ready_at(task, i, &end, &queue_last)?;
        let si = task.stream.index();
        let oi = task.stream.other().index();
        let duration = prices.duration(task, machine)?;
        let w = &mut solo_watts[task.payload.index()];
        if w.is_nan() {
            let op = workload.payload(task);
            *w = machine.segment_power_w(
                task.participants[0].index(),
                op.as_compute(),
                op.as_comm(),
            );
        }
        let w = *w;
        let e = t + duration;
        end[i] = e;
        for g in &task.participants {
            let gi = g.index();
            let other_last = queue_last[gi * 2 + oi];
            if t < other_last {
                return Some(SinglePass::Overlapping);
            }
            // Clean so far: the GPU's latest task ended at the later of
            // its two queues' last ends.
            let last_end = queue_last[gi * 2 + si].max(other_last);
            queue_last[gi * 2 + si] = e;
            let fold = &mut folds[gi];
            if t > last_end {
                fold.push(last_end, t, idle_w);
            }
            if e > t {
                fold.push(t, e, w);
            }
            busy[gi][si] += e - t;
        }
    }
    let makespan = end.iter().copied().fold(0.0f64, f64::max);
    let gpus = (0..n_gpus)
        .map(|g| {
            let mut fold = folds[g];
            let last_end = queue_last[g * 2].max(queue_last[g * 2 + 1]);
            if makespan > last_end {
                fold.push(last_end, makespan, idle_w);
            }
            let zero = [SimTime::ZERO; 2];
            LeanGpuStats::new(busy[g].map(SimTime::from_secs), zero, fold.finish(), 0)
        })
        .collect();
    Some(SinglePass::Done(LeanRun {
        e2e_s: makespan,
        gpus,
        route: Route::FastPath,
    }))
}

/// The lanes-based lean evaluation: builds the full [`FastSchedule`] and
/// derives the [`LeanRun`] scalars from it exactly as [`execute_fast`] and
/// the statistics derivation do — merged-window counts, power through the
/// boundary sweep, and task and co-active time summed per task in task
/// order. Power streams into a [`PowerFold`], except on GPU 0 with
/// `keep_gpu0`, whose merged segments are kept as its trace.
fn lean_from_lanes(
    workload: &Workload<Op>,
    machine: &Machine,
    keep_gpu0: bool,
) -> Option<(LeanRun, Option<PowerTrace>)> {
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();
    let s = build_schedule(workload, machine)?;

    let mut power_memo = PowerMemo::new(workload.payloads());
    let mut power = Vec::with_capacity(n_gpus);
    let mut windows = Vec::with_capacity(n_gpus);
    let mut kept = None;
    let mut bounds: Vec<f64> = Vec::new();
    let mut scratch = GpuActivity::default();
    for g in 0..n_gpus {
        scratch.overlap_windows.clear();
        lane_intersections(&s, g, |lo, hi| scratch.push_overlap(lo, hi));
        windows.push(scratch.overlap_windows.len());
        if keep_gpu0 && g == 0 {
            scratch.power.clear();
            sweep_power_segments(&s, machine, g, &mut bounds, &mut power_memo, |t0, t1, w| {
                scratch.push_power(SimTime::from_secs(t0), SimTime::from_secs(t1), w);
            });
            power.push(PowerStats::from_segments(&scratch.power));
            kept = Some(PowerTrace::from_segments(&scratch.power));
        } else {
            let mut fold = PowerFold::default();
            sweep_power_segments(&s, machine, g, &mut bounds, &mut power_memo, |t0, t1, w| {
                fold.push(t0, t1, w);
            });
            power.push(fold.finish());
        }
    }

    let has_overlap: Vec<bool> = windows.iter().map(|&w| w > 0).collect();
    let coactive = coactive_times(&s, &has_overlap);
    let mut totals = StreamTotals::new(n_gpus);
    for (i, task) in tasks.iter().enumerate() {
        totals.add(
            &task.participants,
            task.stream,
            SimTime::from_secs(s.end[i]) - SimTime::from_secs(s.start[i]),
            SimTime::from_secs(coactive[i]),
        );
    }
    let gpus = (0..n_gpus)
        .map(|g| LeanGpuStats::new(totals.busy[g], totals.coactive[g], power[g], windows[g]))
        .collect();
    let run = LeanRun {
        e2e_s: s.makespan,
        gpus,
        route: Route::FastPath,
    };
    Some((run, kept))
}

/// A multiply-xor hasher (FxHash-style) for the event loop's pricing maps
/// (`Machine`'s id cache and value table): the keys are small all-integer
/// structs hashed once per newly keyed GPU, where the default SipHash
/// would dominate the lookup cost. Not DoS-resistant — fine for a
/// workload's own payloads.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// Whether two sorted, internally non-overlapping interval lists share any
/// positive-measure intersection: the co-residency check over a finished
/// schedule, the reference the push-time [`overlaps_lane`] is tested
/// against.
#[cfg(test)]
fn lanes_intersect(a: &[usize], b: &[usize], start: &[f64], end: &[f64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = start[a[i]].max(start[b[j]]);
        let hi = end[a[i]].min(end[b[j]]);
        if hi > lo {
            return true;
        }
        if end[a[i]] <= end[b[j]] {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, RunTotals, Strategy};
    use olab_gpu::{Datapath, KernelKind, Precision, SkuKind};
    use olab_models::ModelPreset;
    use olab_parallel::ComputeOp;
    use olab_parallel::ExecutionMode;
    use olab_sim::{GpuId, TaskSpec};

    /// The decision of the a-posteriori check the schedule builder used to
    /// make: the whole schedule with no co-residency check, then
    /// [`lanes_intersect`] on every GPU of a contended machine. `true`
    /// keeps the fast path.
    fn a_posteriori_keeps(w: &Workload<Op>, machine: &Machine) -> bool {
        let n = w.len();
        let mut prices = SoloPrices::new(w);
        let mut lanes: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; w.n_gpus()];
        let (mut start, mut end) = (vec![0.0f64; n], vec![0.0f64; n]);
        let mut queue_last = vec![0.0f64; w.n_gpus() * 2];
        for (i, task) in w.tasks().iter().enumerate() {
            let Some(t) = ready_at(task, i, &end, &queue_last) else {
                return false;
            };
            let Some(duration) = prices.duration(task, machine) else {
                return false;
            };
            start[i] = t;
            end[i] = t + duration;
            for g in &task.participants {
                queue_last[g.index() * 2 + task.stream.index()] = end[i];
                lanes[g.index()][task.stream.index()].push(i);
            }
        }
        !machine.is_contended()
            || lanes
                .iter()
                .all(|lane| !lanes_intersect(&lane[0], &lane[1], &start, &end))
    }

    fn gemm() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(1024, 1024, 1024),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    fn all_reduce(machine: &Machine) -> Op {
        let group = vec![GpuId(0), GpuId(1)];
        Op::Comm(lower(
            &Collective::all_reduce(1 << 16, group),
            Algorithm::Ring,
            &machine.config().sku,
            &machine.config().topology,
            Precision::Fp16,
        ))
    }

    /// A two-GPU workload with a GEMM and an all-reduce interned.
    fn workload(machine: &Machine) -> (Workload<Op>, PayloadId, PayloadId) {
        let mut w = Workload::new(2);
        let ids = (w.intern(gemm()), w.intern(all_reduce(machine)));
        (w, ids.0, ids.1)
    }

    fn ar(all_reduce: PayloadId) -> TaskSpec<Op> {
        TaskSpec::collective("ar", vec![GpuId(0), GpuId(1)], all_reduce)
    }

    /// Both checks decide `keeps` on `w` on the contended machine, and the
    /// uncontended machine always keeps the fast path.
    fn assert_decision(w: &Workload<Op>, stock: &Machine, keeps: bool) {
        assert_eq!(build_schedule(w, stock).is_some(), keeps);
        assert_eq!(a_posteriori_keeps(w, stock), keeps);
        assert!(build_schedule(w, &stock.uncontended()).is_some());
    }

    #[test]
    fn co_residency_in_the_last_pushed_task_still_bails() {
        let stock = Machine::stock(olab_gpu::GpuSku::h100(), 2);
        let (mut w, gemm, all_reduce) = workload(&stock);
        let mut prev = None;
        for _ in 0..3 {
            let k = w.push(TaskSpec::compute("k", GpuId(0), gemm).after_all(prev));
            prev = Some(w.push(ar(all_reduce).after(k)));
        }
        assert_decision(&w, &stock, true);
        // No dependency: the last kernel starts with the last collective.
        w.push(TaskSpec::compute("last", GpuId(0), gemm));
        assert_decision(&w, &stock, false);
    }

    #[test]
    fn a_task_landing_in_a_gap_of_the_other_lane_keeps_the_fast_path() {
        let stock = Machine::stock(olab_gpu::GpuSku::h100(), 2);
        let (mut w, gemm, all_reduce) = workload(&stock);
        let first = w.push(ar(all_reduce));
        let mut chain = first;
        for _ in 0..5 {
            chain = w.push(TaskSpec::compute("g1", GpuId(1), gemm).after(chain));
        }
        let second = w.push(ar(all_reduce).after(chain));
        let k = w.push(TaskSpec::compute("k", GpuId(0), gemm).after(first));
        assert_decision(&w, &stock, true);
        let s = build_schedule(&w, &stock).expect("fast path");
        let (k, second) = (k.index(), second.index());
        assert!(
            s.start[k] < s.end[second],
            "k starts before the lane's last end"
        );
        assert!(s.end[k] <= s.start[second], "k ends in the gap");
    }

    #[test]
    fn touching_intervals_are_not_co_residency() {
        let stock = Machine::stock(olab_gpu::GpuSku::h100(), 2);
        let (mut w, gemm, all_reduce) = workload(&stock);
        let k0 = w.push(TaskSpec::compute("k0", GpuId(0), gemm));
        let ar = w.push(ar(all_reduce).after(k0));
        let k1 = w.push(TaskSpec::compute("k1", GpuId(0), gemm).after(ar));
        assert_decision(&w, &stock, true);
        let s = build_schedule(&w, &stock).expect("fast path");
        assert_eq!(s.end[k0.index()], s.start[ar.index()]);
        assert_eq!(s.end[ar.index()], s.start[k1.index()]);
    }

    /// The check made while pushing decides exactly what the a-posteriori
    /// reference decides, on every feasible main-grid cell in both modes,
    /// on the contended and the uncontended machine.
    #[test]
    fn the_push_time_check_matches_the_a_posteriori_reference_on_the_main_grid() {
        let mut decisions = [0usize; 2];
        for exp in crate::registry::main_grid() {
            let Ok(policy) = exp.validate() else {
                continue;
            };
            let stock = exp.machine();
            for mode in [ExecutionMode::Overlapped, ExecutionMode::Sequential] {
                let w = exp.timeline(mode, policy).expect("lowers");
                for machine in [stock.uncontended(), stock.clone()] {
                    let keeps = build_schedule(&w, &machine).is_some();
                    assert_eq!(keeps, a_posteriori_keeps(&w, &machine), "{exp} {mode:?}");
                    decisions[usize::from(keeps)] += 1;
                }
            }
        }
        // Only the contended overlapped schedules co-reside.
        assert_eq!(decisions, [107, 3 * 107]);
    }

    fn estimate_and_simulate(sku: SkuKind) -> (AnalyticEstimate, crate::ExperimentReport) {
        let exp = Experiment::new(sku, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(512);
        let policy = exp.validate().unwrap();
        let machine = exp.machine();
        let plan = FsdpPlan::new(
            ModelPreset::Gpt3Xl.config(),
            4,
            8,
            512,
            Precision::Fp16,
            Datapath::TensorCore,
            policy,
        );
        let est = estimate_fsdp(&plan, &machine.config().sku, &machine.config().topology);
        (est, exp.run().unwrap())
    }

    #[test]
    fn analytic_compute_matches_sequential_simulation() {
        // With no contention, the simulator's per-GPU compute time is the
        // sum of isolated kernel durations — the closed form exactly.
        let (est, report) = estimate_and_simulate(SkuKind::H100);
        let simulated = report.sequential.compute_s() / 4.0;
        let ratio = est.compute_s / simulated;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn analytic_sequential_bounds_hold_on_all_skus() {
        for sku in SkuKind::ALL {
            let (est, report) = estimate_and_simulate(sku);
            let measured = report.metrics.e2e_sequential_measured_s;
            let ratio = est.e2e_sequential_s / measured;
            assert!((0.85..1.15).contains(&ratio), "{sku}: ratio {ratio}");
        }
    }

    #[test]
    fn naive_model_underestimates_overlapped_e2e_under_contention() {
        // The paper's point: assuming constant latencies (no contention)
        // underpredicts the overlapped iteration. On the MI250 the gap is
        // large; the ideal estimate must sit at or below the simulated
        // overlapped time.
        let (est, report) = estimate_and_simulate(SkuKind::Mi250);
        assert!(
            est.e2e_ideal_s < report.metrics.e2e_overlapped_s,
            "naive {} vs simulated {}",
            est.e2e_ideal_s,
            report.metrics.e2e_overlapped_s
        );
        // And the gap is what Eq. 4 calls the slowdown. (At this small
        // sequence length the MI250 is already comm-bound, so the analytic
        // ideal includes a large exposed-comm overhang; the remaining gap
        // is pure contention.)
        let gap = report.metrics.e2e_overlapped_s / est.e2e_ideal_s - 1.0;
        assert!(gap > 0.04, "expected a contention gap, got {gap}");
    }

    #[test]
    fn comm_ratio_is_higher_on_slower_fabrics() {
        let (h100, _) = estimate_and_simulate(SkuKind::H100);
        let (mi250, _) = estimate_and_simulate(SkuKind::Mi250);
        assert!(mi250.comm_ratio() > 2.0 * h100.comm_ratio());
    }
}
