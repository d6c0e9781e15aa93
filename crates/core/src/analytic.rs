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

use crate::executor::{run_result_from_trace, LeanGpuStats, LeanRun, RunResult};
use crate::fastpath::Route;
use crate::Machine;
use olab_ccl::{lower, Algorithm, Collective, CommOp};
use olab_gpu::{roofline, GpuSku};
use olab_models::memory::ActivationPolicy;
use olab_models::ops;
use olab_net::Topology;
use olab_parallel::fsdp::FsdpPlan;
use olab_parallel::{ComputeOp, Op};
use olab_sim::{
    GpuActivity, PowerSegment, SimTime, SimTrace, StreamKind, TaskId, TaskRecord, Window, Workload,
};
use std::collections::HashMap;

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

/// Sentinel for "no interned payload of this kind" in the per-task tables.
const NONE: u32 = u32::MAX;

/// The speculative solo-priced schedule of one fast-path-eligible cell:
/// task intervals, per-(GPU, stream) interval lists ("lanes"), and the
/// payload interning tables both output shapes — the full
/// [`RunResult`] of [`execute_fast`] and the scalar-only
/// [`LeanRun`](crate::LeanRun) of [`execute_fast_lean`] — price power from.
struct FastSchedule<'w> {
    start: Vec<f64>,
    end: Vec<f64>,
    lanes: Vec<[Vec<usize>; 2]>,
    makespan: f64,
    kernel_ops: Vec<&'w ComputeOp>,
    comm_interned: Vec<(&'w CommOp, f64)>,
    task_kernel: Vec<u32>,
    task_comm: Vec<u32>,
}

/// Payload interning shared by the schedule builders. Timelines repeat a
/// handful of distinct kernel shapes and collectives thousands of times
/// (one per layer per step), and an eligible cell has no per-GPU state
/// that could differentiate them — so each distinct payload is priced once
/// and every repeat is a lookup.
#[derive(Default)]
struct Interner<'w> {
    kernel_ids: HashMap<&'w ComputeOp, u32, FxBuildHasher>,
    kernel_ops: Vec<&'w ComputeOp>,
    kernel_durations: Vec<f64>,
    comm_interned: Vec<(&'w CommOp, f64)>,
}

impl<'w> Interner<'w> {
    /// Interns one task's payload and returns `(solo duration, kernel id,
    /// comm id)` with [`NONE`] for the absent kind, or `None` when the task
    /// disqualifies the cell: a payload kind disagreeing with its stream
    /// (the engine prices by payload while the closed form walks streams)
    /// or a non-finite/non-positive solo duration (the event loop then
    /// produces the proper rate error).
    fn intern(
        &mut self,
        task: &'w olab_sim::TaskSpec<Op>,
        machine: &Machine,
    ) -> Option<(f64, u32, u32)> {
        let (duration, kid, cid) = match &task.payload {
            Op::Compute(c) => {
                if task.stream != StreamKind::Compute {
                    return None;
                }
                let id = *self.kernel_ids.entry(c).or_insert_with(|| {
                    self.kernel_ops.push(c);
                    self.kernel_durations
                        .push(machine.solo_compute_duration(task.participants[0].index(), c));
                    (self.kernel_durations.len() - 1) as u32
                });
                (self.kernel_durations[id as usize], id, NONE)
            }
            // Comm ops carry floats, so they intern by linear scan — the
            // distinct count is tiny (one per collective shape). Equal
            // `CommOp`s imply equal groups (the collective embeds its
            // group), so the memoized duration transfers.
            Op::Comm(op) => {
                if task.stream != StreamKind::Comm {
                    return None;
                }
                match self.comm_interned.iter().position(|&(m, _)| m == op) {
                    Some(id) => (self.comm_interned[id].1, NONE, id as u32),
                    None => {
                        let d = machine.solo_comm_duration(&task.participants, op);
                        self.comm_interned.push((op, d));
                        (d, NONE, (self.comm_interned.len() - 1) as u32)
                    }
                }
            }
        };
        if !(duration.is_finite() && duration > 0.0) {
            return None;
        }
        Some((duration, kid, cid))
    }
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
///   co-residency independent.
///
/// The engine with constant rates admits this closed form: a task starts at
/// the max of (a) its queue predecessors' ends on every participant stream
/// and (b) its dependencies' ends, and runs for its solo duration — one
/// O(n) pass in push order. Durations come from the *same* per-GPU pricing
/// the event loop uses (`Machine::gpu_epoch` via `solo_compute_duration` /
/// `solo_comm_duration`), so agreement is by construction, not by
/// re-derivation.
///
/// Timelines repeat a handful of distinct kernel shapes and collectives
/// thousands of times (one per layer per step), and an eligible cell has no
/// per-GPU state that could differentiate them — the caller has excluded
/// jitter and transient frequency caps, so `Machine::gpu_epoch` is a pure
/// function of the payload alone. Interning each distinct payload once
/// turns the hot loops from O(n) pricing calls into O(n) map lookups plus
/// O(distinct) pricing calls.
fn build_schedule<'w>(workload: &'w Workload<Op>, machine: &Machine) -> Option<FastSchedule<'w>> {
    debug_assert!(
        !machine.has_jitter() && !machine.has_gpu_freq_caps(),
        "build_schedule requires a deterministic machine"
    );
    let n = workload.len();
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();

    let mut interner = Interner::default();
    let mut task_kernel = vec![NONE; n];
    let mut task_comm = vec![NONE; n];

    // The per-(GPU, stream) lanes fall out of the same pass: each queue
    // serializes its tasks, so push order is start order within a lane.
    let mut lanes: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; n_gpus];
    let mut start = vec![0.0f64; n];
    let mut end = vec![0.0f64; n];
    let mut queue_last = vec![0.0f64; n_gpus * 2];
    for (i, task) in tasks.iter().enumerate() {
        let mut t = 0.0f64;
        for dep in &task.deps {
            if dep.index() >= i {
                return None;
            }
            t = t.max(end[dep.index()]);
        }
        for g in &task.participants {
            t = t.max(queue_last[g.index() * 2 + task.stream.index()]);
        }
        let (duration, kid, cid) = interner.intern(task, machine)?;
        task_kernel[i] = kid;
        task_comm[i] = cid;
        start[i] = t;
        end[i] = t + duration;
        for g in &task.participants {
            queue_last[g.index() * 2 + task.stream.index()] = end[i];
            lanes[g.index()][task.stream.index()].push(i);
        }
    }
    let makespan = end.iter().copied().fold(0.0f64, f64::max);
    let Interner {
        kernel_ops,
        comm_interned,
        ..
    } = interner;

    // A posteriori validation: on a contended machine any compute/comm
    // co-residency invalidates solo pricing — fall back to the event loop.
    if machine.is_contended() {
        for lane in &lanes {
            if lanes_intersect(&lane[0], &lane[1], &start, &end) {
                return None;
            }
        }
    }

    Some(FastSchedule {
        start,
        end,
        lanes,
        makespan,
        kernel_ops,
        comm_interned,
        task_kernel,
        task_comm,
    })
}

/// Looks up (pricing on first use) the draw of the (kernel, comm)
/// co-resident pair in the dense memo matrix — (kernels + idle) ×
/// (comms + idle), NaN = not yet priced. Like the durations,
/// `segment_power_w` has no per-GPU input on an eligible machine, so the
/// memo is shared across GPUs.
fn priced(
    s: &FastSchedule<'_>,
    machine: &Machine,
    power_memo: &mut [f64],
    g: usize,
    kid: u32,
    cid: u32,
) -> f64 {
    let cslots = s.comm_interned.len() + 1;
    let k_ix = if kid == NONE {
        s.kernel_ops.len()
    } else {
        kid as usize
    };
    let c_ix = if cid == NONE {
        s.comm_interned.len()
    } else {
        cid as usize
    };
    let slot = &mut power_memo[k_ix * cslots + c_ix];
    if slot.is_nan() {
        let kernel = (kid != NONE).then(|| s.kernel_ops[kid as usize]);
        let comm = (cid != NONE).then(|| s.comm_interned[cid as usize].0);
        *slot = machine.segment_power_w(g, kernel, comm);
    }
    *slot
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
    power_memo: &mut [f64],
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
        let kid = if pi < compute_lane.len() && s.start[compute_lane[pi]] <= t0 {
            s.task_kernel[compute_lane[pi]]
        } else {
            NONE
        };
        let cid = if pj < comm_lane.len() && s.start[comm_lane[pj]] <= t0 {
            s.task_comm[comm_lane[pj]]
        } else {
            NONE
        };
        let watts = priced(s, machine, power_memo, g, kid, cid);
        emit(t0, t1, watts);
    }
}

/// Co-active time per task: measure of the union, over its participants,
/// of other-stream busy intervals clipped to the task's own interval.
/// Any such clip is by definition inside one of the participant's overlap
/// windows, so tasks whose participants all have none (`has_overlap[g] ==
/// false` — every task of a sequential schedule) skip the lane scans
/// outright.
fn coactive_times(
    tasks: &[olab_sim::TaskSpec<Op>],
    s: &FastSchedule<'_>,
    has_overlap: &[bool],
) -> Vec<f64> {
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
    let cslots = s.comm_interned.len() + 1;
    let mut power_memo: Vec<f64> = vec![f64::NAN; (s.kernel_ops.len() + 1) * cslots];
    let mut gpus: Vec<GpuActivity> = vec![GpuActivity::default(); n_gpus];
    let mut bounds: Vec<f64> = Vec::new();
    for (g, activity) in gpus.iter_mut().enumerate() {
        let compute_lane = &s.lanes[g][0];
        let comm_lane = &s.lanes[g][1];

        for (lane_ix, lane) in [compute_lane, comm_lane].into_iter().enumerate() {
            let total: f64 = lane.iter().map(|&i| s.end[i] - s.start[i]).sum();
            activity.busy[lane_ix] = SimTime::from_secs(total);
        }

        // Overlap windows: intersections of the two lanes, merged with the
        // engine's contiguity rule.
        let (mut i, mut j) = (0, 0);
        while i < compute_lane.len() && j < comm_lane.len() {
            let (a, b) = (compute_lane[i], comm_lane[j]);
            let lo = s.start[a].max(s.start[b]);
            let hi = s.end[a].min(s.end[b]);
            if hi > lo {
                push_window(&mut activity.overlap_windows, lo, hi);
            }
            if s.end[a] <= s.end[b] {
                i += 1;
            } else {
                j += 1;
            }
        }

        let power = &mut activity.power;
        sweep_power_segments(&s, machine, g, &mut bounds, &mut power_memo, |t0, t1, w| {
            push_power(power, t0, t1, w);
        });
    }

    let has_overlap: Vec<bool> = gpus.iter().map(|a| !a.overlap_windows.is_empty()).collect();
    let coactive = coactive_times(tasks, &s, &has_overlap);

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
/// scalar metrics of [`LeanRun`] — no task records, no power segments, no
/// trace. This is where the closed form's asymmetry over the event loop is
/// largest: the engine *must* run every epoch and materialize its trace
/// before any statistic exists, while the closed form integrates the same
/// quantities directly. Agrees with
/// [`LeanRun::summarize`](crate::LeanRun::summarize) of the event loop's
/// result to floating-point rounding (the differential suite in
/// `olab-oracle` pins this). Returns `None` exactly when [`execute_fast`]
/// would (the bail conditions are the same).
///
/// Two regimes:
///
/// * **no cross-stream co-residency** (every sequential schedule): one
///   fused pass computes the schedule and every scalar together — each
///   instant is kernel-only, comm-only, or idle, so energy is the sum of
///   per-task `watts × duration` plus idle draw over the remaining
///   `makespan − busy`, and windows and co-activity are zero;
/// * **overlapping streams** (uncontended machines only): the generic
///   lanes-based derivation ([`lean_from_lanes`]), which counts merged
///   windows, accumulates co-activity, and integrates power with the same
///   boundary sweep as [`execute_fast`] — without materializing segments.
///
/// Average power is `energy / makespan`: both paths' segments cover
/// `[0, makespan]` per GPU, so the time-weighted average divides by the
/// makespan exactly as [`olab_power::PowerTrace::average`] does.
pub(crate) fn execute_fast_lean(workload: &Workload<Op>, machine: &Machine) -> Option<LeanRun> {
    let n = workload.len();
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();

    if n == 0 {
        return Some(LeanRun {
            e2e_s: 0.0,
            gpus: vec![LeanGpuStats::default(); n_gpus],
            route: Route::FastPath,
        });
    }

    // Specialized single pass for the common case: schedule and scalar
    // statistics together, with no lanes, no start array, and no
    // per-task id tables. Cross-stream co-residency is detected on the
    // fly: a task starting before the other stream's latest end on any
    // participant *may* overlap an earlier interval (it may also land in
    // a gap), and any actual overlap pair is caught this way on its
    // later-pushed member — so `clean == true` proves the schedule has no
    // co-residency at all, on any GPU. Clean schedules finish right here;
    // flagged ones redo through the generic lanes-based path below.
    let mut interner = Interner::default();
    let mut kernel_watts: Vec<f64> = Vec::new();
    let mut comm_watts: Vec<f64> = Vec::new();
    let mut end = vec![0.0f64; n];
    let mut queue_last = vec![0.0f64; n_gpus * 2];
    let mut busy = vec![[0.0f64; 2]; n_gpus];
    let mut energy = vec![0.0f64; n_gpus];
    let mut peak = vec![0.0f64; n_gpus];
    let mut clean = true;
    for (i, task) in tasks.iter().enumerate() {
        let mut t = 0.0f64;
        for dep in &task.deps {
            if dep.index() >= i {
                return None;
            }
            t = t.max(end[dep.index()]);
        }
        let si = task.stream.index();
        let oi = task.stream.other().index();
        for g in &task.participants {
            t = t.max(queue_last[g.index() * 2 + si]);
        }
        let (duration, kid, cid) = interner.intern(task, machine)?;
        // Solo draw, memoized per interned payload (new ids are appended
        // sequentially, so a fresh id is priced exactly once). Like the
        // durations, `segment_power_w` has no per-GPU input on an eligible
        // machine.
        let w = if kid != NONE {
            let k = kid as usize;
            if k == kernel_watts.len() {
                kernel_watts.push(machine.segment_power_w(
                    task.participants[0].index(),
                    Some(interner.kernel_ops[k]),
                    None,
                ));
            }
            kernel_watts[k]
        } else {
            let c = cid as usize;
            if c == comm_watts.len() {
                comm_watts.push(machine.segment_power_w(
                    task.participants[0].index(),
                    None,
                    Some(interner.comm_interned[c].0),
                ));
            }
            comm_watts[c]
        };
        let e = t + duration;
        end[i] = e;
        let task_energy = w * duration;
        for g in &task.participants {
            let gi = g.index();
            if t < queue_last[gi * 2 + oi] {
                clean = false;
            }
            queue_last[gi * 2 + si] = e;
            busy[gi][si] += duration;
            energy[gi] += task_energy;
            peak[gi] = peak[gi].max(w);
        }
    }
    if !clean {
        return lean_from_lanes(workload, machine);
    }

    let makespan = end.iter().copied().fold(0.0f64, f64::max);
    let mut gpus = Vec::with_capacity(n_gpus);
    for g in 0..n_gpus {
        let compute_s = busy[g][StreamKind::Compute.index()];
        let comm_s = busy[g][StreamKind::Comm.index()];
        let mut energy_j = energy[g];
        let mut peak_w = peak[g];
        // With no co-residency, each instant is kernel-only, comm-only, or
        // idle; the idle remainder draws the floor (the full path emits
        // idle segments only over genuine gaps, so `idle == 0` means it
        // emitted none).
        let idle = makespan - compute_s - comm_s;
        if idle > 0.0 {
            let w = machine.segment_power_w(g, None, None);
            energy_j += w * idle;
            peak_w = peak_w.max(w);
        }
        gpus.push(LeanGpuStats {
            compute_s,
            comm_s,
            overlapped_compute_s: 0.0,
            hidden_comm_s: 0.0,
            average_power_w: if makespan > 0.0 {
                energy_j / makespan
            } else {
                0.0
            },
            peak_power_w: peak_w,
            energy_j,
            overlap_windows: 0,
        });
    }
    Some(LeanRun {
        e2e_s: makespan,
        gpus,
        route: Route::FastPath,
    })
}

/// The generic lanes-based lean evaluation: builds the full
/// [`FastSchedule`] and derives the [`LeanRun`] scalars from its lanes —
/// overlap window counts under the engine's merge rule, energy/peak via the
/// boundary sweep where streams overlap, and co-activity per participant.
/// [`execute_fast_lean`] reaches this only when its single-pass scan flags
/// potential cross-stream co-residency.
fn lean_from_lanes(workload: &Workload<Op>, machine: &Machine) -> Option<LeanRun> {
    let n_gpus = workload.n_gpus();
    let tasks = workload.tasks();
    let s = build_schedule(workload, machine)?;

    let cslots = s.comm_interned.len() + 1;
    let mut power_memo: Vec<f64> = vec![f64::NAN; (s.kernel_ops.len() + 1) * cslots];
    let mut gpus: Vec<LeanGpuStats> = Vec::with_capacity(n_gpus);
    let mut has_overlap = vec![false; n_gpus];
    let mut bounds: Vec<f64> = Vec::new();
    for (g, gpu_overlaps) in has_overlap.iter_mut().enumerate() {
        let compute_lane = &s.lanes[g][0];
        let comm_lane = &s.lanes[g][1];
        let compute_s: f64 = compute_lane.iter().map(|&i| s.end[i] - s.start[i]).sum();
        let comm_s: f64 = comm_lane.iter().map(|&i| s.end[i] - s.start[i]).sum();

        // Window count under the engine's contiguity merge rule.
        let mut overlap_windows = 0usize;
        let mut last_end = f64::NEG_INFINITY;
        let (mut i, mut j) = (0, 0);
        while i < compute_lane.len() && j < comm_lane.len() {
            let (a, b) = (compute_lane[i], comm_lane[j]);
            let lo = s.start[a].max(s.start[b]);
            let hi = s.end[a].min(s.end[b]);
            if hi > lo {
                if (last_end - lo).abs() >= 1e-12 {
                    overlap_windows += 1;
                }
                last_end = hi;
            }
            if s.end[a] <= s.end[b] {
                i += 1;
            } else {
                j += 1;
            }
        }
        *gpu_overlaps = overlap_windows > 0;

        let (mut energy_j, mut peak_w) = (0.0f64, 0.0f64);
        if overlap_windows == 0 {
            for &t in compute_lane {
                let w = priced(&s, machine, &mut power_memo, g, s.task_kernel[t], NONE);
                energy_j += w * (s.end[t] - s.start[t]);
                peak_w = peak_w.max(w);
            }
            for &t in comm_lane {
                let w = priced(&s, machine, &mut power_memo, g, NONE, s.task_comm[t]);
                energy_j += w * (s.end[t] - s.start[t]);
                peak_w = peak_w.max(w);
            }
            let idle = s.makespan - compute_s - comm_s;
            if idle > 0.0 {
                let w = priced(&s, machine, &mut power_memo, g, NONE, NONE);
                energy_j += w * idle;
                peak_w = peak_w.max(w);
            }
        } else {
            sweep_power_segments(&s, machine, g, &mut bounds, &mut power_memo, |t0, t1, w| {
                energy_j += w * (t1 - t0);
                peak_w = peak_w.max(w);
            });
        }

        gpus.push(LeanGpuStats {
            compute_s,
            comm_s,
            overlapped_compute_s: 0.0,
            hidden_comm_s: 0.0,
            average_power_w: if s.makespan > 0.0 {
                energy_j / s.makespan
            } else {
                0.0
            },
            peak_power_w: peak_w,
            energy_j,
            overlap_windows,
        });
    }

    // Co-activity, accumulated per (GPU, stream) exactly as the full
    // statistics derivation does (each participant is credited the task's
    // whole union measure).
    if has_overlap.iter().any(|&h| h) {
        let coactive = coactive_times(tasks, &s, &has_overlap);
        for (i, task) in tasks.iter().enumerate() {
            if coactive[i] == 0.0 {
                continue;
            }
            for g in &task.participants {
                let stats = &mut gpus[g.index()];
                match task.stream {
                    StreamKind::Compute => stats.overlapped_compute_s += coactive[i],
                    StreamKind::Comm => stats.hidden_comm_s += coactive[i],
                }
            }
        }
    }

    Some(LeanRun {
        e2e_s: s.makespan,
        gpus,
        route: Route::FastPath,
    })
}

/// A multiply-xor hasher (FxHash-style) for the payload-interning map: the
/// keys are small all-integer structs hashed once per task in the schedule
/// loop, where the default SipHash would dominate the lookup cost. Not
/// DoS-resistant — fine for interning a workload's own payloads.
#[derive(Default)]
struct FxHasher(u64);

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

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// Whether two sorted, internally non-overlapping interval lists share any
/// positive-measure intersection.
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

/// The engine's window-merge rule: append, coalescing with the previous
/// window when contiguous within 1e-12 s.
fn push_window(windows: &mut Vec<Window>, lo: f64, hi: f64) {
    if let Some(last) = windows.last_mut() {
        if (last.end.as_secs() - lo).abs() < 1e-12 {
            last.end = SimTime::from_secs(hi);
            return;
        }
    }
    windows.push(Window {
        start: SimTime::from_secs(lo),
        end: SimTime::from_secs(hi),
    });
}

/// The engine's power-merge rule: append, coalescing when contiguous within
/// 1e-12 s and equal draw within 1e-9 W.
fn push_power(segments: &mut Vec<PowerSegment>, lo: f64, hi: f64, watts: f64) {
    if let Some(last) = segments.last_mut() {
        let contiguous = (last.window.end.as_secs() - lo).abs() < 1e-12;
        if contiguous && (last.watts - watts).abs() < 1e-9 {
            last.window.end = SimTime::from_secs(hi);
            return;
        }
    }
    segments.push(PowerSegment {
        window: Window {
            start: SimTime::from_secs(lo),
            end: SimTime::from_secs(hi),
        },
        watts,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, Strategy};
    use olab_gpu::{Datapath, Precision, SkuKind};
    use olab_models::ModelPreset;

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
