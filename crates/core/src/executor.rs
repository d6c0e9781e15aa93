//! Executing schedules and collecting run statistics.

use crate::fastpath::Route;
use crate::Machine;
use olab_parallel::Op;
use olab_power::{PowerStats, PowerTrace};
use olab_sim::{
    Engine, EngineObserver, GpuId, NullObserver, SimError, SimTime, SimTrace, StreamKind,
    StreamTotals, Workload,
};
use std::borrow::Cow;

/// Per-GPU statistics of one run.
#[derive(Debug, Clone)]
pub struct GpuRunStats {
    /// Sum of compute-kernel durations, seconds.
    pub compute_s: f64,
    /// Sum of communication-task durations, seconds.
    pub comm_s: f64,
    /// Compute time co-active with communication, seconds (Eq. 2 numerator).
    pub overlapped_compute_s: f64,
    /// Communication time co-active with compute — the *hidden* comm time.
    pub hidden_comm_s: f64,
    /// Exact power trace.
    pub power: PowerTrace,
    /// Overlap windows (both streams busy), as (start, end) seconds.
    pub overlap_windows: Vec<(f64, f64)>,
}

/// One GPU's four time statistics, the quantities [`RunTotals`] sums.
#[derive(Debug, Clone, Copy)]
pub struct GpuTimes {
    /// Sum of compute-kernel durations, seconds.
    pub compute_s: f64,
    /// Sum of communication-task durations, seconds.
    pub comm_s: f64,
    /// Compute time co-active with communication, seconds.
    pub overlapped_compute_s: f64,
    /// Communication time co-active with compute, seconds.
    pub hidden_comm_s: f64,
}

/// Run-wide totals of the per-GPU time statistics, defined once for both
/// result forms ([`RunResult`] and [`LeanRun`]). Each total is summed in
/// GPU index order, so the two forms of one run agree bit for bit.
pub trait RunTotals {
    /// Each GPU's time statistics, in GPU index order.
    fn gpu_times(&self) -> impl Iterator<Item = GpuTimes> + '_;

    /// Total compute time across GPUs, seconds.
    fn compute_s(&self) -> f64 {
        self.gpu_times().map(|g| g.compute_s).sum()
    }

    /// Total communication time across GPUs, seconds.
    fn comm_s(&self) -> f64 {
        self.gpu_times().map(|g| g.comm_s).sum()
    }

    /// Total compute time co-active with communication, seconds.
    fn overlapped_compute_s(&self) -> f64 {
        self.gpu_times().map(|g| g.overlapped_compute_s).sum()
    }

    /// Total hidden (co-active) communication time, seconds.
    fn hidden_comm_s(&self) -> f64 {
        self.gpu_times().map(|g| g.hidden_comm_s).sum()
    }

    /// Eq. 2: fraction of compute time overlapped with communication.
    fn overlap_ratio(&self) -> f64 {
        let c = self.compute_s();
        if c > 0.0 {
            self.overlapped_compute_s() / c
        } else {
            0.0
        }
    }
}

/// Output of executing one schedule.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The raw simulation trace.
    pub trace: SimTrace,
    /// End-to-end iteration time, seconds.
    pub e2e_s: f64,
    /// Per-GPU statistics.
    pub gpus: Vec<GpuRunStats>,
    /// The execution path that produced this result.
    pub route: Route,
}

impl RunResult {
    /// Mean over GPUs of the time-average power, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus.iter().map(|g| g.power.average()).sum::<f64>() / self.gpus.len() as f64
    }

    /// Highest instantaneous draw across GPUs, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.gpus
            .iter()
            .map(|g| g.power.peak_instantaneous())
            .fold(0.0, f64::max)
    }

    /// Total energy across GPUs, joules.
    pub fn energy_j(&self) -> f64 {
        self.gpus.iter().map(|g| g.power.energy_j()).sum()
    }
}

impl RunTotals for RunResult {
    fn gpu_times(&self) -> impl Iterator<Item = GpuTimes> + '_ {
        self.gpus.iter().map(|g| GpuTimes {
            compute_s: g.compute_s,
            comm_s: g.comm_s,
            overlapped_compute_s: g.overlapped_compute_s,
            hidden_comm_s: g.hidden_comm_s,
        })
    }
}

/// Scalar per-GPU statistics of one run — the [`GpuRunStats`] quantities
/// without the materialized power trace or window list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeanGpuStats {
    /// Sum of compute-kernel durations, seconds.
    pub compute_s: f64,
    /// Sum of communication-task durations, seconds.
    pub comm_s: f64,
    /// Compute time co-active with communication, seconds (Eq. 2 numerator).
    pub overlapped_compute_s: f64,
    /// Communication time co-active with compute — the *hidden* comm time.
    pub hidden_comm_s: f64,
    /// Time-average power over the run, watts.
    pub average_power_w: f64,
    /// Peak instantaneous power, watts.
    pub peak_power_w: f64,
    /// Total energy over the run, joules.
    pub energy_j: f64,
    /// Number of merged overlap windows (both streams busy).
    pub overlap_windows: usize,
}

impl LeanGpuStats {
    /// One GPU's statistics from its per-stream task totals (indexed by
    /// [`StreamKind::index`]), power statistics and overlap-window count.
    pub(crate) fn new(
        busy: [SimTime; 2],
        coactive: [SimTime; 2],
        power: PowerStats,
        overlap_windows: usize,
    ) -> Self {
        LeanGpuStats {
            compute_s: busy[StreamKind::Compute.index()].as_secs(),
            comm_s: busy[StreamKind::Comm.index()].as_secs(),
            overlapped_compute_s: coactive[StreamKind::Compute.index()].as_secs(),
            hidden_comm_s: coactive[StreamKind::Comm.index()].as_secs(),
            average_power_w: power.average_w,
            peak_power_w: power.peak_w,
            energy_j: power.energy_j,
            overlap_windows,
        }
    }
}

/// Scalar-only output of executing one schedule: everything a metrics
/// consumer reads from a [`RunResult`], with no trace, task records, or
/// power segments behind it.
///
/// Produced either by [`execute_lean`] (the analytic fast path computes
/// these quantities directly, and the event loop runs without task
/// records) or from an existing full result via [`LeanRun::summarize`].
/// Both give the same value, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LeanRun {
    /// End-to-end iteration time, seconds.
    pub e2e_s: f64,
    /// Per-GPU scalar statistics.
    pub gpus: Vec<LeanGpuStats>,
    /// The execution path that produced this result.
    pub route: Route,
}

impl LeanRun {
    /// Reduces a full [`RunResult`] to its scalar statistics. Each quantity
    /// equals the corresponding [`RunResult`] / [`GpuRunStats`] accessor
    /// bit-for-bit, and [`execute_lean`] equals this reduction of
    /// [`execute`] on the same workload and machine exactly (the oracle's
    /// fast-path pillar pins both routes).
    pub fn summarize(full: &RunResult) -> LeanRun {
        LeanRun {
            e2e_s: full.e2e_s,
            gpus: full
                .gpus
                .iter()
                .map(|g| {
                    let p = g.power.stats();
                    LeanGpuStats {
                        compute_s: g.compute_s,
                        comm_s: g.comm_s,
                        overlapped_compute_s: g.overlapped_compute_s,
                        hidden_comm_s: g.hidden_comm_s,
                        average_power_w: p.average_w,
                        peak_power_w: p.peak_w,
                        energy_j: p.energy_j,
                        overlap_windows: g.overlap_windows.len(),
                    }
                })
                .collect(),
            route: full.route,
        }
    }

    /// One-pass power summary: (mean average watts, peak watts, total
    /// joules), folded GPU by GPU in index order.
    pub fn power_summary(&self) -> (f64, f64, f64) {
        let (mut avg, mut peak, mut energy) = (0.0f64, 0.0f64, 0.0f64);
        for g in &self.gpus {
            avg += g.average_power_w;
            peak = peak.max(g.peak_power_w);
            energy += g.energy_j;
        }
        let avg = if self.gpus.is_empty() {
            0.0
        } else {
            avg / self.gpus.len() as f64
        };
        (avg, peak, energy)
    }
}

impl RunTotals for LeanRun {
    fn gpu_times(&self) -> impl Iterator<Item = GpuTimes> + '_ {
        self.gpus.iter().map(|g| GpuTimes {
            compute_s: g.compute_s,
            comm_s: g.comm_s,
            overlapped_compute_s: g.overlapped_compute_s,
            hidden_comm_s: g.hidden_comm_s,
        })
    }
}

/// Runs a schedule on a machine.
///
/// When the cell qualifies (see `docs/FASTPATH.md` for the routing rules)
/// the run is served by the contention-free analytic fast path instead of
/// the event loop; the result is the same to floating-point rounding (the
/// differential suite in `olab-oracle` pins this) and
/// [`RunResult::route`] records which path ran. Generic models going
/// through [`execute_model`] — fault injectors, wrappers, observed runs —
/// never reach the router: only plain `Machine` execution can skip the
/// event loop.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (malformed DAG, deadlock, or a
/// misbehaving rate model).
pub fn execute(workload: &Workload<Op>, machine: &Machine) -> Result<RunResult, SimError> {
    route(
        workload,
        Cow::Borrowed(machine),
        false,
        crate::analytic::execute_fast,
        |w, m| execute_model(w, m, &mut NullObserver),
    )
}

/// Runs a schedule on a machine, producing only the scalar [`LeanRun`]
/// metrics.
///
/// This is the cheapest way to evaluate a cell when the caller needs
/// numbers, not traces: a fast-path-eligible run computes the statistics in
/// closed form without materializing task records or power segments at all,
/// while an ineligible run takes the event loop without task records
/// ([`Engine::run_summary`]). Either way the result is bit-identical to
/// [`LeanRun::summarize`] of [`execute`] on the same inputs. Path routing
/// matches [`execute`] exactly, and [`LeanRun::route`] records which path
/// ran.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (malformed DAG, deadlock, or a
/// misbehaving rate model).
pub fn execute_lean(workload: &Workload<Op>, machine: &Machine) -> Result<LeanRun, SimError> {
    execute_lean_keeping(workload, machine, false).map(|(run, _)| run)
}

/// [`execute_lean`] that, with `keep_gpu0`, also returns GPU 0's power
/// trace — the one per-GPU series a grid cell reports, for the vendor
/// sampler.
pub(crate) fn execute_lean_keeping(
    workload: &Workload<Op>,
    machine: &Machine,
    keep_gpu0: bool,
) -> Result<(LeanRun, Option<PowerTrace>), SimError> {
    route(
        workload,
        Cow::Borrowed(machine),
        true,
        |w, m| crate::analytic::execute_fast_lean(w, m, keep_gpu0),
        |w, m| lean_event_loop(w, m, keep_gpu0),
    )
}

/// The ideal leg of a cell: the end-to-end time of `workload` on
/// `machine.uncontended()`, the one number a report reads from that leg
/// (the Eq. 4 cross-check). It equals
/// `execute_lean(workload, &machine.uncontended())?.e2e_s` bit for bit and
/// takes the same route, but computes nothing else: the fast path runs
/// only the makespan pass
/// ([`fast_makespan`](crate::analytic::fast_makespan)), and an ineligible
/// (jittered) machine runs the event loop makespan-only
/// ([`Engine::run_makespan`]).
pub(crate) fn ideal_e2e_s(workload: &Workload<Op>, machine: &Machine) -> Result<f64, SimError> {
    route(
        workload,
        Cow::Owned(machine.uncontended()),
        true,
        crate::analytic::fast_makespan,
        |w, m| Ok(Engine::new(m).run_makespan(w)?.as_secs()),
    )
}

/// The one router. The O(1) machine gate comes first: no jitter (it only
/// exists epoch by epoch) and no transient frequency caps (fault layers
/// mutate these at epoch boundaries). A machine that passes tries the
/// closed form `fast`, which enforces the per-task rules itself and bails
/// on the first violation, so there is no separate O(n) classification
/// pass. Otherwise `event_loop` runs on the owned machine. A run that
/// returns `Ok` is recorded under its route and `lean`-ness; a rejected
/// run is not counted.
fn route<T>(
    workload: &Workload<Op>,
    machine: Cow<'_, Machine>,
    lean: bool,
    fast: impl FnOnce(&Workload<Op>, &Machine) -> Option<T>,
    event_loop: impl FnOnce(&Workload<Op>, Machine) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let start = olab_metrics::now_if_enabled();
    let gate = !machine.has_jitter() && !machine.has_gpu_freq_caps();
    let (route, result) = match gate.then(|| fast(workload, &machine)).flatten() {
        Some(result) => (Route::FastPath, result),
        None => (
            Route::EventLoop,
            event_loop(workload, machine.into_owned())?,
        ),
    };
    crate::fastpath::route_metrics().record(route, lean, start);
    Ok(result)
}

/// The event-loop route of [`execute_lean`]: the engine runs without task
/// records ([`Engine::run_summary`]), and the result is bit-identical to
/// [`LeanRun::summarize`] of [`execute_model`] on the same model. Once
/// read, the per-GPU activity goes back to the engine
/// ([`olab_sim::recycle_activity`]), so the next run on this thread
/// records into the same buffers.
fn lean_event_loop(
    workload: &Workload<Op>,
    machine: Machine,
    keep_gpu0: bool,
) -> Result<(LeanRun, Option<PowerTrace>), SimError> {
    let summary = Engine::new(machine).run_summary(workload)?;
    let gpus = summary
        .gpus
        .iter()
        .enumerate()
        .map(|(g, activity)| {
            LeanGpuStats::new(
                summary.totals.busy[g],
                summary.totals.coactive[g],
                PowerStats::from_segments(&activity.power),
                activity.overlap_windows.len(),
            )
        })
        .collect();
    let kept = summary
        .gpus
        .first()
        .filter(|_| keep_gpu0)
        .map(|a| PowerTrace::from_segments(&a.power));
    olab_sim::recycle_activity(summary.gpus);
    let run = LeanRun {
        e2e_s: summary.makespan.as_secs(),
        gpus,
        route: Route::EventLoop,
    };
    Ok((run, kept))
}

/// Runs a schedule through the event loop on any [`RateModel`] pricing
/// [`Op`] payloads, driving `obs` through every task edge and epoch. This
/// is the reference implementation the differential harness compares the
/// fast path against, and the hook that lets wrappers (fault injectors,
/// what-if models) and telemetry sinks reuse the standard per-GPU
/// statistics pipeline. Pass `&mut model` to inspect the model's state
/// after the run, and `&mut NullObserver` when nothing observes it. The
/// result's route is always [`Route::EventLoop`].
///
/// [`RateModel`]: olab_sim::RateModel
///
/// # Errors
///
/// Propagates [`SimError`] from the engine.
pub fn execute_model<M, O>(
    workload: &Workload<Op>,
    model: M,
    obs: &mut O,
) -> Result<RunResult, SimError>
where
    M: olab_sim::RateModel<Payload = Op>,
    O: EngineObserver,
{
    let trace = Engine::new(model).run_observed(workload, obs)?;
    Ok(run_result_from_trace(
        trace,
        workload.n_gpus(),
        Route::EventLoop,
    ))
}

/// Derives the per-GPU statistics of a [`RunResult`] from a trace. Both
/// execution paths (event loop and analytic fast path) funnel through this,
/// so the statistics derivation is shared by construction.
pub(crate) fn run_result_from_trace(trace: SimTrace, n_gpus: usize, route: Route) -> RunResult {
    // One pass over the records, in task order — the order the record-free
    // engine run sums in, so both give the same totals bit for bit.
    let StreamTotals { busy, coactive } = trace.stream_totals();
    let mut gpus = Vec::with_capacity(n_gpus);
    for g in 0..n_gpus {
        let activity = trace.gpu(GpuId(g as u16));
        gpus.push(GpuRunStats {
            compute_s: busy[g][StreamKind::Compute.index()].as_secs(),
            comm_s: busy[g][StreamKind::Comm.index()].as_secs(),
            overlapped_compute_s: coactive[g][StreamKind::Compute.index()].as_secs(),
            hidden_comm_s: coactive[g][StreamKind::Comm.index()].as_secs(),
            power: PowerTrace::from_segments(&activity.power),
            overlap_windows: activity
                .overlap_windows
                .iter()
                .map(|w| (w.start.as_secs(), w.end.as_secs()))
                .collect(),
        });
    }
    RunResult {
        e2e_s: trace.makespan().as_secs(),
        trace,
        gpus,
        route,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_ccl::{Algorithm, Collective};
    use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
    use olab_models::{memory::ActivationPolicy, ModelPreset};
    use olab_parallel::{fsdp, ComputeOp, ExecutionMode};
    use olab_sim::TaskSpec;

    fn tiny_fsdp(mode: ExecutionMode) -> RunResult {
        let (w, machine) = tiny_fsdp_workload(mode);
        execute(&w, &machine).expect("fsdp executes")
    }

    fn tiny_fsdp_workload(mode: ExecutionMode) -> (Workload<Op>, Machine) {
        let sku = GpuSku::h100();
        let machine = Machine::stock(sku.clone(), 4);
        let plan = fsdp::FsdpPlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 2,
            seq: 128,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
            activation_policy: ActivationPolicy::Full,
            grad_accum_steps: 1,
            overlap: Default::default(),
        };
        let w = fsdp::fsdp_timeline(&plan, &sku, &machine.config().topology, mode);
        (w, machine)
    }

    /// The grid path's overlapped leg: on every route — the clean single
    /// pass, the lanes and the event loop — the lean scalars are the
    /// summarized full run, and the kept trace is the full run's GPU 0
    /// trace, bit for bit.
    #[test]
    fn lean_runs_equal_the_summarized_full_run_on_every_route() {
        let mut routes = Vec::new();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Overlapped] {
            let (w, stock) = tiny_fsdp_workload(mode);
            let jittered = stock.clone().with_jitter(crate::Jitter {
                seed: 3,
                sigma: 0.05,
            });
            for machine in [stock.uncontended(), stock, jittered] {
                let full = execute(&w, &machine).expect("runs");
                let summary = LeanRun::summarize(&full);
                let lean = execute_lean(&w, &machine).expect("runs");
                assert_eq!(lean, summary, "{mode:?} on {:?}", full.route);
                let (kept, power) = execute_lean_keeping(&w, &machine, true).expect("runs");
                assert_eq!(kept, summary, "{mode:?} on {:?}", full.route);
                assert_eq!(power, Some(full.gpus[0].power.clone()), "{mode:?}");
                routes.push(full.route);
            }
        }
        assert!(routes.contains(&Route::FastPath) && routes.contains(&Route::EventLoop));
    }

    /// The ideal leg's makespan-only route equals the lean run's `e2e_s`
    /// bit for bit, on the route the lean run takes: the fast path on
    /// every feasible main-grid cell, the event loop under jitter.
    #[test]
    fn ideal_leg_is_the_lean_runs_makespan_on_the_main_grid() {
        let mut cells = 0;
        for exp in crate::registry::main_grid() {
            let Ok(policy) = exp.validate() else {
                continue;
            };
            let w = exp
                .timeline(ExecutionMode::Overlapped, policy)
                .expect("lowers");
            let stock = exp.machine();
            let jittered = stock.clone().with_jitter(crate::Jitter {
                seed: 7,
                sigma: 0.05,
            });
            for (machine, route) in [(stock, Route::FastPath), (jittered, Route::EventLoop)] {
                let ideal = machine.uncontended();
                let lean = execute_lean(&w, &ideal).expect("runs");
                assert_eq!(lean.route, route, "{exp}");
                let fast =
                    !ideal.has_jitter() && crate::analytic::fast_makespan(&w, &ideal).is_some();
                assert_eq!(fast, route == Route::FastPath, "{exp}");
                let e2e = ideal_e2e_s(&w, &machine).expect("runs");
                assert_eq!(e2e.to_bits(), lean.e2e_s.to_bits(), "{exp} on {route:?}");
            }
            cells += 1;
        }
        assert_eq!(cells, 107);
    }

    /// The record-free event loop, the event-loop route of `execute_lean`,
    /// is the summarized full event-loop run bit for bit, GPU 0's kept
    /// trace included. Checked where routing never sends it: the two
    /// fast-eligible shapes (sequential/contended, overlapped/uncontended)
    /// of every feasible main-grid cell, and a schedule with idle gaps.
    #[test]
    fn record_free_event_loop_is_the_summarized_full_run() {
        fn check(w: &Workload<Op>, machine: &Machine, what: &str) {
            let full = execute_model(w, machine.clone(), &mut NullObserver).expect("runs");
            let (lean, power) = lean_event_loop(w, machine.clone(), true).expect("runs");
            assert_eq!(lean, LeanRun::summarize(&full), "{what}");
            assert_eq!(power.as_ref(), Some(&full.gpus[0].power), "{what}");
        }
        let shapes: Vec<_> = crate::registry::main_grid()
            .into_iter()
            .filter_map(|exp| Some((exp.validate().ok()?, exp)))
            .flat_map(|(policy, exp)| {
                [ExecutionMode::Sequential, ExecutionMode::Overlapped]
                    .map(|mode| (policy, exp.clone(), mode))
            })
            .collect();
        assert_eq!(shapes.len(), 214);
        olab_grid::Pool::with_available_parallelism().map(&shapes, |(policy, exp, mode)| {
            let w = exp.timeline(*mode, *policy).expect("lowers");
            let machine = match mode {
                ExecutionMode::Sequential => exp.machine(),
                ExecutionMode::Overlapped => exp.machine().uncontended(),
            };
            check(&w, &machine, &format!("{exp} {mode:?}"));
        });

        // GPU 1 starts late, GPU 0 then idles until a two-GPU collective,
        // and GPUs 2 and 3 never run.
        let stock = Machine::stock(GpuSku::h100(), 4);
        let gemm = || {
            Op::Compute(ComputeOp::new(
                KernelKind::gemm(256, 256, 256),
                Precision::Fp16,
                Datapath::TensorCore,
            ))
        };
        let all_reduce = Op::Comm(olab_ccl::lower(
            &Collective::all_reduce(1 << 20, vec![GpuId(0), GpuId(1)]),
            Algorithm::Ring,
            &stock.config().sku,
            &stock.config().topology,
            Precision::Fp16,
        ));
        let mut w = Workload::new(4);
        let (gemm, all_reduce) = (w.intern(gemm()), w.intern(all_reduce));
        let k0 = w.push(TaskSpec::compute("k0", GpuId(0), gemm));
        let late = w.push(TaskSpec::compute("late", GpuId(1), gemm).after(k0));
        let ar = w.push(
            TaskSpec::new(
                "all_reduce",
                [GpuId(0), GpuId(1)],
                StreamKind::Comm,
                all_reduce,
            )
            .after(late),
        );
        w.push(TaskSpec::compute("k1", GpuId(0), gemm).after(ar));
        w.push(TaskSpec::compute("k2", GpuId(0), gemm));
        for machine in [stock.uncontended(), stock] {
            check(&w, &machine, "idle gaps");
        }
    }

    #[test]
    fn overlapped_beats_sequential_end_to_end() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(
            ovl.e2e_s < seq.e2e_s,
            "overlap {} should beat sequential {}",
            ovl.e2e_s,
            seq.e2e_s
        );
    }

    #[test]
    fn sequential_mode_has_zero_overlap_ratio() {
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(seq.overlap_ratio() < 1e-9, "got {}", seq.overlap_ratio());
    }

    #[test]
    fn overlapped_mode_hides_communication() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        assert!(ovl.overlap_ratio() > 0.02, "got {}", ovl.overlap_ratio());
        assert!(ovl.hidden_comm_s() > 0.0);
        assert!(!ovl.gpus[0].overlap_windows.is_empty());
    }

    #[test]
    fn compute_time_is_larger_under_overlap_than_sequential() {
        // Eq. 1's numerator: contention stretches compute kernels.
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        let seq = tiny_fsdp(ExecutionMode::Sequential);
        assert!(ovl.compute_s() > seq.compute_s());
    }

    #[test]
    fn power_statistics_are_populated() {
        let ovl = tiny_fsdp(ExecutionMode::Overlapped);
        assert!(ovl.average_power_w() > GpuSku::h100().idle_w);
        assert!(ovl.peak_power_w() > ovl.average_power_w());
        assert!(ovl.energy_j() > 0.0);
    }
}
