//! Executing schedules and collecting run statistics.

use crate::fastpath::Route;
use crate::Machine;
use olab_parallel::Op;
use olab_power::PowerTrace;
use olab_sim::{
    Engine, EngineObserver, GpuId, NullObserver, SimError, SimTrace, StreamKind, Workload,
};

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
    /// Total compute time across GPUs, seconds.
    pub fn compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.compute_s).sum()
    }

    /// Total communication time across GPUs, seconds.
    pub fn comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.comm_s).sum()
    }

    /// Total compute time co-active with communication, seconds.
    pub fn overlapped_compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.overlapped_compute_s).sum()
    }

    /// Total hidden (co-active) communication time, seconds.
    pub fn hidden_comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.hidden_comm_s).sum()
    }

    /// Eq. 2: fraction of compute time overlapped with communication.
    pub fn overlap_ratio(&self) -> f64 {
        let c = self.compute_s();
        if c > 0.0 {
            self.overlapped_compute_s() / c
        } else {
            0.0
        }
    }

    /// Mean over GPUs of the time-average power, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus.iter().map(|g| g.power.average()).sum::<f64>() / self.gpus.len() as f64
    }

    /// One-pass power summary: (mean average watts, peak watts, total
    /// joules). Matches [`average_power_w`](RunResult::average_power_w),
    /// [`peak_power_w`](RunResult::peak_power_w) and
    /// [`energy_j`](RunResult::energy_j) bit-for-bit while walking each
    /// GPU's segments once instead of three times.
    pub fn power_summary(&self) -> (f64, f64, f64) {
        let (mut avg, mut peak, mut energy) = (0.0f64, 0.0f64, 0.0f64);
        for g in &self.gpus {
            let s = g.power.stats();
            avg += s.average_w;
            peak = peak.max(s.peak_w);
            energy += s.energy_j;
        }
        let avg = if self.gpus.is_empty() {
            0.0
        } else {
            avg / self.gpus.len() as f64
        };
        (avg, peak, energy)
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

/// Scalar-only output of executing one schedule: everything a metrics
/// consumer reads from a [`RunResult`], with no trace, task records, or
/// power segments behind it.
///
/// Produced either by [`execute_lean`] (where the analytic fast path can
/// compute these quantities directly, without materializing a trace at
/// all — its cheapest mode) or from an existing full result via
/// [`LeanRun::summarize`].
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
    /// bit-for-bit; the differential suite in `olab-oracle` pins that the
    /// fast path's directly-computed [`execute_lean`] output agrees with
    /// this reduction of the event loop's result.
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

    /// Total compute time across GPUs, seconds.
    pub fn compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.compute_s).sum()
    }

    /// Total communication time across GPUs, seconds.
    pub fn comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.comm_s).sum()
    }

    /// Total compute time co-active with communication, seconds.
    pub fn overlapped_compute_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.overlapped_compute_s).sum()
    }

    /// Total hidden (co-active) communication time, seconds.
    pub fn hidden_comm_s(&self) -> f64 {
        self.gpus.iter().map(|g| g.hidden_comm_s).sum()
    }

    /// Eq. 2: fraction of compute time overlapped with communication.
    pub fn overlap_ratio(&self) -> f64 {
        let c = self.compute_s();
        if c > 0.0 {
            self.overlapped_compute_s() / c
        } else {
            0.0
        }
    }

    /// Mean over GPUs of the time-average power, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.gpus.is_empty() {
            return 0.0;
        }
        self.gpus.iter().map(|g| g.average_power_w).sum::<f64>() / self.gpus.len() as f64
    }

    /// Highest instantaneous draw across GPUs, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.gpus.iter().map(|g| g.peak_power_w).fold(0.0, f64::max)
    }

    /// Total energy across GPUs, joules.
    pub fn energy_j(&self) -> f64 {
        self.gpus.iter().map(|g| g.energy_j).sum()
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
    let start = olab_metrics::now_if_enabled();
    let m = crate::fastpath::route_metrics();
    if crate::fastpath::machine_eligible(machine) {
        if let Some(result) = crate::analytic::execute_fast(workload, machine) {
            m.fast_full.inc();
            m.fast_full_ns.observe_since(start);
            return Ok(result);
        }
    }
    let result = execute_model(workload, machine.clone(), &mut NullObserver);
    m.event_loop_full.inc();
    m.event_loop_full_ns.observe_since(start);
    result
}

/// Runs a schedule on a machine, producing only the scalar [`LeanRun`]
/// metrics.
///
/// This is the cheapest way to evaluate a cell when the caller needs
/// numbers, not traces: a fast-path-eligible run computes the statistics in
/// closed form without materializing task records or power segments at all,
/// while an ineligible run falls back to the event loop and reduces its
/// full result with [`LeanRun::summarize`]. Path routing and counters match
/// [`execute`] exactly, and [`LeanRun::route`] records which path ran.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (malformed DAG, deadlock, or a
/// misbehaving rate model).
pub fn execute_lean(workload: &Workload<Op>, machine: &Machine) -> Result<LeanRun, SimError> {
    let start = olab_metrics::now_if_enabled();
    let m = crate::fastpath::route_metrics();
    if crate::fastpath::machine_eligible(machine) {
        if let Some(result) = crate::analytic::execute_fast_lean(workload, machine) {
            m.fast_lean.inc();
            m.fast_lean_ns.observe_since(start);
            return Ok(result);
        }
    }
    let result = execute_model(workload, machine.clone(), &mut NullObserver)?;
    m.event_loop_lean.inc();
    m.event_loop_lean_ns.observe_since(start);
    Ok(LeanRun::summarize(&result))
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
    // One pass over the records accumulates all four per-(GPU, stream)
    // sums. Each (gpu, stream) bucket sees its records in the same order
    // `SimTrace::stream_time_on`/`coactive_time_on` would visit them, so
    // the totals are bit-identical to the accessor-per-quantity derivation
    // this replaces — at 2×streams×gpus fewer record walks.
    let mut busy = vec![[olab_sim::SimTime::ZERO; 2]; n_gpus];
    let mut coactive = vec![[olab_sim::SimTime::ZERO; 2]; n_gpus];
    for r in trace.records() {
        let s = r.stream.index();
        for g in &r.participants {
            busy[g.index()][s] += r.duration();
            coactive[g.index()][s] += r.coactive;
        }
    }
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
    use olab_gpu::{Datapath, GpuSku, Precision};
    use olab_models::{memory::ActivationPolicy, ModelPreset};
    use olab_parallel::{fsdp, ExecutionMode};

    fn tiny_fsdp(mode: ExecutionMode) -> RunResult {
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
        execute(&w, &machine).expect("fsdp executes")
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
