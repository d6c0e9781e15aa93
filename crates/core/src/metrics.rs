//! The paper's metrics (Section IV-D, Eqs. 1–5).

use crate::{LeanRun, RunResult, RunTotals};

/// All metrics for one experiment cell, derived exactly as the paper
/// derives them from measured quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapMetrics {
    /// Eq. 1: `(Compute_overlapping - Compute_sequential) / Compute_sequential`.
    pub compute_slowdown: f64,
    /// Eq. 2: fraction of compute time co-active with communication in the
    /// overlapped run.
    pub overlap_ratio: f64,
    /// Measured end-to-end latency of the overlapped run, seconds.
    pub e2e_overlapped_s: f64,
    /// Eq. 4: `E2E_overlapping - Slowdown_compute` (per-GPU average of the
    /// compute-time inflation), seconds.
    pub e2e_ideal_s: f64,
    /// Eq. 5: `E2E_ideal + hidden communication`, seconds.
    pub e2e_sequential_derived_s: f64,
    /// Directly measured sequential run, seconds (the simulator can measure
    /// what the paper had to derive; both are reported).
    pub e2e_sequential_measured_s: f64,
    /// Mean board power of the overlapped run, watts.
    pub avg_power_w: f64,
    /// Peak instantaneous board power of the overlapped run, watts.
    pub peak_power_w: f64,
    /// Mean board power of the sequential run, watts.
    pub avg_power_sequential_w: f64,
    /// Peak board power of the sequential run, watts.
    pub peak_power_sequential_w: f64,
    /// Energy of one overlapped iteration, joules.
    pub energy_j: f64,
}

impl OverlapMetrics {
    /// Derives all metrics from the overlapped and sequential runs: the
    /// [`derive_lean`](OverlapMetrics::derive_lean) of their scalar
    /// reductions.
    pub fn derive(overlapped: &RunResult, sequential: &RunResult) -> Self {
        Self::derive_lean(
            &LeanRun::summarize(overlapped),
            &LeanRun::summarize(sequential),
        )
    }

    /// Derives all metrics from the scalar statistics of the overlapped
    /// and sequential runs. This is the one formula: the report path
    /// ([`derive`](OverlapMetrics::derive)) and the grid path both use it.
    ///
    /// Per-GPU sums are averaged over GPUs (the node is symmetric), matching
    /// the paper's per-device measurement methodology.
    pub fn derive_lean(overlapped: &LeanRun, sequential: &LeanRun) -> Self {
        let n = overlapped.gpus.len().max(1) as f64;
        let compute_ovl = overlapped.compute_s() / n;
        let compute_seq = sequential.compute_s() / n;
        let compute_slowdown = if compute_seq > 0.0 {
            (compute_ovl - compute_seq) / compute_seq
        } else {
            0.0
        };

        // Eq. 3/4: the compute-time inflation, as wall-clock per GPU.
        let slowdown_s = (compute_ovl - compute_seq).max(0.0);
        let e2e_ideal_s = (overlapped.e2e_s - slowdown_s).max(0.0);
        // Eq. 5: sequential = ideal + the communication that overlap hid.
        let hidden_comm_s = overlapped.hidden_comm_s() / n;
        let e2e_sequential_derived_s = e2e_ideal_s + hidden_comm_s;

        let (avg_power_w, peak_power_w, energy_j) = overlapped.power_summary();
        let (avg_power_sequential_w, peak_power_sequential_w, _) = sequential.power_summary();
        OverlapMetrics {
            compute_slowdown,
            overlap_ratio: overlapped.overlap_ratio(),
            e2e_overlapped_s: overlapped.e2e_s,
            e2e_ideal_s,
            e2e_sequential_derived_s,
            e2e_sequential_measured_s: sequential.e2e_s,
            avg_power_w,
            peak_power_w,
            avg_power_sequential_w,
            peak_power_sequential_w,
            energy_j,
        }
    }

    /// Overlapped-vs-ideal degradation (the paper's "45% higher than ideal"
    /// style numbers): `E2E_overlapping / E2E_ideal - 1`.
    pub fn overlap_vs_ideal(&self) -> f64 {
        if self.e2e_ideal_s > 0.0 {
            self.e2e_overlapped_s / self.e2e_ideal_s - 1.0
        } else {
            0.0
        }
    }

    /// Sequential-vs-overlapped degradation (the paper's headline 10.2%
    /// mean): `E2E_sequential / E2E_overlapping - 1`.
    pub fn sequential_vs_overlapped(&self) -> f64 {
        if self.e2e_overlapped_s > 0.0 {
            self.e2e_sequential_measured_s / self.e2e_overlapped_s - 1.0
        } else {
            0.0
        }
    }
}

/// Goodput: training samples actually committed per wall-clock second.
///
/// Unlike raw throughput, the wall-clock here includes everything the job
/// paid for — stalls, checkpoint writes, restarts, re-sharding — and the
/// numerator only counts samples whose work survived (lost-to-rollback
/// iterations don't). A job that aborts with nothing durable has goodput 0
/// no matter how fast it was running when it died.
pub fn goodput_samples_per_s(committed_samples: f64, wall_s: f64) -> f64 {
    if wall_s > 0.0 && committed_samples > 0.0 {
        committed_samples / wall_s
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, Machine};
    use olab_gpu::{Datapath, GpuSku, Precision};
    use olab_models::{memory::ActivationPolicy, ModelPreset};
    use olab_parallel::{fsdp, ExecutionMode};

    fn metrics() -> OverlapMetrics {
        let sku = GpuSku::mi250();
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
        let topo = machine.config().topology.clone();
        let ovl = execute(
            &fsdp::fsdp_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped),
            &machine,
        )
        .unwrap();
        let seq = execute(
            &fsdp::fsdp_timeline(&plan, &sku, &topo, ExecutionMode::Sequential),
            &machine,
        )
        .unwrap();
        OverlapMetrics::derive(&ovl, &seq)
    }

    #[test]
    fn ordering_ideal_overlapped_sequential() {
        let m = metrics();
        assert!(m.e2e_ideal_s <= m.e2e_overlapped_s);
        assert!(m.e2e_overlapped_s < m.e2e_sequential_measured_s);
    }

    #[test]
    fn compute_slowdown_is_positive_under_contention() {
        let m = metrics();
        assert!(m.compute_slowdown > 0.0, "got {}", m.compute_slowdown);
        assert!(m.compute_slowdown < 1.0, "got {}", m.compute_slowdown);
    }

    #[test]
    fn derived_sequential_approximates_measured_sequential() {
        // Eq. 5 is the paper's estimate of what we can actually measure in
        // the simulator: they should agree to first order.
        let m = metrics();
        let ratio = m.e2e_sequential_derived_s / m.e2e_sequential_measured_s;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn degradation_helpers_are_consistent() {
        let m = metrics();
        assert!(m.overlap_vs_ideal() >= 0.0);
        assert!(m.sequential_vs_overlapped() > 0.0);
    }

    #[test]
    fn goodput_is_zero_without_committed_work_or_wall_clock() {
        assert_eq!(goodput_samples_per_s(0.0, 10.0), 0.0);
        assert_eq!(goodput_samples_per_s(100.0, 0.0), 0.0);
        assert!((goodput_samples_per_s(100.0, 4.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_power_exceeds_sequential_power() {
        let m = metrics();
        assert!(
            m.peak_power_w >= m.peak_power_sequential_w,
            "{} vs {}",
            m.peak_power_w,
            m.peak_power_sequential_w
        );
    }
}
