//! The machine model: pricing compute and communication sharing a GPU.
//!
//! This is the paper's core phenomenon rendered as a rate model. Each epoch
//! (whenever the running-task set changes) the model decides, per GPU:
//!
//! 1. **SM occupancy** — a co-resident collective's channel kernels occupy
//!    `sm_fraction` of the SMs; the compute kernel's FLOP side slows by
//!    `1/(1 - sm_fraction)`.
//! 2. **HBM sharing** — the collective streams `hbm_bytes_per_wire_byte`
//!    bytes of device memory per wire byte; if combined demand exceeds the
//!    effective HBM bandwidth, both sides are scaled proportionally.
//! 3. **Cache interference** — a fixed multiplicative penalty
//!    (`l2_interference`) applies to compute while communication is
//!    co-resident.
//! 4. **Power / DVFS** — component power is summed; the governor throttles
//!    the core clock if the (strict or transient) limit is exceeded,
//!    slowing the FLOP side of every kernel.
//!
//! With `contended = false` the model prices every task as if it ran alone
//! (used to cross-check the paper's Eq. 4 "ideal" derivation).
//!
//! Pricing one GPU is a pure function of its *class*: the value of its
//! compute payload, the load its collective puts on it and its clock cap
//! ([`PriceClass`], which is all [`Machine::gpu_epoch`] takes). A run
//! repeats a few dozen classes thousands of times — every layer runs the
//! same kernels under the same collectives, on every rank — so the
//! machine prices each class once per run, in a table keyed by value.
//!
//! A workload interns each distinct payload once, so a payload id names a
//! value within the run, and the machine keys everything else on ids:
//! (compute payload id, comm payload id, clock cap), a [`PriceKey`] of two
//! words. One pass over the running set builds every GPU's key; the cap
//! joins it only while caps are set. Most epochs leave most GPUs' payloads
//! unchanged (an epoch ends when *one* task finishes), so each GPU first
//! checks whether it still runs the payloads it was last priced for. A GPU
//! whose key changed looks it up in a small per-run id cache; only a key
//! seen for the first time finds its payloads in the running set, builds
//! its class and goes to the value table, which prices a class seen for
//! the first time. All three reuses return exactly what re-pricing would,
//! bit for bit, and only the value table decides what counts as priced.
//! A pricing holds the GPU's draw as well as its rates, so [`settle`]
//! copies power and draws each task's noise as it sets the task's rate.

use std::collections::HashMap;

use olab_ccl::CommOp;
use olab_gpu::power::Utilization;
use olab_gpu::roofline::KernelDemand;
use olab_gpu::{roofline, ContentionProfile, DvfsGovernor, GpuSku, PowerProfile};
use olab_net::Topology;
use olab_parallel::{ComputeOp, Op};
use olab_sim::{GpuCounters, GpuId, PayloadId, RateModel, RunningTask, SeededRng};

use crate::analytic::FxBuildHasher;

/// Fraction of datasheet HBM bandwidth usable when compute and
/// communication interleave access streams.
const SHARED_HBM_EFFICIENCY: f64 = 0.88;

/// Run-to-run measurement noise, mirroring the variability real systems
/// show (clock jitter, scheduling noise, thermal state). The paper averages
/// every metric over 25 runs for exactly this reason.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jitter {
    /// RNG seed (same seed => identical run).
    pub seed: u64,
    /// Relative rate noise per task-epoch (~coefficient of variation).
    pub sigma: f64,
}

/// Configuration of a simulated node.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The GPU SKU populating the node (homogeneous).
    pub sku: GpuSku,
    /// The interconnect.
    pub topology: Topology,
    /// The DVFS governor (power limit + frequency cap).
    pub governor: DvfsGovernor,
    /// Whether co-resident tasks contend for resources.
    pub contended: bool,
    /// Optional per-epoch rate noise (None = fully deterministic).
    pub jitter: Option<Jitter>,
}

impl MachineConfig {
    /// Stock configuration for a SKU: vendor-appropriate topology, stock
    /// power limit, contention on.
    pub fn stock(sku: GpuSku, n_gpus: usize) -> Self {
        let topology = match sku.vendor {
            olab_gpu::Vendor::Nvidia => {
                Topology::nvswitch(n_gpus, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
            olab_gpu::Vendor::Amd => {
                Topology::full_mesh(n_gpus, sku.link_bw_unidir_gbs, sku.link_latency_us)
            }
        };
        let governor = DvfsGovernor::stock(sku.tdp_w);
        MachineConfig {
            sku,
            topology,
            governor,
            contended: true,
            jitter: None,
        }
    }
}

/// The rate model for one node.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    power_profile: PowerProfile,
    contention: ContentionProfile,
    rng: Option<SeededRng>,
    /// Transient per-GPU frequency caps in `(0, 1]` (empty = none). Fault
    /// layers update these at epoch boundaries to model thermal throttle
    /// windows; the governor then prices both the slower clock and its
    /// lower dynamic power.
    gpu_freq_caps: Vec<f64>,
    /// Each GPU's pricing for the epoch whose rates were last assigned,
    /// indexed by GPU: the first test of [`RateModel::assign_rates`], and
    /// the telemetry the simulated NVML poll reads through
    /// [`RateModel::counters`]. Cleared by [`RateModel::begin_run`].
    priced: Vec<Priced>,
    /// This run's id cache: the pricing of every key met so far. Cleared
    /// by [`RateModel::begin_run`]: payload ids name values only within
    /// one workload.
    keys: HashMap<PriceKey, Pricing, FxBuildHasher>,
    /// This run's pricing table: every class priced so far. Cleared by
    /// [`RateModel::begin_run`], never shared across runs or machines.
    classes: HashMap<PriceClass, Pricing, FxBuildHasher>,
    /// This epoch's key of every GPU, indexed by GPU: scratch reused
    /// across epochs, so the hot path is allocation-free once warm.
    epoch_keys: Vec<PriceKey>,
}

/// What one GPU was priced for in an epoch: the payloads of its running
/// compute and comm tasks and its clock cap. Equal keys hold equal
/// classes within one run. Two words, so the per-GPU check and the id
/// cache compare and hash two integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PriceKey {
    /// One plus the payload id of the GPU's compute task in the low half,
    /// of its comm task in the high half; zero for an idle stream.
    payloads: u64,
    /// `to_bits` of the active clock cap, or [`PriceKey::UNCAPPED`].
    cap: u64,
}

impl PriceKey {
    /// The cap of an uncapped GPU: 1.0, which no active cap is.
    const UNCAPPED: u64 = 1.0f64.to_bits();

    /// An idle, uncapped GPU.
    const IDLE: PriceKey = PriceKey {
        payloads: 0,
        cap: Self::UNCAPPED,
    };

    /// Records `id` as the payload of the GPU's task of `payload`'s kind.
    fn add(&mut self, payload: &Op, id: PayloadId) {
        let shift = match payload {
            Op::Compute(_) => 0,
            Op::Comm(_) => 32,
        };
        debug_assert_eq!(
            self.payloads >> shift & 0xffff_ffff,
            0,
            "two tasks on one stream"
        );
        self.payloads |= u64::from(id.0 + 1) << shift;
    }

    fn compute(self) -> Option<PayloadId> {
        (self.payloads as u32).checked_sub(1).map(PayloadId)
    }

    fn comm(self) -> Option<PayloadId> {
        ((self.payloads >> 32) as u32).checked_sub(1).map(PayloadId)
    }

    fn cap(self) -> Option<u64> {
        (self.cap != Self::UNCAPPED).then_some(self.cap)
    }
}

/// Everything [`Machine::gpu_epoch`] reads about one GPU, by value: its
/// compute payload, its collective's load and its clock cap. Equal
/// classes price bit-identically on every GPU of one machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PriceClass {
    compute: Option<ComputeOp>,
    comm: Option<CommLoad>,
    /// `to_bits` of the active clock cap, if any.
    cap: Option<u64>,
}

/// The part of a collective's payload that pricing a GPU reads: the SM
/// share of its channel kernels and its HBM byte rate (the wire rate
/// amplified by staging traffic). Held as `to_bits`, so equal loads hash
/// and compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CommLoad {
    sm_fraction: u64,
    hbm_bytes_per_sec: u64,
}

impl CommLoad {
    fn of(op: &CommOp) -> Self {
        let hbm_bytes_per_sec = if op.wire_bytes_per_rank <= 0.0 {
            0.0
        } else {
            let amplification = op.hbm_bytes_per_rank / op.wire_bytes_per_rank;
            op.wire_rate_bytes_per_sec * amplification
        };
        CommLoad {
            sm_fraction: op.sm_fraction.to_bits(),
            hbm_bytes_per_sec: hbm_bytes_per_sec.to_bits(),
        }
    }

    fn sm_fraction(self) -> f64 {
        f64::from_bits(self.sm_fraction)
    }

    fn hbm_bytes_per_sec(self) -> f64 {
        f64::from_bits(self.hbm_bytes_per_sec)
    }
}

/// What a class prices to: everything [`settle`] and the telemetry read.
#[derive(Debug, Clone, Copy, Default)]
struct Pricing {
    /// Settled rate of the class's compute kernel, 1/s (0 without one).
    compute_rate: f64,
    /// Rate factor applied to a co-resident collective.
    comm_factor: f64,
    /// The GPU's board draw, watts: the class's power when a task runs
    /// on it, the idle draw when none does.
    draw_w: f64,
    /// Telemetry, board power included.
    counters: GpuCounters,
}

/// One GPU's pricing and what it was priced for.
#[derive(Debug, Clone, Copy, Default)]
struct Priced {
    /// What `pricing` was priced for (`None`: nothing yet).
    key: Option<PriceKey>,
    pricing: Pricing,
}

#[derive(Debug, Clone, Copy)]
struct GpuEpoch {
    /// Available SM fraction for the compute kernel.
    sm_avail: f64,
    /// Fraction of the compute kernel's achievable bandwidth it gets.
    compute_bw_fraction: f64,
    /// Rate factor applied to a co-resident collective.
    comm_factor: f64,
    /// Cache-interference multiplier on compute duration.
    l2: f64,
    /// Selected core-clock factor.
    freq: f64,
    /// Board power this epoch, watts.
    power_w: f64,
    /// Demand decomposition of the co-resident compute kernel, if any.
    demand: Option<KernelDemand>,
}

impl GpuEpoch {
    /// Duration of the compute kernel at this epoch's factors, if any.
    fn compute_duration(&self) -> Option<f64> {
        self.demand.map(|d| {
            let t_flop = d.compute_time(self.freq) / self.sm_avail;
            let t_mem = d.memory_time(self.compute_bw_fraction);
            (t_flop.max(t_mem) + d.launch_s) * self.l2
        })
    }
}

impl Default for GpuEpoch {
    fn default() -> Self {
        GpuEpoch {
            sm_avail: 1.0,
            compute_bw_fraction: 1.0,
            comm_factor: 1.0,
            l2: 1.0,
            freq: 1.0,
            power_w: 0.0,
            demand: None,
        }
    }
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let power_profile = config.sku.power();
        let contention = config.sku.contention();
        let rng = config.jitter.map(|j| SeededRng::seed_from_u64(j.seed));
        Machine {
            config,
            power_profile,
            contention,
            rng,
            gpu_freq_caps: Vec::new(),
            priced: Vec::new(),
            keys: HashMap::default(),
            classes: HashMap::default(),
            epoch_keys: Vec::new(),
        }
    }

    /// Replaces the transient per-GPU frequency caps in place: the `g`-th
    /// item caps GPU `g`'s clock factor from the next epoch on (values
    /// `>= 1.0` and missing entries mean uncapped; no items clears all
    /// caps). Only GPUs whose cap changed are re-priced.
    pub fn set_gpu_freq_caps(&mut self, caps: impl IntoIterator<Item = f64>) {
        self.gpu_freq_caps.clear();
        self.gpu_freq_caps.extend(caps);
    }

    /// The transient clock cap on GPU `g`, if one is active.
    fn freq_cap(&self, g: usize) -> Option<f64> {
        self.gpu_freq_caps.get(g).copied().filter(|&cap| cap < 1.0)
    }

    /// The same machine with per-epoch measurement noise.
    pub fn with_jitter(&self, jitter: Jitter) -> Self {
        let mut config = self.config.clone();
        config.jitter = Some(jitter);
        Self::new(config)
    }

    /// Stock machine for a SKU (see [`MachineConfig::stock`]).
    pub fn stock(sku: GpuSku, n_gpus: usize) -> Self {
        Self::new(MachineConfig::stock(sku, n_gpus))
    }

    /// The same machine with contention disabled (each task priced alone).
    pub fn uncontended(&self) -> Self {
        let mut config = self.config.clone();
        config.contended = false;
        Self::new(config)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The class of GPU `g` running `kernel` and/or `comm`.
    fn class(&self, g: usize, kernel: Option<&ComputeOp>, comm: Option<&CommOp>) -> PriceClass {
        PriceClass {
            compute: kernel.cloned(),
            comm: comm.map(CommLoad::of),
            cap: self.freq_cap(g).map(f64::to_bits),
        }
    }

    /// The class `key` names in this epoch: its payloads are those of the
    /// running tasks carrying its payload ids.
    fn class_of(key: PriceKey, running: &[RunningTask<'_, Op>]) -> PriceClass {
        let payload = |id: Option<PayloadId>| {
            id.and_then(|id| running.iter().find(|task| task.payload_id == id))
                .map(|task| task.payload)
        };
        PriceClass {
            compute: payload(key.compute()).and_then(Op::as_compute).cloned(),
            comm: payload(key.comm()).and_then(Op::as_comm).map(CommLoad::of),
            cap: key.cap(),
        }
    }

    /// Prices one GPU of class `class` for an epoch: contention factors,
    /// DVFS decision, board power, and telemetry counters.
    ///
    /// This is the single source of pricing truth. [`Machine::assign_rates`]
    /// calls it once per run for each class it meets; the analytic fast
    /// path (`olab_core::analytic`) calls it per distinct payload, which is
    /// what guarantees the two execution paths agree by construction. It
    /// reads nothing about the GPU but what the class holds.
    fn gpu_epoch(&self, class: &PriceClass) -> (GpuEpoch, GpuCounters) {
        let sku = &self.config.sku;
        let raw_bw = sku.mem_bw_gbs * 1e9;
        let capacity = raw_bw * SHARED_HBM_EFFICIENCY;
        let contended = self.config.contended;
        let kernel = class.compute.as_ref();
        let comm = class.comm;
        let mut epoch = GpuEpoch {
            demand: kernel.map(|c| roofline::demand(&c.kernel, sku, c.precision, c.datapath)),
            ..GpuEpoch::default()
        };

        // SM occupancy + cache interference.
        if let (true, Some(load)) = (contended && kernel.is_some(), comm) {
            epoch.sm_avail = (1.0 - load.sm_fraction()).max(0.05);
            epoch.l2 = self.contention.l2_interference;
        }

        // HBM sharing.
        let comm_demand = comm.map_or(0.0, CommLoad::hbm_bytes_per_sec);
        let compute_demand = epoch.demand.as_ref().map_or(0.0, |d| d.bandwidth_demand());
        if contended && comm_demand + compute_demand > capacity && comm_demand > 0.0 {
            let scale = capacity / (comm_demand + compute_demand);
            epoch.comm_factor = scale;
            if let Some(d) = &epoch.demand {
                epoch.compute_bw_fraction =
                    (compute_demand * scale / d.bytes_per_sec).clamp(0.05, 1.0);
            }
        }

        // Power components.
        let mut util = Utilization::idle();
        let mut flop_busy = 0.0;
        if let Some(d) = &epoch.demand {
            let t_flop = d.compute_time(1.0) / epoch.sm_avail;
            let t_mem = d.memory_time(epoch.compute_bw_fraction);
            let span = t_flop.max(t_mem) + d.launch_s;
            flop_busy = (t_flop / span).clamp(0.0, 1.0);
            if d.on_tensor_core {
                util.tensor = flop_busy;
                util.vector = 0.15 * flop_busy; // address gen, epilogues
            } else {
                util.vector = flop_busy;
            }
            util.mem += (d.bytes / span) / raw_bw;
        }
        if comm.is_some() {
            // Links, PHYs and copy engines are busy for the whole
            // transfer even when protocol overheads cap the *useful*
            // rate, so comm-engine activity tracks the share factor,
            // not the bus efficiency.
            util.comm = epoch.comm_factor.clamp(0.0, 1.0);
            util.mem += comm_demand * epoch.comm_factor / raw_bw;
        }
        util.mem = util.mem.clamp(0.0, 1.0);

        let governor = match class.cap {
            Some(cap) => self.config.governor.capped(f64::from_bits(cap)),
            None => self.config.governor,
        };
        if contended {
            let decision = governor.decide(&self.power_profile, &util);
            epoch.freq = decision.freq_factor;
            epoch.power_w = decision.power_w;
        } else {
            epoch.freq = governor.max_freq_factor;
            epoch.power_w = self.power_profile.instantaneous(&util, epoch.freq);
        }

        // Telemetry: compute kernels occupy their busy share of the
        // SMs they were granted; a co-resident collective's channel
        // kernels pin `sm_fraction` on top.
        let comm_sm = comm.map_or(0.0, CommLoad::sm_fraction);
        let counters = GpuCounters {
            sm_occupancy: (flop_busy * epoch.sm_avail + comm_sm).clamp(0.0, 1.0),
            hbm_util: util.mem,
            link_util: util.comm,
            freq_factor: epoch.freq,
            power_w: epoch.power_w,
        };
        (epoch, counters)
    }

    /// What `class` prices to, as [`settle`] reads it.
    fn price(&self, class: &PriceClass) -> Pricing {
        let (epoch, counters) = self.gpu_epoch(class);
        let busy = class.compute.is_some() || class.comm.is_some();
        Pricing {
            compute_rate: epoch.compute_duration().map_or(0.0, |d| 1.0 / d),
            comm_factor: epoch.comm_factor,
            draw_w: if busy {
                counters.power_w
            } else {
                self.power_profile.idle_w
            },
            counters,
        }
    }

    /// Duration of a compute op running with nothing co-resident on GPU
    /// `g`, priced exactly as [`Machine::assign_rates`] would price it
    /// (including DVFS and any transient frequency cap on `g`).
    pub(crate) fn solo_compute_duration(&self, g: usize, c: &ComputeOp) -> f64 {
        let (epoch, _) = self.gpu_epoch(&self.class(g, Some(c), None));
        epoch.compute_duration().expect("kernel demand computed")
    }

    /// Duration of a collective running with nothing co-resident on any
    /// participant, priced exactly as [`Machine::assign_rates`] would.
    ///
    /// Note this is *not* always `op.isolated_duration_s()`: on a contended
    /// machine a collective's HBM staging traffic alone can oversubscribe
    /// the shared-bandwidth capacity and throttle its own wire rate.
    pub(crate) fn solo_comm_duration(&self, participants: &[GpuId], op: &CommOp) -> f64 {
        let factor = participants
            .iter()
            .map(|g| {
                self.gpu_epoch(&self.class(g.index(), None, Some(op)))
                    .0
                    .comm_factor
            })
            .fold(1.0_f64, f64::min);
        op.latency_s + op.wire_bytes_per_rank / (op.wire_rate_bytes_per_sec * factor.max(0.05))
    }

    /// Board power of GPU `g` for a segment with the given co-resident set,
    /// matching the engine's per-epoch power assignment (idle draw when
    /// nothing runs).
    pub(crate) fn segment_power_w(
        &self,
        g: usize,
        kernel: Option<&ComputeOp>,
        comm: Option<&CommOp>,
    ) -> f64 {
        if kernel.is_none() && comm.is_none() {
            self.power_profile.idle_w
        } else {
            self.gpu_epoch(&self.class(g, kernel, comm)).0.power_w
        }
    }

    /// Whether per-epoch rate noise is configured.
    pub(crate) fn has_jitter(&self) -> bool {
        self.config.jitter.is_some()
    }

    /// Whether any transient per-GPU frequency cap is active.
    pub(crate) fn has_gpu_freq_caps(&self) -> bool {
        self.gpu_freq_caps.iter().any(|&c| c < 1.0)
    }

    /// Whether co-resident tasks contend for resources.
    pub(crate) fn is_contended(&self) -> bool {
        self.config.contended
    }
}

impl RateModel for Machine {
    type Payload = Op;

    fn begin_run(&mut self) {
        self.priced.clear();
        self.keys.clear();
        self.classes.clear();
    }

    fn assign_rates(
        &mut self,
        running: &[RunningTask<'_, Op>],
        rates: &mut [f64],
        power: &mut [f64],
    ) {
        let n_gpus = power.len();

        // Every GPU's key, from one pass over the running set: the payload
        // of the (at most one) task on each of its streams.
        self.epoch_keys.clear();
        self.epoch_keys.resize(n_gpus, PriceKey::IDLE);
        for task in running {
            for g in task.participants {
                self.epoch_keys[g.index()].add(task.payload, task.payload_id);
            }
        }

        // A GPU still running the payloads it was last priced for keeps its
        // pricing; any other looks its key up, and a new key its class,
        // pricing the class on first sight.
        self.priced.resize(n_gpus, Priced::default());
        let capped = !self.gpu_freq_caps.is_empty();
        let mut fresh = 0u64;
        for g in 0..n_gpus {
            let mut key = self.epoch_keys[g];
            if capped {
                key.cap = self.freq_cap(g).map_or(PriceKey::UNCAPPED, f64::to_bits);
            }
            if self.priced[g].key == Some(key) {
                continue;
            }
            let pricing = match self.keys.get(&key) {
                Some(&pricing) => pricing,
                None => {
                    let class = Self::class_of(key, running);
                    let pricing = match self.classes.get(&class) {
                        Some(&pricing) => pricing,
                        None => {
                            fresh += 1;
                            let pricing = self.price(&class);
                            self.classes.insert(class, pricing);
                            pricing
                        }
                    };
                    self.keys.insert(key, pricing);
                    pricing
                }
            };
            self.priced[g] = Priced {
                key: Some(key),
                pricing,
            };
        }
        if olab_metrics::enabled() {
            let m = crate::fastpath::route_metrics();
            m.pricing_reused.add(n_gpus as u64 - fresh);
            m.pricing_priced.add(fresh);
        }

        let sigma = self.config.jitter.map_or(0.0, |j| j.sigma);
        settle(
            running,
            &self.priced,
            self.rng.as_mut().map(|rng| (rng, sigma)),
            rates,
            power,
        );
    }

    fn counters(&self, gpu: usize) -> GpuCounters {
        self.priced
            .get(gpu)
            .map(|p| p.pricing.counters)
            .unwrap_or_default()
    }
}

/// Turns one epoch's per-GPU pricing into task rates (with measurement
/// noise drawn from `noise`, if any) and per-GPU board power.
fn settle(
    running: &[RunningTask<'_, Op>],
    priced: &[Priced],
    mut noise: Option<(&mut SeededRng, f64)>,
    rates: &mut [f64],
    power: &mut [f64],
) {
    for (rate, task) in rates.iter_mut().zip(running) {
        let base = match task.payload {
            Op::Compute(_) => priced[task.participants[0].index()].pricing.compute_rate,
            Op::Comm(ref op) => {
                let factor = task
                    .participants
                    .iter()
                    .map(|g| priced[g.index()].pricing.comm_factor)
                    .fold(1.0_f64, f64::min);
                let duration = op.latency_s
                    + op.wire_bytes_per_rank / (op.wire_rate_bytes_per_sec * factor.max(0.05));
                1.0 / duration
            }
        };
        *rate = match &mut noise {
            Some((rng, sigma)) => base * noise_factor(rng, *sigma),
            None => base,
        };
    }
    for (watts, p) in power.iter_mut().zip(priced) {
        *watts = p.pricing.draw_w;
    }
}

/// Measurement noise: an approximately-Gaussian multiplicative factor per
/// task-epoch (sum of four uniforms), clamped so rates stay positive. It
/// scales rates after pricing, so the memo stays valid.
fn noise_factor(rng: &mut SeededRng, sigma: f64) -> f64 {
    let u: f64 = (0..4).map(|_| rng.next_f64() - 0.5).sum::<f64>() / 2.0;
    (1.0 + sigma * u * 3.464).clamp(0.7, 1.3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_ccl::{lower, Algorithm, Collective};
    use olab_gpu::{Datapath, KernelKind, Precision};
    use olab_parallel::ComputeOp;
    use olab_sim::{Engine, GpuId, StreamKind, TaskId, TaskSpec, Workload};

    fn h100_machine() -> Machine {
        Machine::stock(GpuSku::h100(), 4)
    }

    fn gemm_op() -> Op {
        Op::Compute(ComputeOp::new(
            KernelKind::gemm(8192, 8192, 8192),
            Precision::Fp16,
            Datapath::TensorCore,
        ))
    }

    fn allreduce_op(machine: &Machine, bytes: u64) -> Op {
        let group: Vec<GpuId> = (0..4).map(GpuId).collect();
        let c = Collective::all_reduce(bytes, group);
        Op::Comm(lower(
            &c,
            Algorithm::Ring,
            &machine.config().sku,
            &machine.config().topology,
            Precision::Fp16,
        ))
    }

    /// Runs a two-task workload (one GEMM on gpu0, optionally a concurrent
    /// all-reduce) and returns the GEMM's duration.
    fn gemm_duration(machine: &Machine, with_comm: bool) -> f64 {
        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        if with_comm {
            let ar = w.intern(allreduce_op(machine, 1 << 30));
            w.push(TaskSpec::new(
                "ar",
                [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
                StreamKind::Comm,
                ar,
            ));
        }
        let trace = Engine::new(machine.clone()).run(&w).unwrap();
        trace.records()[0].duration().as_secs()
    }

    #[test]
    fn overlap_slows_compute() {
        let m = h100_machine();
        let alone = gemm_duration(&m, false);
        let overlapped = gemm_duration(&m, true);
        let slowdown = overlapped / alone - 1.0;
        assert!(
            slowdown > 0.05 && slowdown < 0.5,
            "H100 GEMM slowdown under a 1 GiB all-reduce: {slowdown}"
        );
    }

    #[test]
    fn uncontended_machine_shows_no_slowdown() {
        let m = h100_machine().uncontended();
        let alone = gemm_duration(&m, false);
        let overlapped = gemm_duration(&m, true);
        assert!((overlapped / alone - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amd_interference_exceeds_nvidia_interference() {
        let h = h100_machine();
        let m = Machine::stock(GpuSku::mi250(), 4);
        let h_slow = gemm_duration(&h, true) / gemm_duration(&h, false);
        let m_slow = gemm_duration(&m, true) / gemm_duration(&m, false);
        assert!(m_slow > h_slow, "MI250 {m_slow} vs H100 {h_slow}");
    }

    #[test]
    fn power_rises_when_comm_joins_compute() {
        let m = h100_machine();
        // Compute alone.
        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        let alone = Engine::new(m.clone()).run(&w).unwrap();
        let p_alone = alone
            .gpu(GpuId(0))
            .power
            .iter()
            .map(|s| s.watts)
            .fold(0.0, f64::max);

        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        let ar = w.intern(allreduce_op(&m, 1 << 30));
        w.push(TaskSpec::new(
            "ar",
            [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
            StreamKind::Comm,
            ar,
        ));
        let both = Engine::new(m.clone()).run(&w).unwrap();
        let p_both = both
            .gpu(GpuId(0))
            .power
            .iter()
            .map(|s| s.watts)
            .fold(0.0, f64::max);
        assert!(p_both > p_alone + 30.0, "{p_both} vs {p_alone}");
    }

    #[test]
    fn strict_power_cap_throttles_compute() {
        let sku = GpuSku::a100();
        let mut config = MachineConfig::stock(sku, 4);
        config.governor.limit = olab_gpu::PowerLimit::strict(150.0);
        let capped = Machine::new(config);
        let stock = Machine::stock(GpuSku::a100(), 4);
        let t_capped = gemm_duration(&capped, false);
        let t_stock = gemm_duration(&stock, false);
        assert!(
            t_capped > 1.3 * t_stock,
            "150 W cap must slow the A100 GEMM: {t_capped} vs {t_stock}"
        );
    }

    #[test]
    fn per_gpu_freq_caps_slow_only_the_capped_gpu() {
        let healthy = h100_machine();
        let mut throttled = h100_machine();
        throttled.set_gpu_freq_caps(vec![0.5, 1.0, 1.0, 1.0]);

        let durations = |m: &Machine| {
            let mut w = Workload::new(4);
            let k = w.intern(gemm_op());
            w.push(TaskSpec::compute("g0", GpuId(0), k));
            w.push(TaskSpec::compute("g1", GpuId(1), k));
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            (
                trace.records()[0].duration().as_secs(),
                trace.records()[1].duration().as_secs(),
            )
        };
        let (h0, h1) = durations(&healthy);
        let (t0, t1) = durations(&throttled);
        assert!(t0 > 1.5 * h0, "capped GPU must slow: {t0} vs {h0}");
        assert!((t1 - h1).abs() < 1e-12, "uncapped GPU must be untouched");
    }

    #[derive(Default)]
    struct FirstEpoch {
        counters: Option<Vec<GpuCounters>>,
    }

    impl olab_sim::EngineObserver for FirstEpoch {
        fn on_epoch(&mut self, _start_s: f64, _end_s: f64, counters: &[GpuCounters]) {
            if self.counters.is_none() {
                self.counters = Some(counters.to_vec());
            }
        }
    }

    #[test]
    fn telemetry_counters_track_overlap_contention() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        let ar = w.intern(allreduce_op(&m, 1 << 30));
        w.push(TaskSpec::new(
            "ar",
            [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
            StreamKind::Comm,
            ar,
        ));
        let mut obs = FirstEpoch::default();
        Engine::new(m.clone()).run_observed(&w, &mut obs).unwrap();
        let counters = obs.counters.expect("at least one epoch");
        assert_eq!(counters.len(), 4);
        // gpu0 runs GEMM + collective: all counters engaged.
        let c0 = &counters[0];
        assert!(c0.sm_occupancy > 0.5, "occupancy {}", c0.sm_occupancy);
        assert!(c0.hbm_util > 0.0 && c0.hbm_util <= 1.0);
        assert!(c0.link_util > 0.0 && c0.link_util <= 1.0);
        assert!(c0.freq_factor > 0.0 && c0.freq_factor <= 1.0);
        assert!(c0.power_w > GpuSku::h100().idle_w);
        // gpu3 only participates in the collective: link busy, SMs only
        // carry the channel kernels.
        let c3 = &counters[3];
        assert!(c3.link_util > 0.0);
        assert!(c3.sm_occupancy < c0.sm_occupancy);
    }

    #[test]
    fn telemetry_counters_are_idle_defaults_for_idle_gpus() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        let mut obs = FirstEpoch::default();
        Engine::new(m.clone()).run_observed(&w, &mut obs).unwrap();
        let counters = obs.counters.unwrap();
        let c3 = &counters[3];
        assert_eq!(c3.sm_occupancy, 0.0);
        assert_eq!(c3.hbm_util, 0.0);
        assert_eq!(c3.link_util, 0.0);
        // Engine fills power with the model's idle draw.
        assert_eq!(c3.power_w, GpuSku::h100().power().idle_w);
    }

    #[test]
    fn idle_gpus_report_idle_power() {
        let m = h100_machine();
        let mut w = Workload::new(4);
        let k = w.intern(gemm_op());
        w.push(TaskSpec::compute("gemm", GpuId(0), k));
        let trace = Engine::new(m.clone()).run(&w).unwrap();
        let idle = trace.gpu(GpuId(3)).power[0].watts;
        assert_eq!(idle, GpuSku::h100().power().idle_w);
    }

    /// An H100 with artificially narrow HBM, so a collective's staging
    /// traffic oversubscribes the shared bandwidth deterministically.
    fn narrow_hbm_machine() -> Machine {
        let mut sku = GpuSku::h100();
        sku.mem_bw_gbs = 600.0;
        Machine::stock(sku, 4)
    }

    #[test]
    fn memory_bound_kernels_slow_under_hbm_contention() {
        // A streaming kernel saturates its share of HBM; a co-resident
        // collective's staging traffic pushes combined demand past the
        // shared capacity and the kernel must slow by more than the
        // SM-occupancy/cache terms alone explain.
        let m = narrow_hbm_machine();
        let streaming = Op::Compute(ComputeOp::new(
            KernelKind::Elementwise {
                elems: 1 << 28,
                flops_per_elem: 1,
                streams: 3,
            },
            Precision::Fp16,
            Datapath::Vector,
        ));
        let duration = |with_comm: bool| {
            let mut w = Workload::new(4);
            let k = w.intern(streaming.clone());
            w.push(TaskSpec::compute("stream", GpuId(0), k));
            if with_comm {
                let ar = w.intern(allreduce_op(&m, 1 << 30));
                w.push(TaskSpec::new(
                    "ar",
                    [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
                    StreamKind::Comm,
                    ar,
                ));
            }
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            trace.records()[0].duration().as_secs()
        };
        let alone = duration(false);
        let contended = duration(true);
        let profile = m.config().sku.contention();
        // Pure cache interference would be l2_interference; HBM sharing
        // must add on top for a bandwidth-saturating kernel.
        assert!(
            contended / alone > profile.l2_interference * 1.1,
            "contended {contended} vs alone {alone}"
        );
    }

    #[test]
    fn collective_rate_is_limited_by_its_slowest_rank() {
        // A collective shared with a busy GPU runs slower than the same
        // collective over idle GPUs, because the busy rank's HBM share
        // throttles everyone (min-over-ranks).
        let m = narrow_hbm_machine();
        let streaming = Op::Compute(ComputeOp::new(
            KernelKind::Elementwise {
                elems: 1 << 29,
                flops_per_elem: 1,
                streams: 3,
            },
            Precision::Fp16,
            Datapath::Vector,
        ));
        let ar_duration = |busy_rank: bool| {
            let mut w = Workload::new(4);
            if busy_rank {
                let k = w.intern(streaming.clone());
                w.push(TaskSpec::compute("stream", GpuId(0), k));
            }
            let ar = w.intern(allreduce_op(&m, 1 << 30));
            let id = w.push(TaskSpec::new(
                "ar",
                [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
                StreamKind::Comm,
                ar,
            ));
            let trace = Engine::new(m.clone()).run(&w).unwrap();
            trace.record(id).unwrap().duration().as_secs()
        };
        assert!(ar_duration(true) > ar_duration(false) * 1.01);
    }

    #[test]
    fn collectives_finish_at_their_isolated_speed_when_alone() {
        let m = h100_machine();
        let op = allreduce_op(&m, 1 << 28);
        let isolated = op.as_comm().unwrap().isolated_duration_s();
        let mut w = Workload::new(4);
        let ar = w.intern(op);
        w.push(TaskSpec::new(
            "ar",
            [GpuId(0), GpuId(1), GpuId(2), GpuId(3)],
            StreamKind::Comm,
            ar,
        ));
        let trace = Engine::new(m.clone()).run(&w).unwrap();
        let simulated = trace.records()[0].duration().as_secs();
        assert!((simulated / isolated - 1.0).abs() < 1e-6);
    }

    fn counter_bits(c: &GpuCounters) -> [u64; 5] {
        [
            c.sm_occupancy.to_bits(),
            c.hbm_util.to_bits(),
            c.link_util.to_bits(),
            c.freq_factor.to_bits(),
            c.power_w.to_bits(),
        ]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The memo-free reference: on every epoch it re-prices every GPU by
    /// value with `gpu_epoch` — no per-GPU reuse, no id cache, no pricing
    /// table — draws noise from a clone of the wrapped machine's RNG, and
    /// asserts that the memoized machine assigns bit-identical rates,
    /// power and counters.
    struct Reference {
        memo: Machine,
        epochs: usize,
    }

    impl RateModel for Reference {
        type Payload = Op;

        fn begin_run(&mut self) {
            self.memo.begin_run();
        }

        fn assign_rates(
            &mut self,
            running: &[RunningTask<'_, Op>],
            rates: &mut [f64],
            power: &mut [f64],
        ) {
            let m = &self.memo;
            let n_gpus = power.len();
            let mut kernel = vec![None; n_gpus];
            let mut comm = vec![None; n_gpus];
            for task in running {
                for g in task.participants {
                    match task.payload {
                        Op::Compute(c) => kernel[g.index()] = Some(c),
                        Op::Comm(c) => comm[g.index()] = Some(c),
                    }
                }
            }
            let fresh: Vec<Priced> = (0..n_gpus)
                .map(|g| {
                    let class = m.class(g, kernel[g], comm[g]);
                    Priced {
                        key: None,
                        pricing: m.price(&class),
                    }
                })
                .collect();
            let mut rng = m.rng.clone();
            let sigma = m.config.jitter.map_or(0.0, |j| j.sigma);
            let mut want_rates = vec![0.0; rates.len()];
            let mut want_power = vec![0.0; n_gpus];
            settle(
                running,
                &fresh,
                rng.as_mut().map(|rng| (rng, sigma)),
                &mut want_rates,
                &mut want_power,
            );

            self.memo.assign_rates(running, rates, power);
            let epoch = self.epochs;
            assert_eq!(bits(rates), bits(&want_rates), "rates, epoch {epoch}");
            assert_eq!(bits(power), bits(&want_power), "power, epoch {epoch}");
            for (g, p) in fresh.iter().enumerate() {
                assert_eq!(
                    counter_bits(&self.memo.counters(g)),
                    counter_bits(&p.pricing.counters),
                    "counters of gpu {g}, epoch {epoch}"
                );
            }
            assert_eq!(self.memo.rng, rng, "noise draws, epoch {epoch}");
            self.epochs += 1;
        }

        fn counters(&self, gpu: usize) -> GpuCounters {
            self.memo.counters(gpu)
        }
    }

    /// Every leg `jitter_repeats` runs on the event loop, against the
    /// reference: the overlapped and sequential schedules on the contended
    /// machine, plain and jittered, and the overlapped schedule on the
    /// jittered uncontended machine (the ideal leg).
    #[test]
    fn memoized_pricing_is_bit_identical_to_repricing_every_gpu_on_the_main_grid() {
        use crate::registry;
        use olab_parallel::ExecutionMode;

        let cells: Vec<_> = registry::main_grid()
            .into_iter()
            .filter_map(|exp| exp.validate().ok().map(|policy| (exp, policy)))
            .collect();
        let runs = olab_grid::Pool::with_available_parallelism().map(&cells, |(exp, policy)| {
            let run = |memo: &Machine, workload: &Workload<Op>| {
                let mut engine = Engine::new(Reference {
                    memo: memo.clone(),
                    epochs: 0,
                });
                engine.run_summary(workload).expect("cell runs");
                engine.into_model().epochs
            };
            let overlapped = exp
                .timeline(ExecutionMode::Overlapped, *policy)
                .expect("timeline builds");
            let plain = exp.machine();
            let jittered = plain.with_jitter(Jitter {
                seed: 7,
                sigma: 0.05,
            });
            let ideal = jittered.uncontended();
            let overlapped_runs = [&plain, &jittered, &ideal].map(|m| run(m, &overlapped));
            let sequential = overlapped.into_sequential();
            let sequential_runs = [&plain, &jittered].map(|m| run(m, &sequential));
            (overlapped_runs, sequential_runs)
        });
        let contended_runs = 4 * runs.len();
        assert!(contended_runs >= 400, "only {contended_runs} runs");
        assert!(
            runs.iter()
                .all(|(o, s)| o.iter().chain(s).all(|&epochs| epochs > 0)),
            "every run prices at least one epoch"
        );
    }

    #[test]
    fn one_machine_through_two_workloads_equals_two_fresh_machines() {
        use crate::{execute_model, LeanRun};
        use olab_sim::NullObserver;

        // Both workloads end, and start, with task 0 alone on gpu0, but
        // task 0 is a different kernel in each: a memo that outlived the
        // first run would price the second run's first epoch stale.
        let gemm = |n: u64| {
            Op::Compute(ComputeOp::new(
                KernelKind::gemm(n, n, n),
                Precision::Fp16,
                Datapath::TensorCore,
            ))
        };
        let workloads = [4096, 8192].map(|n| {
            let mut w = Workload::new(4);
            let k = w.intern(gemm(n));
            w.push(TaskSpec::compute("gemm", GpuId(0), k));
            w
        });

        let mut shared = h100_machine();
        for w in &workloads {
            let reused = execute_model(w, &mut shared, &mut NullObserver).expect("runs");
            let fresh = execute_model(w, h100_machine(), &mut NullObserver).expect("runs");
            assert_eq!(LeanRun::summarize(&reused), LeanRun::summarize(&fresh));
        }
    }

    #[test]
    fn the_pricing_table_prices_each_class_once_per_run() {
        fn task<'a>(
            label: &'a olab_sim::Label,
            id: u32,
            participants: &'a [GpuId],
            (payload_id, payload): (u32, &'a Op),
        ) -> RunningTask<'a, Op> {
            let stream = match payload {
                Op::Compute(_) => StreamKind::Compute,
                Op::Comm(_) => StreamKind::Comm,
            };
            RunningTask {
                id: TaskId(id),
                label,
                participants,
                stream,
                payload,
                payload_id: PayloadId(payload_id),
            }
        }
        let mut m = h100_machine();
        let gemm_op = gemm_op();
        let wide_op = allreduce_op(&m, 1 << 30);
        // The same collective, its channel kernels on half the SMs.
        let mut narrow_op = wide_op.clone();
        if let Op::Comm(op) = &mut narrow_op {
            op.sm_fraction *= 0.5;
        }
        let (gemm, wide, narrow) = ((0, &gemm_op), (1, &wide_op), (2, &narrow_op));
        let g: Vec<GpuId> = (0..4).map(GpuId).collect();
        let l = olab_sim::Label::from("task");
        let assign = |m: &mut Machine, running: &[RunningTask<'_, Op>]| {
            let (mut rates, mut power) = (vec![0.0; running.len()], [0.0; 4]);
            m.assign_rates(running, &mut rates, &mut power);
            (rates, m.classes.len())
        };

        m.begin_run();
        // Equal kernels on four GPUs under one collective: one class.
        let one_collective = [
            task(&l, 0, &g[0..1], gemm),
            task(&l, 1, &g[1..2], gemm),
            task(&l, 2, &g[2..3], gemm),
            task(&l, 3, &g[3..4], gemm),
            task(&l, 4, &g[0..4], wide),
        ];
        let (first, classes) = assign(&mut m, &one_collective);
        assert_eq!((classes, m.keys.len()), (1, 1));
        assert!(first[..4].iter().all(|r| r.to_bits() == first[0].to_bits()));
        // Mark the entries: a GPU served from the id cache or the table
        // reports the mark, one priced afresh or kept would not.
        let mark = 42.0;
        m.keys.values_mut().for_each(|p| p.compute_rate = mark);
        m.classes.values_mut().for_each(|p| p.compute_rate = mark);

        // New tasks, and a second collective on GPUs 2 and 3 that differs
        // only in `sm_fraction`: one more class.
        let two_collectives = [
            task(&l, 5, &g[0..1], gemm),
            task(&l, 6, &g[1..2], gemm),
            task(&l, 7, &g[2..3], gemm),
            task(&l, 8, &g[3..4], gemm),
            task(&l, 9, &g[0..2], wide),
            task(&l, 10, &g[2..4], narrow),
        ];
        let (rates, classes) = assign(&mut m, &two_collectives);
        assert_eq!((classes, m.keys.len()), (2, 2));
        // GPUs 0 and 1 run the payloads they were priced for, under new
        // task ids: each keeps its own pricing, unmarked.
        assert_eq!(bits(&rates[..2]), bits(&first[..2]));
        assert!(rates[2] > first[2], "fewer SMs taken, faster kernel");
        assert_eq!(rates[2].to_bits(), rates[3].to_bits());

        // Payloads equal in value under other ids: new keys, no new class,
        // and the marked pricing of the equal class.
        let (gemm_twin, wide_twin) = ((3, &gemm_op), (4, &wide_op));
        let twins = [
            task(&l, 11, &g[0..1], gemm_twin),
            task(&l, 12, &g[1..2], gemm),
            task(&l, 13, &g[2..3], gemm_twin),
            task(&l, 14, &g[3..4], gemm),
            task(&l, 15, &g[0..4], wide_twin),
        ];
        let (twin_rates, classes) = assign(&mut m, &twins);
        assert_eq!((classes, m.keys.len()), (2, 4));
        assert_eq!(bits(&twin_rates[..4]), bits(&[mark; 4]));
        assert_eq!(twin_rates[4].to_bits(), first[4].to_bits());

        // The same tasks with GPU 0 capped: exactly one more class. GPU 1
        // returns to a key the id cache holds, marked.
        m.set_gpu_freq_caps([0.5, 1.0, 1.0, 1.0]);
        let (capped, classes) = assign(&mut m, &two_collectives);
        assert_eq!(classes, 3);
        assert!(capped[0] < first[0]);
        assert_eq!(capped[1].to_bits(), mark.to_bits());
        assert_eq!(bits(&capped[2..]), bits(&rates[2..]));

        // A new run starts from an empty id cache and table.
        m.begin_run();
        assert_eq!(assign(&mut m, &one_collective).1, 2, "capped and uncapped");
        assert_eq!(m.keys.len(), 2);

        // A collective spanning a GPU that also runs compute (GPU 0) and one
        // that does not (GPU 1): each GPU's key names both its streams, so
        // the two are different classes, and idle GPUs 2 and 3 a third. Both
        // tasks price as they did next to four kernels: the kernel's class
        // is GPU 0's there too, and the collective's slowest rank is a GPU
        // running a kernel under it. The table's growth is the priced count
        // of each case; every other GPU of an epoch counts as reused.
        m.set_gpu_freq_caps([]);
        m.begin_run();
        let spanning = [task(&l, 0, &g[0..1], gemm), task(&l, 1, &g[0..2], wide)];
        let (spanned, classes) = assign(&mut m, &spanning);
        assert_eq!((classes, m.keys.len()), (3, 3));
        assert_eq!(bits(&spanned), bits(&[first[0], first[4]]));

        // Caps set, then cleared: the two capped GPUs are two more classes,
        // and clearing returns every GPU to a key the id cache holds.
        m.set_gpu_freq_caps([0.5, 0.5]);
        let (capped, classes) = assign(&mut m, &spanning);
        assert_eq!((classes, m.keys.len()), (5, 5));
        assert!(capped[0] < spanned[0], "a capped clock slows the kernel");
        m.set_gpu_freq_caps([]);
        let (cleared, classes) = assign(&mut m, &spanning);
        assert_eq!((classes, m.keys.len()), (5, 5));
        assert_eq!(bits(&cleared), bits(&spanned));

        // Caps of exactly 1.0 are no caps: the same keys, nothing priced.
        m.set_gpu_freq_caps([1.0; 4]);
        let (uncapped, classes) = assign(&mut m, &spanning);
        assert_eq!((classes, m.keys.len()), (5, 5));
        assert_eq!(bits(&uncapped), bits(&spanned));
    }

    #[test]
    fn a_cap_change_between_epochs_reprices_that_gpu() {
        let op = gemm_op();
        let gpus = [GpuId(0), GpuId(1)];
        let label = olab_sim::Label::from("gemm");
        let running: Vec<RunningTask<'_, Op>> = (0..2u32)
            .map(|g| RunningTask {
                id: TaskId(g),
                label: &label,
                participants: std::slice::from_ref(&gpus[g as usize]),
                stream: StreamKind::Compute,
                payload: &op,
                payload_id: PayloadId(0),
            })
            .collect();
        let assign = |m: &mut Machine| {
            let (mut rates, mut power) = ([0.0; 2], [0.0; 4]);
            m.assign_rates(&running, &mut rates, &mut power);
            (rates, power, m.counters(0))
        };

        let mut m = h100_machine();
        m.begin_run();
        let (before, ..) = assign(&mut m);
        assert_eq!(before[0].to_bits(), before[1].to_bits(), "symmetric ranks");

        // Same tasks, new cap on gpu0 only.
        m.set_gpu_freq_caps([0.5, 1.0, 1.0, 1.0]);
        let (after, power, counters) = assign(&mut m);
        assert!(after[0] < before[0], "capped gpu0 must slow down");
        assert_eq!(after[1].to_bits(), before[1].to_bits());

        let mut capped = h100_machine();
        capped.set_gpu_freq_caps([0.5, 1.0, 1.0, 1.0]);
        let (want, want_power, want_counters) = assign(&mut capped);
        assert_eq!(bits(&after), bits(&want));
        assert_eq!(bits(&power), bits(&want_power));
        assert_eq!(counter_bits(&counters), counter_bits(&want_counters));
    }
}
