//! Closed-form oracles and tolerance-banded differential comparison.
//!
//! Every expected value here is re-derived *literally* from the alpha-beta
//! collective model, the roofline, and the definition of energy as the
//! integral of power — deliberately not by calling the production helpers
//! being checked (`olab_ccl::wire_bytes_per_rank`,
//! `Algorithm::latency_steps`, `KernelDemand::duration`), so a bug in
//! those paths cannot cancel out of the comparison.

use olab_ccl::{lower, Algorithm, Collective, CollectiveKind};
use olab_core::fastpath::Route;
use olab_core::{Experiment, ExperimentError, ExperimentReport, LeanRun, RunResult};
use olab_gpu::{roofline, Datapath, GpuSku, KernelKind, Precision};
use olab_net::Topology;
use olab_parallel::{ExecutionMode, Op};
use olab_sim::{critical_path, verify_trace, NullObserver};
use std::fmt;

/// A relative + absolute tolerance band. A comparison of `actual` against
/// `expected` passes when `|actual - expected| <= abs + rel * |expected|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component, scaled by the expected value.
    pub rel: f64,
    /// Absolute floor, for expected values near zero.
    pub abs: f64,
}

impl Tolerance {
    /// Floating-point-roundoff only: for identities that should hold to
    /// machine precision (energy re-integration, alpha-beta decomposition).
    pub const TIGHT: Tolerance = Tolerance {
        rel: 1e-9,
        abs: 1e-9,
    };
    /// Accumulated-roundoff band for sums over many tasks/segments.
    pub const BAND: Tolerance = Tolerance {
        rel: 1e-6,
        abs: 1e-9,
    };
    /// Model-comparison band for quantities where the simulator and the
    /// closed form legitimately differ in low-order terms (e.g. epoch
    /// quantization in the DVFS governor).
    pub const LOOSE: Tolerance = Tolerance {
        rel: 1e-3,
        abs: 1e-9,
    };

    /// The allowed error at a given expected magnitude.
    pub fn allowance(&self, expected: f64) -> f64 {
        self.abs + self.rel * expected.abs()
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rel {:.0e} / abs {:.0e}", self.rel, self.abs)
    }
}

/// One quantity that fell outside its tolerance band.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// What was compared (names the offending quantity and, where it has
    /// one, the offending task/GPU).
    pub quantity: String,
    /// Simulator output.
    pub actual: f64,
    /// Closed-form expectation (or bound).
    pub expected: f64,
    /// Allowed error at this magnitude.
    pub allowed: f64,
    /// How far beyond the band the error landed.
    pub excess: f64,
}

impl Divergence {
    /// Excess relative to the allowed band — the ranking key for "worst
    /// offender". Infinite for non-finite actuals and zero-width bands.
    pub fn severity(&self) -> f64 {
        if !self.excess.is_finite() {
            f64::INFINITY
        } else if self.allowed > 0.0 {
            self.excess / self.allowed
        } else {
            f64::INFINITY
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: actual {:.9e} vs expected {:.9e} ({:+.3e} beyond the ±{:.3e} band)",
            self.quantity, self.actual, self.expected, self.excess, self.allowed
        )
    }
}

/// The outcome of checking one subject (a comm op, a kernel, a grid cell)
/// against the closed-form oracles: tolerance-band divergences plus any
/// structural trace violations from [`verify_trace`].
#[derive(Debug, Clone, Default)]
pub struct DivergenceReport {
    /// What was checked (e.g. the experiment label).
    pub context: String,
    /// Quantities outside their bands, in check order.
    pub divergences: Vec<Divergence>,
    /// Rendered structural violations (record index + label included).
    pub violations: Vec<String>,
}

impl DivergenceReport {
    /// An empty report for the given subject.
    pub fn new(context: impl Into<String>) -> Self {
        DivergenceReport {
            context: context.into(),
            divergences: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// True when nothing diverged and no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty() && self.violations.is_empty()
    }

    /// Total problem count.
    pub fn issues(&self) -> usize {
        self.divergences.len() + self.violations.len()
    }

    /// Records a structural violation.
    pub fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(message.into());
    }

    /// The divergence furthest outside its band, if any.
    pub fn worst(&self) -> Option<&Divergence> {
        self.divergences
            .iter()
            .max_by(|a, b| a.severity().total_cmp(&b.severity()))
    }

    /// Two-sided comparison: `actual` must be within `tol` of `expected`.
    /// Non-finite actuals always diverge.
    pub fn compare(&mut self, quantity: &str, actual: f64, expected: f64, tol: Tolerance) {
        let allowed = tol.allowance(expected);
        if !actual.is_finite() {
            self.push(quantity, actual, expected, allowed, f64::INFINITY);
            return;
        }
        let err = (actual - expected).abs();
        if err > allowed {
            self.push(quantity, actual, expected, allowed, err - allowed);
        }
    }

    /// One-sided bound: `actual >= bound`, with `tol` of slack.
    pub fn require_at_least(&mut self, quantity: &str, actual: f64, bound: f64, tol: Tolerance) {
        let allowed = tol.allowance(bound);
        if !actual.is_finite() || actual < bound - allowed {
            let excess = if actual.is_finite() {
                (bound - actual) - allowed
            } else {
                f64::INFINITY
            };
            self.push(quantity, actual, bound, allowed, excess);
        }
    }

    /// One-sided bound: `actual <= bound`, with `tol` of slack.
    pub fn require_at_most(&mut self, quantity: &str, actual: f64, bound: f64, tol: Tolerance) {
        let allowed = tol.allowance(bound);
        if !actual.is_finite() || actual > bound + allowed {
            let excess = if actual.is_finite() {
                (actual - bound) - allowed
            } else {
                f64::INFINITY
            };
            self.push(quantity, actual, bound, allowed, excess);
        }
    }

    /// Folds a sub-report in, prefixing its context onto each entry.
    pub fn merge(&mut self, sub: DivergenceReport) {
        for mut d in sub.divergences {
            d.quantity = format!("{}: {}", sub.context, d.quantity);
            self.divergences.push(d);
        }
        for v in sub.violations {
            self.violations.push(format!("{}: {v}", sub.context));
        }
    }

    fn push(&mut self, quantity: &str, actual: f64, expected: f64, allowed: f64, excess: f64) {
        self.divergences.push(Divergence {
            quantity: quantity.to_string(),
            actual,
            expected,
            allowed,
            excess,
        });
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "conformance report for {}: clean", self.context);
        }
        writeln!(
            f,
            "conformance report for {}: {} divergence(s), {} violation(s)",
            self.context,
            self.divergences.len(),
            self.violations.len()
        )?;
        if let Some(worst) = self.worst() {
            writeln!(f, "  worst offender: {worst}")?;
        }
        for d in &self.divergences {
            writeln!(f, "  - {d}")?;
        }
        for v in &self.violations {
            writeln!(f, "  - invariant: {v}")?;
        }
        Ok(())
    }
}

/// Alpha-beta model wire volume per rank, re-derived literally: the
/// textbook `2S(n-1)/n` / `2S` / `S(n-1)/n` / `S` table.
fn oracle_wire_bytes(kind: CollectiveKind, algorithm: Algorithm, bytes: u64, n: usize) -> f64 {
    let s = bytes as f64;
    let n = n as f64;
    match kind {
        CollectiveKind::AllReduce => {
            if algorithm == Algorithm::Tree {
                2.0 * s
            } else {
                2.0 * s * (n - 1.0) / n
            }
        }
        CollectiveKind::AllGather | CollectiveKind::ReduceScatter | CollectiveKind::AllToAll => {
            s * (n - 1.0) / n
        }
        CollectiveKind::Broadcast | CollectiveKind::PointToPoint => s,
    }
}

/// Serialized fabric step counts, re-derived literally: `2(n-1)` for ring
/// all-reduce, `n-1` for other rings, `2⌈log2 n⌉` / `⌈log2 n⌉` for trees.
fn oracle_steps(kind: CollectiveKind, algorithm: Algorithm, n: usize) -> u32 {
    let n = n as u32;
    let log2_ceil = |n: u32| {
        let mut bits = 0;
        while (1u32 << bits) < n {
            bits += 1;
        }
        bits.max(1)
    };
    if kind == CollectiveKind::PointToPoint {
        return 1;
    }
    match algorithm {
        Algorithm::Ring => {
            if kind == CollectiveKind::AllReduce {
                2 * (n - 1)
            } else {
                n - 1
            }
        }
        Algorithm::Tree => {
            if kind == CollectiveKind::AllReduce {
                2 * log2_ceil(n)
            } else {
                log2_ceil(n)
            }
        }
        Algorithm::Direct => {
            if kind == CollectiveKind::AllToAll {
                n - 1
            } else {
                1
            }
        }
        Algorithm::Hierarchical => 2 * (n - 1).min(8) + 2,
    }
}

/// Pillar A: checks one lowered collective against the alpha-beta model —
/// wire bytes, step counts, the hop-latency floor, the raw-fabric rate
/// ceiling, and the exact alpha + beta decomposition of the isolated time.
pub fn check_comm_op(
    collective: &Collective,
    algorithm: Algorithm,
    sku: &GpuSku,
    topology: &Topology,
    precision: Precision,
) -> DivergenceReport {
    let op = lower(collective, algorithm, sku, topology, precision);
    let n = collective.group_size();
    let mut report = DivergenceReport::new(format!("{op}"));

    report.compare(
        "wire_bytes_per_rank vs alpha-beta table",
        op.wire_bytes_per_rank,
        oracle_wire_bytes(collective.kind, algorithm, collective.bytes, n),
        Tolerance::TIGHT,
    );
    report.compare(
        "latency step count",
        f64::from(algorithm.latency_steps(collective.kind, n)),
        f64::from(oracle_steps(collective.kind, algorithm, n)),
        Tolerance::TIGHT,
    );
    let hop_floor = f64::from(oracle_steps(collective.kind, algorithm, n)) * topology.latency_s();
    report.require_at_least(
        "latency_s vs steps x hop latency",
        op.latency_s,
        hop_floor,
        Tolerance::TIGHT,
    );
    // Launch overhead is bounded: real stacks pay well under 100 us.
    report.require_at_most(
        "latency_s vs hop floor + 100us launch ceiling",
        op.latency_s,
        hop_floor + 100e-6,
        Tolerance::TIGHT,
    );
    report.require_at_least(
        "wire_rate_bytes_per_sec is positive",
        op.wire_rate_bytes_per_sec,
        1.0,
        Tolerance::TIGHT,
    );
    if algorithm != Algorithm::Hierarchical {
        // Efficiency can only discount the raw fabric rate, never exceed it.
        let raw_gbs = match collective.kind {
            CollectiveKind::PointToPoint => {
                topology.p2p_bw_gbs(collective.group[0], collective.group[1])
            }
            CollectiveKind::AllToAll => topology.injection_bw_gbs(),
            _ => topology.ring_busbw_gbs(n),
        };
        report.require_at_most(
            "wire_rate vs raw fabric rate",
            op.wire_rate_bytes_per_sec,
            raw_gbs * 1e9,
            Tolerance::TIGHT,
        );
    }
    report.compare(
        "isolated_duration_s vs alpha + beta recomposition",
        op.isolated_duration_s(),
        op.latency_s + op.wire_time_s(),
        Tolerance::TIGHT,
    );
    report
}

/// Pillar B: checks one kernel against the roofline — the duration must
/// recompose as `max(flop time, memory time) + launch`, respect the
/// datasheet-peak lower bound, and slow down monotonically with frequency.
pub fn check_kernel(
    kernel: &KernelKind,
    sku: &GpuSku,
    precision: Precision,
    datapath: Datapath,
) -> DivergenceReport {
    let mut report = DivergenceReport::new(format!("{kernel} on {}", sku.name));
    let d = roofline::demand(kernel, sku, precision, datapath);
    let iso = roofline::isolated_duration(kernel, sku, precision, datapath, 1.0);

    report.compare(
        "isolated duration vs max(flop, memory) + launch",
        iso,
        d.compute_time(1.0).max(d.memory_time(1.0)) + d.launch_s,
        Tolerance::TIGHT,
    );
    // Datasheet bounds, derived from SKU peaks alone: no efficiency model
    // can run faster than the silicon.
    let effective_path = if kernel.uses_matrix_math() {
        datapath
    } else {
        Datapath::Vector
    };
    let flop_floor = kernel.flops() / (sku.peak_tflops(precision, effective_path) * 1e12);
    let mem_floor = kernel.bytes(precision) / (sku.mem_bw_gbs * 1e9);
    report.require_at_least(
        "isolated duration vs datasheet FLOP floor",
        iso,
        flop_floor,
        Tolerance::TIGHT,
    );
    report.require_at_least(
        "isolated duration vs datasheet HBM floor",
        iso,
        mem_floor,
        Tolerance::TIGHT,
    );
    report.compare(
        "lower_bound_duration vs literal datasheet bound",
        roofline::lower_bound_duration(kernel, sku, precision, datapath),
        flop_floor.max(mem_floor),
        Tolerance::TIGHT,
    );
    report.require_at_least(
        "half frequency is at least as slow",
        roofline::isolated_duration(kernel, sku, precision, datapath, 0.5),
        iso,
        Tolerance::TIGHT,
    );
    report
}

/// Per-GPU closed-form floors for one scheduled timeline: the sum of
/// datasheet-peak kernel lower bounds on the compute stream and of
/// isolated collective durations on the comm stream, plus the total serial
/// work (the makespan upper bound).
struct TimelineFloors {
    compute: Vec<f64>,
    comm: Vec<f64>,
    serial_s: f64,
}

fn timeline_floors(workload: &olab_sim::Workload<Op>, sku: &GpuSku) -> TimelineFloors {
    let n = workload.n_gpus();
    let mut compute = vec![0.0; n];
    let mut comm = vec![0.0; n];
    for spec in workload.tasks() {
        match workload.payload(spec) {
            Op::Compute(c) => {
                compute[spec.participants[0].index()] +=
                    roofline::lower_bound_duration(&c.kernel, sku, c.precision, c.datapath);
            }
            Op::Comm(op) => {
                // A collective occupies the comm stream of every
                // participant for at least its isolated time (contention
                // and rendezvous can only stretch it).
                for gpu in &spec.participants {
                    comm[gpu.index()] += op.isolated_duration_s();
                }
            }
        }
    }
    TimelineFloors {
        compute,
        comm,
        serial_s: 0.0,
    }
}

fn check_run(
    report: &mut DivergenceReport,
    tag: &str,
    workload: &olab_sim::Workload<Op>,
    run: &RunResult,
    sku: &GpuSku,
) {
    // Structural invariants (queue FIFO, dependency order, power-segment
    // coverage) — satellite of the same oracle.
    for v in verify_trace(workload, &run.trace) {
        report.violation(format!("{tag}: {v}"));
    }

    let mut floors = timeline_floors(workload, sku);
    floors.serial_s = run
        .trace
        .records()
        .iter()
        .map(|r| r.duration().as_secs())
        .sum();
    let makespan = run.e2e_s;

    let max_compute_floor = floors.compute.iter().cloned().fold(0.0, f64::max);
    let max_comm_floor = floors.comm.iter().cloned().fold(0.0, f64::max);
    report.require_at_least(
        &format!("{tag} makespan vs roofline compute floor"),
        makespan,
        max_compute_floor,
        Tolerance::BAND,
    );
    report.require_at_least(
        &format!("{tag} makespan vs isolated collective floor"),
        makespan,
        max_comm_floor,
        Tolerance::BAND,
    );
    // The engine never idles with work available, so the fully-serial sum
    // of record durations bounds the makespan from above.
    report.require_at_most(
        &format!("{tag} makespan vs serial sum of task durations"),
        makespan,
        floors.serial_s,
        Tolerance::BAND,
    );

    for (g, stats) in run.gpus.iter().enumerate() {
        report.require_at_least(
            &format!("{tag} gpu{g} comm_s vs isolated collective floor"),
            stats.comm_s,
            floors.comm[g],
            Tolerance::BAND,
        );
        report.require_at_least(
            &format!("{tag} gpu{g} compute_s vs roofline floor"),
            stats.compute_s,
            floors.compute[g],
            Tolerance::BAND,
        );
        report.require_at_most(
            &format!("{tag} gpu{g} comm_s vs makespan"),
            stats.comm_s,
            makespan,
            Tolerance::BAND,
        );
        report.require_at_most(
            &format!("{tag} gpu{g} compute_s vs makespan"),
            stats.compute_s,
            makespan,
            Tolerance::BAND,
        );

        // Energy pillar: ∫power over any partition of the span must
        // reproduce the total, and the total must sit between the idle
        // floor and the instantaneous-peak ceiling.
        let trace = &stats.power;
        let parts = 7;
        let h = makespan / parts as f64;
        let mut integral = 0.0;
        for i in 0..parts {
            let hi = if i == parts - 1 {
                makespan + 1.0 // absorb the last segment's roundoff edge
            } else {
                (i + 1) as f64 * h
            };
            integral += trace.energy_over(i as f64 * h, hi);
        }
        report.compare(
            &format!("{tag} gpu{g} energy_j vs windowed re-integration"),
            integral,
            trace.energy_j(),
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} energy_j vs avg power x duration"),
            trace.average() * trace.duration_s(),
            trace.energy_j(),
            Tolerance::BAND,
        );
        report.require_at_least(
            &format!("{tag} gpu{g} energy_j vs idle-power floor"),
            trace.energy_j(),
            sku.idle_w * makespan,
            Tolerance::LOOSE,
        );
        report.require_at_most(
            &format!("{tag} gpu{g} energy_j vs peak-power ceiling"),
            trace.energy_j(),
            trace.peak_instantaneous() * makespan,
            Tolerance::BAND,
        );
    }
}

/// Pillar C: runs one grid cell and checks every simulated quantity the
/// figures consume — makespans, per-GPU compute/collective times, energy —
/// against the closed-form floors, ceilings, and identities, on both the
/// overlapped and sequential traces.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from validation or the run itself;
/// out-of-memory cells (the paper's missing bars) are the caller's to
/// skip.
pub fn check_cell(exp: &Experiment) -> Result<DivergenceReport, ExperimentError> {
    let policy = exp.validate()?;
    let rep = exp.run()?;
    let mut report = DivergenceReport::new(exp.label());
    check_report(&mut report, exp, &rep, policy)?;
    Ok(report)
}

fn check_report(
    report: &mut DivergenceReport,
    exp: &Experiment,
    rep: &ExperimentReport,
    policy: olab_models::memory::ActivationPolicy,
) -> Result<(), ExperimentError> {
    let sku = exp.sku.sku();

    let overlapped_w = exp.timeline(ExecutionMode::Overlapped, policy)?;
    let sequential_w = exp.timeline(ExecutionMode::Sequential, policy)?;
    check_run(report, "overlapped", &overlapped_w, &rep.overlapped, &sku);
    check_run(report, "sequential", &sequential_w, &rep.sequential, &sku);

    // The derived metrics must mirror the traces they came from.
    let m = &rep.metrics;
    report.compare(
        "metrics.e2e_overlapped_s mirrors the trace",
        m.e2e_overlapped_s,
        rep.overlapped.e2e_s,
        Tolerance::TIGHT,
    );
    report.compare(
        "metrics.e2e_sequential_measured_s mirrors the trace",
        m.e2e_sequential_measured_s,
        rep.sequential.e2e_s,
        Tolerance::TIGHT,
    );
    report.compare(
        "metrics.energy_j mirrors the per-GPU sum",
        m.energy_j,
        rep.overlapped.gpus.iter().map(|g| g.power.energy_j()).sum(),
        Tolerance::BAND,
    );
    report.compare(
        "metrics.avg_power_w mirrors the traces",
        m.avg_power_w,
        rep.overlapped.average_power_w(),
        Tolerance::TIGHT,
    );
    report.require_at_least(
        "peak power vs average power",
        m.peak_power_w,
        m.avg_power_w,
        Tolerance::TIGHT,
    );

    // Ordering oracle: removing contention can only speed a fixed
    // schedule up, and Eq. 4's ideal is overlapped minus the slowdown.
    report.require_at_most(
        "ideal_simulated_e2e_s vs overlapped",
        rep.ideal_simulated_e2e_s,
        rep.overlapped.e2e_s,
        Tolerance::BAND,
    );
    report.require_at_most(
        "metrics.e2e_ideal_s vs overlapped",
        m.e2e_ideal_s,
        m.e2e_overlapped_s,
        Tolerance::TIGHT,
    );

    // Critical-path oracle: the path must account for the whole makespan.
    let cp = critical_path(&overlapped_w, &rep.overlapped.trace);
    report.compare(
        "critical path makespan vs trace",
        cp.makespan_s,
        rep.overlapped.e2e_s,
        Tolerance::TIGHT,
    );
    report.compare(
        "critical path compute + comm + idle vs makespan",
        cp.compute_s + cp.comm_s + cp.idle_s,
        cp.makespan_s,
        Tolerance::BAND,
    );
    Ok(())
}

/// Pillar D: differential check of the analytic fast path against the
/// event loop on the two fast-path-eligible execution shapes of a cell —
/// the sequential schedule on the contended machine and the overlapped
/// schedule on the uncontended (ideal) machine — plus exactness of the
/// scalar-only executor on all four (schedule, machine) shapes.
///
/// [`execute`](olab_core::execute) routes eligible cells through the
/// closed form while [`execute_model`](olab_core::execute_model) always
/// runs the reference engine; every quantity the figures consume —
/// makespan, per-GPU stream and co-activity times, energy, average and
/// peak power — must agree within [`Tolerance::BAND`] (the two paths
/// accumulate floating-point roundoff in different orders). The fast
/// trace additionally has to satisfy the same structural invariants
/// ([`verify_trace`]) as an engine trace.
///
/// The scalar-only executor has no tolerance: on every shape,
/// [`execute_lean`](olab_core::execute_lean) must equal
/// [`LeanRun::summarize`] of [`execute`](olab_core::execute) exactly, on
/// whichever route the two take. A mismatch is a violation.
///
/// Returns the report together with how many of the cell's four routed
/// legs (full and lean, for each eligible shape) the fast path served,
/// read from each result's [`route`](olab_core::RunResult::route). If the
/// fast path declines a leg, both runs of that leg take the event loop and
/// its comparison is trivially clean, so a caller proving the fast path
/// fired checks the count.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from validation or timeline
/// construction; out-of-memory cells are the caller's to skip.
pub fn check_fastpath_equivalence(
    exp: &Experiment,
) -> Result<(DivergenceReport, usize), ExperimentError> {
    let policy = exp.validate()?;
    let contended = exp.machine();
    let uncontended = contended.uncontended();
    let mut report = DivergenceReport::new(format!("fastpath {}", exp.label()));

    let sequential_w = exp.timeline(ExecutionMode::Sequential, policy)?;
    let overlapped_w = exp.timeline(ExecutionMode::Overlapped, policy)?;
    let mut fast_served = 0;
    for (tag, workload, machine, band) in [
        ("sequential/contended", &sequential_w, &contended, true),
        ("overlapped/uncontended", &overlapped_w, &uncontended, true),
        ("overlapped/contended", &overlapped_w, &contended, false),
        ("sequential/uncontended", &sequential_w, &uncontended, false),
    ] {
        let routed = olab_core::execute(workload, machine)?;
        let lean = olab_core::execute_lean(workload, machine)?;
        require_equal(&mut report, tag, "execute_lean", &lean, &routed);
        if band {
            let reference = olab_core::execute_model(workload, machine.clone(), &mut NullObserver)?;
            compare_paths(&mut report, tag, workload, &routed, &reference);
            fast_served += [routed.route, lean.route]
                .iter()
                .filter(|&&r| r == Route::FastPath)
                .count();
        }
    }
    Ok((report, fast_served))
}

/// Records a violation unless `lean` equals the summarized `full` run
/// exactly.
fn require_equal(
    report: &mut DivergenceReport,
    tag: &str,
    what: &str,
    lean: &LeanRun,
    full: &RunResult,
) {
    let expected = LeanRun::summarize(full);
    if *lean != expected {
        report.violation(format!(
            "{tag}: {what} ({:?}) is not the summarized full run ({:?}): makespan {} vs {}",
            lean.route, expected.route, lean.e2e_s, expected.e2e_s
        ));
    }
}

/// Compares one shape's routed full run against the reference event loop
/// within [`Tolerance::BAND`].
fn compare_paths(
    report: &mut DivergenceReport,
    tag: &str,
    workload: &olab_sim::Workload<Op>,
    fast: &RunResult,
    reference: &RunResult,
) {
    for v in verify_trace(workload, &fast.trace) {
        report.violation(format!("{tag} (routed): {v}"));
    }

    report.compare(
        &format!("{tag} makespan"),
        fast.e2e_s,
        reference.e2e_s,
        Tolerance::BAND,
    );
    for (g, (f, r)) in fast.gpus.iter().zip(&reference.gpus).enumerate() {
        report.compare(
            &format!("{tag} gpu{g} compute_s"),
            f.compute_s,
            r.compute_s,
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} comm_s"),
            f.comm_s,
            r.comm_s,
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} overlapped_compute_s"),
            f.overlapped_compute_s,
            r.overlapped_compute_s,
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} hidden_comm_s"),
            f.hidden_comm_s,
            r.hidden_comm_s,
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} energy_j"),
            f.power.energy_j(),
            r.power.energy_j(),
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} avg power"),
            f.power.average(),
            r.power.average(),
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} peak power"),
            f.power.peak_instantaneous(),
            r.power.peak_instantaneous(),
            Tolerance::BAND,
        );
        report.compare(
            &format!("{tag} gpu{g} overlap window count"),
            f.overlap_windows.len() as f64,
            r.overlap_windows.len() as f64,
            Tolerance::TIGHT,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::Strategy;
    use olab_gpu::SkuKind;
    use olab_models::ModelPreset;
    use olab_sim::GpuId;

    #[test]
    fn tolerance_allowance_scales_with_magnitude() {
        let t = Tolerance {
            rel: 1e-3,
            abs: 1e-9,
        };
        assert!((t.allowance(1000.0) - (1.0 + 1e-9)).abs() < 1e-12);
        assert!((t.allowance(0.0) - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn report_names_the_worst_offender_first() {
        let mut r = DivergenceReport::new("unit");
        r.compare("small miss", 1.001, 1.0, Tolerance::TIGHT);
        r.compare("huge miss", 5.0, 1.0, Tolerance::TIGHT);
        r.violation("record 3 'grad_ar': end before start");
        assert!(!r.is_clean());
        assert_eq!(r.issues(), 3);
        assert_eq!(r.worst().unwrap().quantity, "huge miss");
        let text = r.to_string();
        let worst_at = text.find("worst offender: huge miss").unwrap();
        assert!(worst_at < text.find("small miss").unwrap());
        assert!(text.contains("record 3 'grad_ar'"));
    }

    #[test]
    fn non_finite_actuals_always_diverge() {
        let mut r = DivergenceReport::new("unit");
        r.compare("nan", f64::NAN, 1.0, Tolerance::LOOSE);
        r.require_at_least("inf floor", f64::NAN, 0.0, Tolerance::LOOSE);
        assert_eq!(r.divergences.len(), 2);
        assert_eq!(r.worst().unwrap().severity(), f64::INFINITY);
    }

    #[test]
    fn merge_prefixes_the_sub_context() {
        let mut sub = DivergenceReport::new("cell A");
        sub.compare("makespan", 2.0, 1.0, Tolerance::TIGHT);
        sub.violation("record 0 't0': end before start");
        let mut top = DivergenceReport::new("suite");
        top.merge(sub);
        assert!(top.divergences[0].quantity.starts_with("cell A: "));
        assert!(top.violations[0].starts_with("cell A: "));
    }

    #[test]
    fn comm_oracle_accepts_the_production_lowering() {
        let sku = GpuSku::h100();
        let topo = Topology::nvswitch(8, sku.link_bw_unidir_gbs, sku.link_latency_us);
        let group: Vec<GpuId> = (0..8).map(GpuId).collect();
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
            CollectiveKind::Broadcast,
            CollectiveKind::AllToAll,
        ] {
            for bytes in [1u64 << 12, 1 << 20, 1 << 28] {
                let coll = Collective::new(kind, bytes, group.clone());
                let algo = Algorithm::auto(kind, bytes, 8);
                let report = check_comm_op(&coll, algo, &sku, &topo, Precision::Fp16);
                assert!(report.is_clean(), "{report}");
            }
        }
        let p2p = Collective::p2p(1 << 24, GpuId(0), GpuId(1));
        let report = check_comm_op(&p2p, Algorithm::Direct, &sku, &topo, Precision::Fp16);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn kernel_oracle_accepts_the_production_roofline() {
        let kernels = [
            KernelKind::gemm(4096, 4096, 4096),
            KernelKind::gemm(64, 64, 64),
            KernelKind::LayerNorm { elems: 1 << 20 },
            KernelKind::Softmax {
                rows: 1 << 12,
                cols: 1 << 10,
            },
            KernelKind::AdamStep { params: 1 << 24 },
        ];
        for sku in [GpuSku::a100(), GpuSku::h100(), GpuSku::mi250()] {
            for kernel in &kernels {
                for datapath in [Datapath::TensorCore, Datapath::Vector] {
                    let report = check_kernel(kernel, &sku, Precision::Fp16, datapath);
                    assert!(report.is_clean(), "{report}");
                }
            }
        }
    }

    #[test]
    fn cell_oracle_accepts_a_stock_fsdp_cell() {
        let exp =
            Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(256);
        let report = check_cell(&exp).expect("cell must be feasible");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn cell_oracle_propagates_oom() {
        // A100 40 GB cannot hold 13B-parameter FSDP at batch 64 — the
        // paper's missing bars. The oracle must report that as an error,
        // not a divergence.
        let exp = Experiment::new(SkuKind::A100, 4, ModelPreset::Gpt3_13B, Strategy::Fsdp, 64);
        assert!(matches!(
            check_cell(&exp),
            Err(ExperimentError::OutOfMemory { .. })
        ));
    }
}
