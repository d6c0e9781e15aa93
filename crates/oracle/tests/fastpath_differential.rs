//! The fast-path differential suite: the analytic fast path must be
//! observationally equivalent to the event loop on every eligible cell,
//! and must *never* fire on cells it cannot legally serve.
//!
//! Every result records the path that served it (`RunResult::route`,
//! `LeanRun::route`), so each test reads attribution off its own results
//! and the tests run in parallel under the default harness.

use olab_ccl::{lower, Algorithm, Collective};
use olab_core::fastpath::Route;
use olab_core::{
    execute, execute_lean, execute_model, Experiment, Jitter, LeanRun, Machine, Strategy,
};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision, SkuKind};
use olab_grid::Pool;
use olab_models::ModelPreset;
use olab_oracle::{check_fastpath_equivalence, random_experiment};
use olab_parallel::{ComputeOp, ExecutionMode, Op};
use olab_sim::{
    EngineObserver, GpuCounters, GpuId, NullObserver, StreamKind, TaskId, TaskSpec, Workload,
};

/// A stock FSDP cell whose overlapped timeline genuinely overlaps compute
/// and communication (the executor tests pin overlap_ratio > 0.02 on it).
fn overlapping_cell() -> Experiment {
    Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(128)
}

/// Runs `w` through the router, full and lean, and through the reference
/// event loop: both routed runs must reproduce the reference exactly (the
/// same engine on the same machine), error for error when the workload
/// does not run. `LeanRun` carries the route, so equality with the
/// reference also pins `Route::EventLoop`.
fn assert_event_loop(w: &Workload<Op>, machine: &Machine, why: &str) {
    let reference =
        execute_model(w, machine.clone(), &mut NullObserver).map(|r| LeanRun::summarize(&r));
    let routed = execute(w, machine).map(|r| LeanRun::summarize(&r));
    assert_eq!(routed, reference, "{why}");
    assert_eq!(execute_lean(w, machine), reference, "{why}");
}

#[test]
fn fast_path_matches_event_loop_on_200_contention_free_cells() {
    // Collect feasible cells first (OOM cells are legitimate skips), then
    // fan the comparisons across the pool. 260 seeds leave slack above the
    // 200-cell floor.
    let cells: Vec<Experiment> = (0..260u64)
        .map(random_experiment)
        .filter(|e| e.validate().is_ok())
        .collect();
    assert!(cells.len() >= 200, "only {} feasible cells", cells.len());

    let checks = Pool::with_available_parallelism().map(&cells, |exp| {
        check_fastpath_equivalence(exp).expect("validated cell must run")
    });
    let fast_served: usize = checks.iter().map(|(_, served)| served).sum();

    let dirty: Vec<String> = checks
        .iter()
        .filter(|(r, _)| !r.is_clean())
        .map(|(r, _)| r.to_string())
        .collect();
    assert!(
        dirty.is_empty(),
        "{} of {} cells diverged between the fast path and the event loop:\n{}",
        dirty.len(),
        checks.len(),
        dirty.join("\n")
    );
    // Each cell routes four legs (full and lean of the sequential/contended
    // and overlapped/uncontended shapes); the fast path must have actually
    // served a good share of them — a trivially-green suite where
    // everything fell back to the event loop would prove nothing.
    assert!(
        fast_served >= cells.len(),
        "fast path served only {fast_served} of {} routed runs",
        4 * cells.len()
    );
}

#[test]
fn contended_overlap_never_takes_the_fast_path() {
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Overlapped, policy)
        .expect("timeline builds");
    assert_event_loop(
        &w,
        &exp.machine(),
        "a contended overlapped schedule must fall back to the event loop",
    );
}

#[test]
fn jittered_machines_never_take_the_fast_path() {
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let machine = exp.machine();
    assert_eq!(
        execute(&w, &machine).expect("runs").route,
        Route::FastPath,
        "the sequential schedule is eligible without jitter"
    );
    let jittered = machine.with_jitter(Jitter {
        seed: 11,
        sigma: 0.02,
    });
    assert_event_loop(
        &w,
        &jittered,
        "jitter only exists epoch by epoch; the closed form must decline",
    );
}

#[test]
fn freq_capped_machines_never_take_the_fast_path() {
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let mut capped = exp.machine();
    capped.set_gpu_freq_caps(vec![0.6; exp.n_gpus]);
    assert_event_loop(
        &w,
        &capped,
        "transient frequency caps are event-loop-only state",
    );

    // A cap of exactly 1.0 is a no-op and must not disqualify.
    let mut uncapped = exp.machine();
    uncapped.set_gpu_freq_caps(vec![1.0; exp.n_gpus]);
    assert_eq!(execute(&w, &uncapped).expect("runs").route, Route::FastPath);
}

fn gemm() -> Op {
    Op::Compute(ComputeOp::new(
        KernelKind::gemm(256, 256, 256),
        Precision::Fp16,
        Datapath::TensorCore,
    ))
}

fn all_reduce(machine: &Machine) -> Op {
    let group: Vec<GpuId> = (0..2).map(GpuId).collect();
    Op::Comm(lower(
        &Collective::all_reduce(1 << 20, group),
        Algorithm::Ring,
        &machine.config().sku,
        &machine.config().topology,
        Precision::Fp16,
    ))
}

#[test]
fn forward_dependencies_never_take_the_fast_path() {
    // Uncontended, so co-residency cannot be what disqualifies the cell.
    let machine = Machine::stock(GpuSku::h100(), 2).uncontended();
    let workload = |forward: bool| {
        let mut w = Workload::new(2);
        let mut first = TaskSpec::compute("k0", GpuId(0), gemm());
        if forward {
            // Depends on the task pushed next: the one-pass closed form
            // requires every dependency to point backward in push order.
            first = first.after(TaskId(1));
        }
        w.push(first);
        w.push(TaskSpec::compute("k1", GpuId(1), gemm()));
        w
    };
    assert_eq!(
        execute(&workload(false), &machine).expect("runs").route,
        Route::FastPath,
        "the same tasks with no forward dependency are eligible"
    );
    assert_event_loop(
        &workload(true),
        &machine,
        "a forward dependency must fall back to the event loop",
    );
}

#[test]
fn comm_payloads_on_the_compute_stream_never_take_the_fast_path() {
    let machine = Machine::stock(GpuSku::h100(), 2);
    let workload = |stream: StreamKind| {
        let mut w = Workload::new(2);
        w.push(TaskSpec::new(
            "all_reduce",
            vec![GpuId(0), GpuId(1)],
            stream,
            all_reduce(&machine),
        ));
        w
    };
    assert_eq!(
        execute(&workload(StreamKind::Comm), &machine)
            .expect("runs")
            .route,
        Route::FastPath,
        "the same collective on the comm stream is eligible"
    );
    // The engine prices by payload while the closed form walks streams, so
    // such hybrids stay on the event loop.
    assert_event_loop(
        &workload(StreamKind::Compute),
        &machine,
        "a comm payload on the compute stream must fall back to the event loop",
    );
}

/// An enabled observer that merely counts callbacks — only the event loop
/// can drive task edges and epochs.
#[derive(Default)]
struct CountingObserver {
    starts: usize,
    epochs: usize,
}

impl EngineObserver for CountingObserver {
    const ENABLED: bool = true;

    fn on_task_start(
        &mut self,
        _now_s: f64,
        _id: olab_sim::TaskId,
        _label: &str,
        _participants: &[olab_sim::GpuId],
        _stream: olab_sim::StreamKind,
    ) {
        self.starts += 1;
    }

    fn on_epoch(&mut self, _start_s: f64, _end_s: f64, _counters: &[GpuCounters]) {
        self.epochs += 1;
    }
}

#[test]
fn observed_runs_never_take_the_fast_path() {
    let exp = overlapping_cell();
    let policy = exp.validate().expect("cell fits");
    let w = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");
    let machine = exp.machine();

    let mut obs = CountingObserver::default();
    let observed = execute_model(&w, machine.clone(), &mut obs).expect("runs");
    assert_eq!(
        observed.route,
        Route::EventLoop,
        "an enabled observer needs the event loop's callbacks"
    );
    assert_eq!(obs.starts, w.tasks().len(), "observer saw every task");
    assert!(obs.epochs > 0, "observer saw the epochs");

    // Observation changes nothing about the answer.
    let unobserved = execute_model(&w, machine, &mut NullObserver).expect("runs");
    assert_eq!(
        LeanRun::summarize(&observed),
        LeanRun::summarize(&unobserved)
    );
}
