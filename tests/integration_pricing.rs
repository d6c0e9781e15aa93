//! The event loop's pricing memo, counted: over one serial `run_cell`
//! pass of the paper's main grid, `Machine::assign_rates` reuses almost
//! every GPU-epoch's pricing (the GPU's own from its previous epoch, or
//! its class's from the run's pricing table) and prices afresh only the
//! first GPU-epoch of each (kernel, collective load, clock cap) class in
//! each run. The totals are a pure function of the grid, so they are
//! pinned exactly, for that pass and for a jittered `run_n` pass.
//! So are the route counters of the same pass, of a jittered `run_n`
//! pass, and of the report path (`run`, `run_jittered`): which executor
//! serves each leg, and how often the engine runs and for how many
//! epochs, must not move when a leg computes less. A run the engine
//! rejects is counted under no route.
//!
//! One `#[test]` in its own binary, because the registry (and its enable
//! flag) is process-global.

use olab_core::{execute, execute_lean, registry, Machine};
use olab_gpu::{Datapath, GpuSku, KernelKind, Precision};
use olab_metrics::Determinism;
use olab_parallel::{ComputeOp, Op};
use olab_sim::{GpuId, TaskId, TaskSpec, Workload};

#[test]
fn pricing_memo_totals_are_pinned_on_the_main_grid() {
    olab_metrics::set_enabled(true);
    olab_core::fastpath::touch_metrics();
    olab_metrics::reset();

    let feasible = registry::main_grid()
        .iter()
        .filter_map(|exp| exp.run_cell().ok())
        .count();
    assert_eq!(feasible, 107);

    let total = |name| olab_metrics::counter(name, Determinism::CrossRun, "").get();
    // 1,240,964 GPU-epochs, of which 3,564 fresh pricings: about 33
    // classes per overlapped leg.
    let pricing = || {
        [
            "olab_core_pricing_reused_total",
            "olab_core_pricing_priced_total",
        ]
        .map(total)
    };
    assert_eq!(pricing(), [1_237_400, 3_564]);

    // Routes: the ideal and sequential legs on the fast path, the
    // contended overlapped leg on the event loop, nothing through the
    // full-statistics executors. The last column counts the event loop's
    // epochs: 2,899 per overlapped leg, one `assign_rates` call each (a
    // quarter of the GPU-epochs above).
    let routes = || {
        [
            "olab_core_route_fast_lean_total",
            "olab_core_route_event_loop_lean_total",
            "olab_core_route_fast_full_total",
            "olab_core_route_event_loop_full_total",
            "olab_sim_engine_runs_total",
            "olab_sim_engine_epochs_total",
        ]
        .map(total)
    };
    assert_eq!(routes(), [214, 107, 0, 0, 107, 310_241]);

    // Jitter keeps every leg on the event loop: 15 feasible cells among
    // the first 40, two seeds, three legs. Noise scales rates after
    // pricing, so the table serves jittered legs too: 1,700,400
    // GPU-epochs, 2,877 fresh pricings over 90 runs.
    olab_metrics::reset();
    for exp in registry::main_grid().iter().take(40) {
        let _ = exp.run_n(2, 0.05);
    }
    assert_eq!(routes(), [0, 90, 0, 0, 90, 425_100]);
    assert_eq!(pricing(), [1_697_523, 2_877]);

    // The report path: the overlapped and sequential legs through the
    // full-statistics executor, the ideal leg makespan-only (lean).
    olab_metrics::reset();
    for exp in registry::main_grid() {
        let _ = exp.run();
    }
    assert_eq!(routes(), [107, 0, 107, 107, 107, 310_241]);

    // ... and under jitter, every leg on the event loop: 15 feasible
    // cells, two full legs and one lean leg each.
    olab_metrics::reset();
    for exp in registry::main_grid().iter().take(40) {
        let _ = exp.run_jittered(3, 0.05);
    }
    assert_eq!(routes(), [0, 15, 0, 30, 45, 212_550]);

    // A run the engine rejects counts under no route: one self-dependent
    // task falls through the fast path to the event loop, which fails.
    olab_metrics::reset();
    let machine = Machine::stock(GpuSku::h100(), 2).uncontended();
    let gemm = ComputeOp::new(
        KernelKind::gemm(256, 256, 256),
        Precision::Fp16,
        Datapath::TensorCore,
    );
    let mut w = Workload::new(2);
    let gemm = w.intern(Op::Compute(gemm));
    w.push(TaskSpec::compute("k0", GpuId(0), gemm).after(TaskId(0)));
    assert!(execute(&w, &machine).is_err());
    assert!(execute_lean(&w, &machine).is_err());
    assert_eq!(routes(), [0; 6]);
}
