//! The event loop's pricing memo, counted: over one serial `run_cell`
//! pass of the paper's main grid, `Machine::assign_rates` reuses most
//! GPU-epochs' pricing (from that GPU's previous epoch, or from its
//! symmetric neighbour in the same epoch) and prices the rest afresh.
//! The totals are a pure function of the grid, so they are pinned exactly.
//! So are the route counters of the same pass and of a jittered `run_n`
//! pass: which executor serves each leg, and how often the engine runs,
//! must not move when a leg computes less.
//!
//! One `#[test]` in its own binary, because the registry (and its enable
//! flag) is process-global.

use olab_core::registry;
use olab_metrics::Determinism;

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
    let reused = total("olab_core_pricing_reused_total");
    let priced = total("olab_core_pricing_priced_total");
    assert_eq!(
        (reused, priced),
        (934_819, 306_145),
        "reused + priced = {} GPU-epochs",
        reused + priced
    );

    // Routes: the ideal and sequential legs on the fast path, the
    // contended overlapped leg on the event loop, nothing through the
    // full-statistics executors.
    let routes = || {
        [
            "olab_core_route_fast_lean_total",
            "olab_core_route_event_loop_lean_total",
            "olab_core_route_fast_full_total",
            "olab_core_route_event_loop_full_total",
            "olab_sim_engine_runs_total",
        ]
        .map(total)
    };
    assert_eq!(routes(), [214, 107, 0, 0, 107]);

    // Jitter keeps every leg on the event loop: 15 feasible cells among
    // the first 40, two seeds, three legs.
    olab_metrics::reset();
    for exp in registry::main_grid().iter().take(40) {
        let _ = exp.run_n(2, 0.05);
    }
    assert_eq!(routes(), [0, 90, 0, 0, 90]);
}
