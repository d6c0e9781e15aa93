//! Per-cell cost microbenchmark: the perf trajectory behind the hot-path
//! work. Measures the median wall-clock of executing one representative
//! grid-cell schedule several ways —
//!
//! * `event_loop_cold_arena` — the engine with a fresh [`SimArena`] every
//!   run (the pre-arena allocation behavior);
//! * `event_loop_warm_arena` — the engine reusing one arena (the shipping
//!   configuration of [`olab_core::execute_model`]);
//! * `event_loop_full_stats` — the engine plus the full per-GPU statistics
//!   derivation ([`olab_core::execute_model`]);
//! * `event_loop_lean` — the record-free event-loop route of
//!   [`olab_core::execute_lean`] ([`olab_core::execute_model_lean`]): the
//!   engine without task records plus the scalar statistics, the cheapest
//!   the event loop can deliver metrics, since it must run every epoch
//!   before any statistic exists;
//! * `fast_path_full` — [`olab_core::execute`] routed through the
//!   contention-free analytic closed form, materializing the same full
//!   [`RunResult`](olab_core::RunResult);
//! * `fast_path_lean` — [`olab_core::execute_lean`] served analytically:
//!   scalar metrics straight from the closed form, no trace at all.
//!
//! The headline `fast_path_speedup` compares like for like at the metrics
//! level — `event_loop_lean / fast_path_lean` — which is how sweeps consume
//! cells; `fast_path_full_speedup` is the full-result comparison.
//!
//! Writes a single snapshot (override the path with `--out <path>`) and
//! prints the same JSON to stdout; `--smoke` shrinks the cell and
//! iteration count for CI. Each snapshot is stamped with the commit and
//! mode so the `trend` binary can append it to the `BENCH_cell.json`
//! trajectory and gate future runs against it. The differential suite in
//! `olab-oracle` pins that all paths produce the same answers; this
//! binary pins what they cost.

use olab_core::fastpath::Route;
use olab_core::fmtutil::{json_escape, validate_json};
use olab_core::{execute, execute_lean, execute_model, execute_model_lean, Experiment, Strategy};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;
use olab_parallel::ExecutionMode;
use olab_sim::{Engine, NullObserver, SimArena};
use std::time::Instant;

fn median_ns(samples: &[u128]) -> u128 {
    quantile_ns(samples, 0.5)
}

fn p99_ns(samples: &[u128]) -> u128 {
    quantile_ns(samples, 0.99)
}

fn quantile_ns(samples: &[u128], q: f64) -> u128 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_cell.json".to_string());

    let seq = if smoke { 64 } else { 128 };
    let iters = if smoke { 10 } else { 40 };
    let exp =
        Experiment::new(SkuKind::H100, 4, ModelPreset::Gpt3Xl, Strategy::Fsdp, 8).with_seq(seq);
    let policy = exp.validate().expect("benchmark cell fits in memory");
    let machine = exp.machine();
    // The sequential schedule on the stock (contended) machine: fast-path
    // eligible — no co-resident compute/comm pair — yet priced through the
    // full contention model, so both paths do representative work.
    let workload = exp
        .timeline(ExecutionMode::Sequential, policy)
        .expect("timeline builds");

    // Engine-level arena comparison (trace production only, no stats).
    let mut engine = Engine::new(machine.clone());
    let mut warm_arena = SimArena::new();
    engine
        .run_observed_in(&workload, &mut NullObserver, &mut warm_arena)
        .expect("workload runs");
    let mut cold = Vec::with_capacity(iters);
    let mut warm = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        engine
            .run_observed_in(&workload, &mut NullObserver, &mut SimArena::new())
            .expect("workload runs");
        cold.push(t.elapsed().as_nanos());

        let t = Instant::now();
        engine
            .run_observed_in(&workload, &mut NullObserver, &mut warm_arena)
            .expect("workload runs");
        warm.push(t.elapsed().as_nanos());
    }

    // Executor-level path comparison: full results and lean (scalar-only)
    // results, through the fast path and through the event loop. Every
    // fast iteration asserts its route: the benchmark cell must be
    // fast-path eligible, or the "fast" timings would time the event loop.
    execute(&workload, &machine).expect("workload runs");
    execute_lean(&workload, &machine).expect("workload runs");
    let mut fast_full = Vec::with_capacity(iters);
    let mut fast_lean = Vec::with_capacity(iters);
    let mut loop_full = Vec::with_capacity(iters);
    let mut loop_lean = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        // The result drops inside the timed statement, so freeing it is
        // timed too; only the route outlives it.
        let route = execute(&workload, &machine).expect("workload runs").route;
        fast_full.push(t.elapsed().as_nanos());
        assert_eq!(
            route,
            Route::FastPath,
            "benchmark cell must be fast-path eligible"
        );

        let t = Instant::now();
        let route = execute_lean(&workload, &machine)
            .expect("workload runs")
            .route;
        fast_lean.push(t.elapsed().as_nanos());
        assert_eq!(
            route,
            Route::FastPath,
            "benchmark cell must be fast-path eligible"
        );

        let t = Instant::now();
        execute_model(&workload, machine.clone(), &mut NullObserver).expect("workload runs");
        loop_full.push(t.elapsed().as_nanos());

        let t = Instant::now();
        let lean = execute_model_lean(&workload, machine.clone()).expect("workload runs");
        loop_lean.push(t.elapsed().as_nanos());
        assert!(lean.e2e_s > 0.0);
    }

    let cold_ns = median_ns(&cold);
    let warm_ns = median_ns(&warm);
    let fast_full_ns = median_ns(&fast_full);
    let fast_lean_ns = median_ns(&fast_lean);
    let loop_full_ns = median_ns(&loop_full);
    let loop_lean_ns = median_ns(&loop_lean);
    let speedup = loop_lean_ns as f64 / fast_lean_ns as f64;
    let full_speedup = loop_full_ns as f64 / fast_full_ns as f64;
    let arena_savings = 1.0 - warm_ns as f64 / cold_ns as f64;
    let mode = if smoke { "smoke" } else { "full" };
    let commit = olab_bench::trend::current_commit();

    let json = format!(
        "{{\n  \"bench\": \"cell_cost\",\n  \"commit\": \"{}\",\n  \"mode\": \"{}\",\n  \"cell\": \"{}\",\n  \"tasks\": {},\n  \"iters\": {},\n  \"median_ns\": {{\n    \"event_loop_cold_arena\": {},\n    \"event_loop_warm_arena\": {},\n    \"event_loop_full_stats\": {},\n    \"event_loop_lean\": {},\n    \"fast_path_full\": {},\n    \"fast_path_lean\": {}\n  }},\n  \"p99_ns\": {{\n    \"event_loop_cold_arena\": {},\n    \"event_loop_warm_arena\": {},\n    \"event_loop_full_stats\": {},\n    \"event_loop_lean\": {},\n    \"fast_path_full\": {},\n    \"fast_path_lean\": {}\n  }},\n  \"fast_path_speedup\": {:.2},\n  \"fast_path_full_speedup\": {:.2},\n  \"warm_arena_savings_frac\": {:.4}\n}}\n",
        json_escape(&commit),
        mode,
        json_escape(&exp.label()),
        workload.len(),
        iters,
        cold_ns,
        warm_ns,
        loop_full_ns,
        loop_lean_ns,
        fast_full_ns,
        fast_lean_ns,
        p99_ns(&cold),
        p99_ns(&warm),
        p99_ns(&loop_full),
        p99_ns(&loop_lean),
        p99_ns(&fast_full),
        p99_ns(&fast_lean),
        speedup,
        full_speedup,
        arena_savings,
    );
    validate_json(&json).expect("benchmark JSON is well-formed");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    print!("{json}");
    eprintln!(
        "cell_cost: lean fast path {speedup:.1}x, full fast path {full_speedup:.1}x vs event loop ({} tasks, {} iters) -> {out_path}",
        workload.len(),
        iters
    );
}
