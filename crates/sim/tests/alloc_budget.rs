//! The arena contract of the engine hot path: once a [`SimArena`] is warm,
//! a run allocates only for the *output* it hands back (the `SimTrace` and
//! its per-task/per-GPU vectors) — the event loop itself is allocation-free.
//!
//! Pinned with a counting global allocator, like `olab-obs/tests/alloc.rs`
//! (the library forbids unsafe code; a separate integration-test crate is
//! the only place Rust lets us count).

use olab_sim::{ConstantRate, Engine, GpuId, NullObserver, SimArena, TaskSpec, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread, so tests running in
    /// parallel on the harness's threads never count each other's
    /// allocations; `const`-initialized with no destructor, so touching it
    /// from inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N_GPUS: usize = 4;
const TASKS_PER_GPU: usize = 16;
const N_TASKS: usize = N_GPUS * TASKS_PER_GPU;

/// A dependency-chained compute/comm mix: every GPU alternates streams,
/// with a cross-GPU dependency every fourth task so promotion and retire
/// both do real work.
fn workload() -> Workload<()> {
    let mut w = Workload::new(N_GPUS);
    let mut ids = Vec::new();
    for i in 0..N_TASKS {
        let gpu = GpuId((i % N_GPUS) as u16);
        let mut spec = if i % 2 == 0 {
            TaskSpec::compute(format!("k{i}"), gpu, ())
        } else {
            TaskSpec::comm(format!("c{i}"), gpu, ())
        };
        if i >= 4 && i % 4 == 0 {
            spec = spec.after(ids[i - 4]);
        }
        ids.push(w.push(spec));
    }
    w
}

fn allocations_per_run(engine: &mut Engine<ConstantRate>, w: &Workload<()>, warm: bool) -> usize {
    const RUNS: usize = 10;
    let mut arena = SimArena::new();
    // Warm-up: grow the arena (and the trace-side capacities) to steady state.
    engine
        .run_observed_in(w, &mut NullObserver, &mut arena)
        .expect("workload runs");
    let before = allocations();
    for _ in 0..RUNS {
        if warm {
            engine
                .run_observed_in(w, &mut NullObserver, &mut arena)
                .expect("workload runs");
        } else {
            engine
                .run_observed_in(w, &mut NullObserver, &mut SimArena::new())
                .expect("workload runs");
        }
    }
    (allocations() - before) / RUNS
}

/// The documented steady-state budget, derived from what legitimately
/// escapes the run:
///
/// * 2 allocations per task record — its label `String` and participants
///   `Vec<GpuId>` (the trace owns both);
/// * ~1 allocation per task of vector *growth* across the records vec, the
///   per-GPU window/power/overlap vecs and the per-epoch coactive clips
///   (amortized doubling, counted at its worst);
/// * a constant handful for the trace itself, the per-GPU activity vec and
///   the per-epoch view buffer.
///
/// 3 per task is comfortable headroom over the measured ~2.1/task without
/// letting a per-epoch or per-dependency regression (O(epochs × tasks))
/// hide: the pre-arena engine paid an extra ~1 allocation per task per run
/// in queue/dependency scaffolding alone, before any growth churn.
const WARM_BUDGET: usize = 3 * N_TASKS + 32;

#[test]
fn warm_arena_runs_stay_within_the_allocation_budget() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    let per_run = allocations_per_run(&mut engine, &w, true);
    assert!(
        per_run <= WARM_BUDGET,
        "warm steady-state run allocates {per_run} times for {N_TASKS} tasks \
         (budget {WARM_BUDGET}) — the engine hot path regressed"
    );
}

/// Self-telemetry must be invisible to the arena contract: recording is
/// pure atomics, so the warm budget holds with the registry disabled
/// (default) *and* enabled. Registration itself allocates, which is why
/// the families are touched before counting starts — that cost is paid
/// once per process, never per run.
#[test]
fn metrics_recording_stays_within_the_warm_budget() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    olab_sim::metrics::touch();

    olab_metrics::set_enabled(true);
    let enabled = allocations_per_run(&mut engine, &w, true);
    olab_metrics::set_enabled(false);
    let disabled = allocations_per_run(&mut engine, &w, true);

    assert!(
        enabled <= WARM_BUDGET,
        "warm run with metrics enabled allocates {enabled} times \
         (budget {WARM_BUDGET}) — recording must stay allocation-free"
    );
    assert!(
        disabled <= WARM_BUDGET,
        "warm run with metrics disabled allocates {disabled} times \
         (budget {WARM_BUDGET}) — the disabled path regressed"
    );
}

#[test]
fn warm_arena_beats_a_cold_arena() {
    let w = workload();
    let mut engine = Engine::new(ConstantRate::default());
    let warm = allocations_per_run(&mut engine, &w, true);
    let cold = allocations_per_run(&mut engine, &w, false);
    assert!(
        warm < cold,
        "arena reuse must save allocations: warm {warm} vs cold {cold}"
    );
}
