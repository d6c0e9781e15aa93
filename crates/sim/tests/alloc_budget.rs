//! The arena contract of the engine hot path: once this thread's scratch
//! arena is warm, a run allocates only for the *output* it hands back (the
//! `SimTrace`'s records vec and its per-GPU vectors) — the event loop
//! itself is allocation-free, and no record owns heap memory. A dropped
//! trace hands those vectors back to the engine, so a warm traced run
//! after a dropped one allocates only its view buffer. A
//! record-free run ([`Engine::run_summary`]) hands back no per-task output
//! at all, so its allocation count does not grow with the task count, and
//! a makespan-only run ([`Engine::run_makespan`]) allocates only its view
//! buffer.
//!
//! Every engine run draws its arena from a per-thread slot, so a warm run
//! is a warm-up run followed by counted runs on the same thread, and a
//! cold run is one counted inside a fresh thread.
//!
//! Pinned with a counting global allocator, like `olab-obs/tests/alloc.rs`
//! (the library forbids unsafe code; a separate integration-test crate is
//! the only place Rust lets us count).

use olab_sim::{ConstantRate, Engine, GpuId, TaskSpec, Workload};
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
    workload_of(N_TASKS)
}

fn workload_of(n_tasks: usize) -> Workload<()> {
    let mut w = Workload::new(N_GPUS);
    let unit = w.intern(());
    let mut ids = Vec::new();
    for i in 0..n_tasks {
        let gpu = GpuId((i % N_GPUS) as u16);
        let mut spec = if i % 2 == 0 {
            TaskSpec::compute(format!("k{i}"), gpu, unit)
        } else {
            TaskSpec::comm(format!("c{i}"), gpu, unit)
        };
        if i >= 4 && i % 4 == 0 {
            spec = spec.after(ids[i - 4]);
        }
        ids.push(w.push(spec));
    }
    w
}

const RUNS: usize = 10;

fn allocations_per_run(engine: &mut Engine<ConstantRate>, w: &Workload<()>, warm: bool) -> usize {
    let total: usize = if warm {
        // Warm-up: grow this thread's arena (and the trace-side
        // capacities) to steady state.
        engine.run(w).expect("workload runs");
        let before = allocations();
        for _ in 0..RUNS {
            engine.run(w).expect("workload runs");
        }
        allocations() - before
    } else {
        (0..RUNS)
            .map(|_| {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let before = allocations();
                        engine.run(w).expect("workload runs");
                        allocations() - before
                    })
                    .join()
                    .expect("cold run thread")
                })
            })
            .sum()
    };
    total / RUNS
}

/// The documented steady-state budget, derived from what legitimately
/// escapes the run:
///
/// * the records vec, allocated once at its exact length. A record owns
///   no heap memory: its participants are an inline
///   [`olab_sim::Participants`] and its [`olab_sim::Label`] clones
///   without allocating;
/// * the per-GPU activity vec and each GPU's power-segment vec (this
///   workload's constant draw merges into one segment per GPU);
/// * the per-epoch view buffer.
///
/// That was 7 allocations for 64 tasks, measured; since a dropped trace
/// hands its vectors back, a run after a dropped one measures 1 (see
/// `dropped_traces_leave_only_the_view_buffer`). 16 leaves room for a few
/// regrowths of the per-GPU vectors while anything per task fails: a
/// record that owned its participants `Vec` again would add 64, which is
/// what the budget of 2 allocations per task let through before records
/// went inline (71 measured then).
const WARM_BUDGET: usize = 16;

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

/// The budget of a warm record-free run, whatever its task count: the
/// per-GPU activity vec and each GPU's power and window vecs, the task
/// totals, and the per-epoch view buffer. This workload's constant-power
/// segments merge into one per GPU, so nothing grows with the tasks.
const RECORD_FREE_BUDGET: usize = 16;

fn record_free_allocations_per_run(w: &Workload<()>) -> usize {
    let mut engine = Engine::new(ConstantRate::default());
    engine.run_summary(w).expect("workload runs");
    let before = allocations();
    for _ in 0..RUNS {
        engine.run_summary(w).expect("workload runs");
    }
    (allocations() - before) / RUNS
}

#[test]
fn warm_record_free_runs_allocate_independently_of_the_task_count() {
    olab_sim::metrics::touch();
    let small = record_free_allocations_per_run(&workload());
    let large = record_free_allocations_per_run(&workload_of(16 * N_TASKS));
    assert!(
        small <= RECORD_FREE_BUDGET,
        "warm record-free run allocates {small} times for {N_TASKS} tasks \
         (budget {RECORD_FREE_BUDGET})"
    );
    assert_eq!(
        small,
        large,
        "a record-free run must not allocate per task: {small} allocations for \
         {N_TASKS} tasks, {large} for {}",
        16 * N_TASKS
    );
}

/// A warm makespan-only run ([`Engine::run_makespan`]) keeps no per-device
/// activity and no task totals: its one allocation is the per-run view
/// buffer, whatever the task count.
#[test]
fn warm_makespan_only_runs_allocate_only_the_view_buffer() {
    olab_sim::metrics::touch();
    for w in [workload(), workload_of(16 * N_TASKS)] {
        let mut engine = Engine::new(ConstantRate::default());
        engine.run_makespan(&w).expect("workload runs");
        let before = allocations();
        for _ in 0..RUNS {
            engine.run_makespan(&w).expect("workload runs");
        }
        let per_run = (allocations() - before) / RUNS;
        assert_eq!(
            per_run,
            1,
            "a warm makespan-only run of {} tasks allocates {per_run} times",
            w.len()
        );
    }
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

/// A warm record-free run whose per-device activity goes back to the
/// engine ([`olab_sim::recycle_activity`]) records into the spare's
/// buffers: of the record-free run's allocations only the task totals'
/// busy and co-active vecs and the per-run view buffer remain, whatever
/// the task count.
#[test]
fn recycled_activity_leaves_only_the_totals_and_the_view_buffer() {
    olab_sim::metrics::touch();
    for w in [workload(), workload_of(16 * N_TASKS)] {
        let mut engine = Engine::new(ConstantRate::default());
        olab_sim::recycle_activity(engine.run_summary(&w).expect("workload runs").gpus);
        let before = allocations();
        for _ in 0..RUNS {
            let summary = engine.run_summary(&w).expect("workload runs");
            olab_sim::recycle_activity(summary.gpus);
        }
        let per_run = (allocations() - before) / RUNS;
        assert_eq!(
            per_run,
            3,
            "a warm recycled run of {} tasks allocates {per_run} times",
            w.len()
        );
    }
}

/// A dropped trace hands its record vector and per-device activity back
/// to this thread's engine: warm traced runs whose traces are dropped
/// allocate only their view buffers, whatever the task count, also when
/// two traces are alive at once, as a report's two traced legs are.
#[test]
fn dropped_traces_leave_only_the_view_buffer() {
    olab_sim::metrics::touch();
    for w in [workload(), workload_of(16 * N_TASKS)] {
        let mut engine = Engine::new(ConstantRate::default());
        let both = |engine: &mut Engine<ConstantRate>| {
            let first = engine.run(&w).expect("workload runs");
            let second = engine.run(&w).expect("workload runs");
            assert_eq!(first.records().len(), w.len());
            assert_eq!(second.records().len(), w.len());
        };
        both(&mut engine);
        let before = allocations();
        for _ in 0..RUNS {
            both(&mut engine);
        }
        let per_run = (allocations() - before) / (2 * RUNS);
        assert_eq!(
            per_run,
            1,
            "a warm traced run of {} tasks allocates {per_run} times",
            w.len()
        );
    }
}
