//! The grid path's allocation budget: a warm `Experiment::run_cell` on one
//! thread allocates for the cell's scalars and per-run buffers, not per
//! task. A lowered cell holds about 4,800 tasks on average; each task's
//! participants and dependencies live inline in its `TaskSpec`, so
//! lowering, sequential chaining and dropping the workload allocate
//! nothing per task. When each task owned a participants `Vec` and most
//! a deps `Vec`, a warm cell made about 10,000 allocations.
//!
//! Pinned with a counting global allocator, like
//! `olab-sim/tests/alloc_budget.rs` (the libraries forbid unsafe code; a
//! separate integration-test crate is the only place Rust lets us count).

use olab_core::{registry, Experiment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread, so tests on other harness threads
    /// never count into it; `const`-initialized with no destructor, so
    /// touching it from inside the allocator never allocates.
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

/// Average allocations per warm feasible main-grid cell: 138 measured,
/// plus 10%. What a cell still allocates is per cell or per run, not per
/// layer or per task: the lowerings' kernel lists and interned kernel-id
/// lists, the group of each distinct collective (one per collective shape,
/// not one per collective task), the pipeline's per-stage programs and
/// per-(stage, microbatch) tables, the spilled dependency lists of tasks
/// with more than four deps, the engine's per-run views, the fast path's
/// per-leg schedule arrays, and the sampled power trace. Per-rank id lists
/// are inline, and the per-GPU activity of the event loop's lean runs is
/// recycled.
const BUDGET_PER_CELL: usize = 151;

#[test]
fn a_warm_grid_cell_allocates_per_run_not_per_task() {
    // The filtering pass also warms this thread: the engine arena, the
    // recycled task storage and the metric registrations.
    let cells: Vec<Experiment> = registry::main_grid()
        .into_iter()
        .filter(|exp| exp.run_cell().is_ok())
        .collect();
    assert_eq!(cells.len(), 107);

    let before = allocations();
    for exp in &cells {
        exp.run_cell().expect("a feasible cell runs");
    }
    let per_cell = (allocations() - before) / cells.len();
    assert!(
        per_cell <= BUDGET_PER_CELL,
        "a warm main-grid cell allocates {per_cell} times on average \
         (budget {BUDGET_PER_CELL}) — something on the grid path allocates per task"
    );
}
