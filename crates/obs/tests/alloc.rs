//! The zero-overhead contract of the event bus: emitting to a bus with no
//! subscribers performs no heap allocation at all. Events are borrowed
//! enums built on the stack; nothing is cloned until a sink asks for it.
//!
//! Pinned with a counting global allocator (the library itself forbids
//! unsafe code; this integration test is a separate crate and may count
//! allocations the only way Rust allows).

use olab_obs::{EventBus, ObsEvent};
use olab_sim::GpuId;
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

#[test]
fn emitting_to_an_empty_bus_allocates_nothing() {
    let mut bus = EventBus::new();
    let gpus = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
    let label = String::from("all_gather layer7"); // allocated before measuring

    let before = allocations();
    for i in 0..10_000u64 {
        bus.emit(&ObsEvent::CollectiveStart {
            t_s: i as f64 * 1e-3,
            id: i,
            label: &label,
            gpus: &gpus,
        });
        bus.emit(&ObsEvent::DvfsTransition {
            t_s: i as f64 * 1e-3,
            gpu: 0,
            from: 1.0,
            to: 0.75,
        });
        bus.emit(&ObsEvent::CollectiveEnd {
            t_s: i as f64 * 1e-3,
            id: i,
            label: &label,
            gpus: &gpus,
        });
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "an unobserved event bus must be allocation-free"
    );
}
