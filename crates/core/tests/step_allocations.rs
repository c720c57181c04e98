//! Heap allocations of one offline decode run, counted by a counting
//! global allocator.
//!
//! A step solve should pay for the simulation, not for formatting labels,
//! naming resources or growing per-task buffers. The count is
//! deterministic: the same code makes the same allocations in the same
//! order on every run, so it is pinned exactly, and a change that adds a
//! per-task or per-job allocation moves it by hundreds.
//!
//! The file holds one test, so no other test's allocations run beside it;
//! the allocator counts only on the thread that armed it.

use hilos_core::{HilosConfig, HilosSystem};
use hilos_llm::presets;
use hilos_platform::SystemSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made on this thread while counting is armed.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn record() {
    // `try_with` fails only during thread teardown, which never counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|c| c + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counts the allocations `f` makes on the calling thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.replace(None)).expect("counting was armed")
}

#[test]
fn one_offline_decode_run_allocates_a_pinned_count() {
    let system = HilosSystem::new(
        &SystemSpec::a100_smartssd(16),
        &presets::opt_66b(),
        &HilosConfig::new(16),
    )
    .unwrap()
    .with_sim_layers(4);
    let run = || {
        let report = system.run_decode(32, 64 * 1024, 64).unwrap();
        assert!(report.avg_step_seconds > 0.0);
    };
    // The first run pays for one-time lazy initialisation.
    run();
    let allocations = allocations_of(run);
    // 1,687 while every engine job copied its route into a `Vec`, every
    // label was formatted into a `String` arena, graph buffers grew by
    // doubling and every world build formatted ~150 resource and node
    // names; 263 while every `SsdSpec` carried a heap-allocated name and
    // `KvShardLedger::allocate` returned a clone of each placement; 192
    // before the flow engine kept each filling round's frozen jobs in a
    // scratch list of its own (197). Building one chain per device class
    // instead of one per device took 35 more, and placing the capacity
    // check's sequences without recording each placement 37.
    assert_eq!(allocations, 125, "run_decode allocation count moved");
}
