//! A warm counterfactual forecast never touches the heap.
//!
//! A counting `#[global_allocator]` wraps `System` and tallies every
//! `alloc`/`realloc`/`alloc_zeroed`. After one forecast sizes the
//! thread's scratch, `BayesianMiner::forecast` must perform **zero** heap
//! operations, both on a `w_dist` intervention (the heaviest compiled
//! query) and on an `A_throttle` intervention (which skips inference).
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! pollute the global counter.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig, TbnVar};
use drivefi_sim::SimConfig;
use drivefi_world::ScenarioSuite;

struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter is a plain
// relaxed atomic increment with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_ops() -> u64 {
    ALLOC_OPS.load(Ordering::Relaxed)
}

#[test]
fn warm_map_query_never_allocates() {
    let suite = ScenarioSuite::generate(4, 42);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 4);
    let miner = BayesianMiner::fit(&traces, MinerConfig::default()).unwrap();
    let model = miner.model();

    let trace = traces.iter().find(|t| t.frames.iter().any(|f| f.lead_distance.is_some())).unwrap();
    let scenes: Vec<_> = trace.frames.iter().map(|f| model.observe(f)).collect();
    for var in [TbnVar::WDist, TbnVar::AThrottle] {
        let forecast = |k: usize| {
            let category = k % model.net.cardinality(model.id(1, var));
            miner.forecast(&scenes[k - 1], &scenes[k], var, category).unwrap()
        };
        forecast(1);

        // Minimum over rounds: the libtest harness's main thread can
        // allocate while a measured run is in flight, but a real hot-path
        // allocation shows up in every round.
        let mut ops = u64::MAX;
        for k in (2..scenes.len()).step_by(scenes.len() / 6) {
            let before = alloc_ops();
            std::hint::black_box(forecast(k));
            ops = ops.min(alloc_ops() - before);
        }
        assert_eq!(ops, 0, "a warm do({}) forecast performed {ops} heap operations", var.name());
    }
}
