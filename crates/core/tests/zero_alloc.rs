//! A warm compiled counterfactual query never touches the heap.
//!
//! A counting `#[global_allocator]` wraps `System` and tallies every
//! `alloc`/`realloc`/`alloc_zeroed`. After one run sizes the scratch,
//! `MapQuery::run` on a fitted 3-TBN's `w_dist` intervention (the
//! heaviest mined query) must perform **zero** heap operations.
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! pollute the global counter.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drivefi_bayes::{MapScratch, VarId};
use drivefi_core::{collect_golden_traces, TbnModel, TbnVar};
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
    let model = TbnModel::fit(&traces, 6).unwrap();

    // do(w_dist@1): slice 0 observed; slice 1 observed except w_dist and
    // the longitudinal planning and actuation channels it drives.
    let unobserved =
        [TbnVar::WDist, TbnVar::UThrottle, TbnVar::UBrake, TbnVar::AThrottle, TbnVar::ABrake];
    let observed: Vec<VarId> = TbnVar::ALL
        .iter()
        .map(|&v| model.id(0, v))
        .chain(TbnVar::ALL.iter().filter(|v| !unobserved.contains(v)).map(|&v| model.id(1, v)))
        .collect();
    let intervened = model.id(1, TbnVar::WDist);
    let query = model.net.compile_map(&observed, &[intervened]).unwrap();

    let trace = traces.iter().find(|t| t.frames.iter().any(|f| f.lead_distance.is_some())).unwrap();
    let scenes: Vec<_> = trace.frames.iter().map(|f| model.observe(f)).collect();
    let mut assignment = vec![0; model.net.len()];
    let fill = |assignment: &mut [usize], k: usize| {
        for v in TbnVar::ALL {
            assignment[model.id(0, v).0] = model.obs_category(v, &scenes[k - 1]);
            assignment[model.id(1, v).0] = model.obs_category(v, &scenes[k]);
        }
        assignment[intervened.0] = k % model.net.cardinality(intervened);
    };
    let mut scratch = MapScratch::default();
    fill(&mut assignment, 1);
    query.run(&mut assignment, &mut scratch).unwrap();

    // Minimum over rounds: the libtest harness's main thread can
    // allocate while a measured run is in flight, but a real hot-path
    // allocation shows up in every round.
    let mut ops = u64::MAX;
    for k in (2..scenes.len()).step_by(scenes.len() / 6) {
        fill(&mut assignment, k);
        let before = alloc_ops();
        query.run(&mut assignment, &mut scratch).unwrap();
        ops = ops.min(alloc_ops() - before);
    }
    assert_eq!(ops, 0, "a warm MapQuery::run performed {ops} heap operations");
}
