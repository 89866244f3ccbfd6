//! The allocation-free hot-path invariant, enforced.
//!
//! A counting `#[global_allocator]` wraps `System` and tallies every
//! `alloc`/`realloc`/`alloc_zeroed`. Once a run has sized every pooled
//! buffer (bus sensor frames, tracker scratch, world actor and
//! lead-order vectors), its steady-state ticks must perform **zero**
//! heap operations. A counting interceptor reads the counter at the
//! Sensors stage of two frames deep into a 60-s run, so the measured
//! window spans whole ticks: sensing, the ADS stages, vehicle and world
//! steps, and scene evaluation.
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! pollute the global counter.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drivefi_ads::{Bus, BusInterceptor, Stage};
use drivefi_sim::{SimConfig, Simulation};
use drivefi_world::scenario::ScenarioConfig;

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

/// The measured window: from the start of base tick 600 (20 s in, every
/// pool warm) to the start of tick 1500.
const WINDOW: [u64; 2] = [600, 1500];

/// Reads the allocator counter when the Sensors stage publishes on each
/// window edge.
#[derive(Default)]
struct AllocProbe {
    reads: [Option<u64>; 2],
}

impl BusInterceptor for AllocProbe {
    fn intercept(&mut self, stage: Stage, frame: u64, _bus: &mut Bus) {
        if stage == Stage::Sensors {
            if let Some(edge) = WINDOW.iter().position(|&f| f == frame) {
                self.reads[edge] = Some(alloc_ops());
            }
        }
    }
}

#[test]
fn steady_state_tick_never_allocates() {
    let config = SimConfig::default();
    for mut scenario in [
        ScenarioConfig::lead_vehicle_cruise(3),
        ScenarioConfig::cut_in(7),
        ScenarioConfig::platoon(2),
    ] {
        scenario.duration = 60.0;
        // The counter is process-global, and the libtest harness's main
        // thread occasionally allocates (its completion plumbing) while
        // a measured run is in flight — so take the minimum over a few
        // runs: harness noise is transient, while a real hot-path
        // allocation would show up in every single run.
        let mut window_ops = u64::MAX;
        for _ in 0..3 {
            let mut probe = AllocProbe::default();
            Simulation::new(config, &scenario).run_with(&mut probe);
            let [Some(start), Some(end)] = probe.reads else {
                panic!("{}: the run stopped before tick {}", scenario.name, WINDOW[1]);
            };
            window_ops = window_ops.min(end - start);
        }
        assert_eq!(
            window_ops, 0,
            "{}: ticks {}..{} performed {window_ops} heap operations",
            scenario.name, WINDOW[0], WINDOW[1]
        );
    }
}
