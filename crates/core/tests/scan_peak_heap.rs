//! Scanning a golden store for the exhaustive sweep's candidates holds a
//! small fraction of the corpus.
//!
//! A tracking `#[global_allocator]` wraps `System` and keeps the live
//! and the peak heap bytes (a `realloc` counts its new block before it
//! frees the old one, as a copying reallocation holds both). The scan an
//! exhaustive sweep enumerates from — the store's traces projected to
//! each frame's `SceneEligibility` — of the 4-shard golden store of the
//! 24-scenario paper suite must peak at no more than 0.1× the bytes of
//! the frames a full decode would hold (fitting the miner from the same
//! store peaks at ~1.47×; see `fit_peak_heap.rs`). It measures ~0.05×:
//! the reader's 64 KiB buffer, the outcome records and two flags a
//! frame.
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! pollute the global counters.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use drivefi_core::{collect_golden_traces, SceneEligibility};
use drivefi_sim::{FrameRecord, Outcome, SimConfig};
use drivefi_store::{open_store_with_traces, read_projected_traces, CampaignRecord, TraceRecord};
use drivefi_world::ScenarioSuite;

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: defers every operation to `System`; the counters are relaxed
// atomics with no allocation of their own.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[test]
fn scanning_a_golden_store_holds_two_flags_a_frame() {
    let suite = ScenarioSuite::paper_suite(3);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 2);
    let frames: usize = traces.iter().map(|t| t.frames.len()).sum();
    let dir = std::env::temp_dir().join(format!("drivefi-scan-peak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (mut writer, _) = open_store_with_traces(&dir, 1, traces.len() as u64, 4, 1 << 20).unwrap();
    for (job, trace) in traces.iter().enumerate() {
        let scenario = &suite.scenarios[job];
        for frame in &trace.frames {
            writer
                .append_trace(&TraceRecord {
                    job: job as u64,
                    scenario_id: trace.scenario_id,
                    scenario_seed: scenario.seed,
                    frame: *frame,
                })
                .unwrap();
        }
        writer
            .append(&CampaignRecord {
                job: job as u64,
                scenario_id: trace.scenario_id,
                scenario_seed: scenario.seed,
                fault: None,
                outcome: Outcome::Safe,
                injections: 0,
                scenes: trace.frames.len() as u64,
                min_delta_lon: 1.0,
                min_delta_lat: 1.0,
            })
            .unwrap();
    }
    assert!(writer.finish().unwrap().complete);
    let expected: Vec<Vec<SceneEligibility>> =
        traces.iter().map(|t| t.frames.iter().map(SceneEligibility::of).collect()).collect();
    drop(traces);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (_, scan) = read_projected_traces(&dir, SceneEligibility::of).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).ok();

    let scanned: Vec<&Vec<SceneEligibility>> = scan.iter().map(|t| &t.frames).collect();
    assert!(scanned.iter().copied().eq(expected.iter()), "the scan lost or reordered frames");
    let decoded = frames * std::mem::size_of::<FrameRecord>();
    let ratio = peak as f64 / decoded as f64;
    assert!(
        ratio <= 0.1,
        "scanning the store peaked at {peak} heap bytes, {ratio:.3}x the {decoded} bytes of its \
         {frames} frames decoded"
    );
}
