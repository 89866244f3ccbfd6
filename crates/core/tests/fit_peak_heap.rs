//! Fitting the miner from a golden store and mining it hold a thinned
//! projection of the corpus, never the decoded frames.
//!
//! A tracking `#[global_allocator]` wraps `System` and keeps the live
//! and the peak heap bytes (a `realloc` counts its new block before it
//! frees the old one, as a copying reallocation holds both).
//! `BayesianMiner::fit_from_store` and `mine_corpus` at stride 8 on a
//! 4-shard golden store of the 24-scenario paper suite must peak at no
//! more than 1.25× the bytes of the 7,200 frames the store holds,
//! decoded. Measured, as multiples of those 1.61 MB:
//!
//! * read: the 128-byte projection of every frame, 0.57× (0.62× peak
//!   with the reader's buffer);
//! * fit: the projection plus the training byte rows, 0.90× peak; the
//!   fitted model is 0.09×;
//! * thin: the corpus keeps every scene's eligibility and the projection
//!   of the sampled scenes and their predecessors, 0.16×;
//! * compile: the counterfactual queries add 0.37× (0.61× live);
//! * mine: the thread's MAP scratch (~0.30×), the per-trace forecast
//!   memo and the mined list (4,096 slots of 48 bytes) peak at 1.14×.
//!
//! The parent, which decoded every frame and kept a corpus-wide memo,
//! peaked at 2.22× (the fit alone 1.47×). At stride 64 the path now
//! peaks in the fit, at 0.90× (parent 1.81×); at stride 1 in the mined
//! list's last doubling, at 3.18× (parent 5.46×).
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! pollute the global counters.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
use drivefi_sim::{FrameRecord, Outcome, SimConfig};
use drivefi_store::{open_store_with_traces, CampaignRecord, TraceRecord};
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
fn fit_from_store_holds_the_corpus_once() {
    let suite = ScenarioSuite::paper_suite(3);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 2);
    let frames: usize = traces.iter().map(|t| t.frames.len()).sum();
    let dir = std::env::temp_dir().join(format!("drivefi-fit-peak-{}", std::process::id()));
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
    drop(traces);

    let config = MinerConfig { scene_stride: 8, ..MinerConfig::default() };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (miner, corpus) = BayesianMiner::fit_from_store(&dir, config).unwrap();
    let mined = miner.mine_corpus(&corpus);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).ok();

    assert!(!mined.is_empty());
    std::hint::black_box((&miner, &corpus, &mined));
    let decoded = frames * std::mem::size_of::<FrameRecord>();
    let ratio = peak as f64 / decoded as f64;
    assert!(
        ratio <= 1.25,
        "fitting from the store and mining peaked at {peak} heap bytes, {ratio:.2}x the \
         {decoded} bytes of its {frames} frames decoded"
    );
}
