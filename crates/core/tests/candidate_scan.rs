//! The exhaustive sweep's candidate list comes from a scan of the golden
//! store that fits nothing; it must be the list the fitted miner
//! enumerates over the decoded traces, element for element and in order,
//! because job `i` of a sweep store means candidate `i`.

use drivefi_core::{
    candidate_specs, candidate_specs_from_store, collect_golden_traces, BayesianMiner, MinerConfig,
};
use drivefi_sim::SimConfig;
use drivefi_store::{open_store_with_traces, CampaignRecord, TraceRecord};
use drivefi_world::ScenarioSuite;
use std::path::Path;

/// Persists the suite's golden runs as a 4-shard trace-logging store.
fn golden_store(dir: &Path, suite: &ScenarioSuite) {
    std::fs::remove_dir_all(dir).ok();
    let traces = collect_golden_traces(&SimConfig::default(), suite, 2);
    let (mut writer, _) = open_store_with_traces(dir, 1, traces.len() as u64, 4, 64).unwrap();
    for (job, trace) in traces.iter().enumerate() {
        let scenario_seed = suite.scenarios[job].seed;
        for frame in &trace.frames {
            let record = TraceRecord {
                job: job as u64,
                scenario_id: trace.scenario_id,
                scenario_seed,
                frame: *frame,
            };
            writer.append_trace(&record).unwrap();
        }
        writer
            .append(&CampaignRecord {
                job: job as u64,
                scenario_id: trace.scenario_id,
                scenario_seed,
                fault: None,
                outcome: drivefi_sim::Outcome::Safe,
                injections: 0,
                scenes: trace.frames.len() as u64,
                min_delta_lon: 1.0,
                min_delta_lat: 1.0,
            })
            .unwrap();
    }
    assert!(writer.finish().unwrap().complete);
}

#[test]
fn the_store_scan_lists_the_fitted_miners_candidates() {
    let suites = [
        ("paper", ScenarioSuite::paper_suite(3)),
        ("generated-4", ScenarioSuite::generate(4, 42)),
        ("generated-7", ScenarioSuite::generate(7, 2026)),
    ];
    for (name, suite) in suites {
        let dir = std::env::temp_dir()
            .join(format!("drivefi-candidate-scan-{name}-{}", std::process::id()));
        golden_store(&dir, &suite);
        for scene_stride in [1, 8, 40, 64] {
            let config = MinerConfig { scene_stride, ..MinerConfig::default() };
            let (miner, traces) = BayesianMiner::fit_from_store(&dir, config).unwrap();
            let fitted = candidate_specs(&miner, &traces);
            let scanned = candidate_specs_from_store(&dir, scene_stride).unwrap();
            assert!(!scanned.is_empty(), "{name} at stride {scene_stride}: no candidates");
            assert_eq!(scanned.len(), fitted.len(), "{name} at stride {scene_stride}");
            for (i, (a, b)) in scanned.iter().zip(&fitted).enumerate() {
                assert_eq!(a, b, "{name} at stride {scene_stride}: candidate {i}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
