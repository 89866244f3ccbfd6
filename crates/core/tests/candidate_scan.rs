//! The exhaustive sweep's candidate list comes from a scan of the golden
//! store that fits nothing; it must be the list the fitted miner
//! enumerates over the decoded traces, element for element and in order,
//! because job `i` of a sweep store means candidate `i`. Likewise the
//! miner fitted from the store mines and predicts from its thinned
//! corpus exactly what the miner fitted on the decoded traces mines and
//! predicts from them, bit for bit.

use drivefi_ads::Signal;
use drivefi_core::{
    candidate_specs, candidate_specs_from_store, collect_golden_traces, BayesianMiner,
    CandidateFault, MinerConfig,
};
use drivefi_fault::ScalarFaultModel;
use drivefi_sim::SimConfig;
use drivefi_store::{open_store_with_traces, read_traces, CampaignRecord, TraceRecord};
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
        let (_, traces) = read_traces(&dir).unwrap();
        for scene_stride in [1, 8, 40, 64] {
            let config = MinerConfig { scene_stride, ..MinerConfig::default() };
            let miner = BayesianMiner::fit(&traces, config).unwrap();
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

/// Every field of a candidate, its `f64`s as bits.
fn bits(c: &CandidateFault) -> (u32, u64, Signal, ScalarFaultModel, u64, u64) {
    let (golden, predicted) = (c.golden_delta.to_bits(), c.predicted_delta.to_bits());
    (c.scenario_id, c.scene, c.signal, c.model, golden, predicted)
}

#[test]
fn the_store_fitted_miner_mines_and_predicts_what_the_trace_fitted_one_does() {
    // Scenario 0 of this suite is free driving: no frame has a lead, so
    // the projection's absent lead object reaches the fit and the miner.
    let suite = ScenarioSuite::generate(4, 42);
    let dir = std::env::temp_dir().join(format!("drivefi-corpus-{}", std::process::id()));
    golden_store(&dir, &suite);
    let (_, traces) = read_traces(&dir).unwrap();
    assert!(traces.iter().any(|t| t.frames.iter().all(|f| f.lead_distance.is_none())));
    assert!(traces.iter().any(|t| t.frames.iter().any(|f| f.lead_distance.is_some())));
    for scene_stride in [1, 8, 64] {
        let config = MinerConfig { scene_stride, ..MinerConfig::default() };
        let (from_store, corpus) = BayesianMiner::fit_from_store(&dir, config).unwrap();
        let in_memory = BayesianMiner::fit(&traces, config).unwrap();
        let at = format!("stride {scene_stride}");
        assert_eq!(corpus.candidate_count(), in_memory.candidate_count(&traces), "{at}");
        for (what, stored, decoded) in [
            ("mine", from_store.mine_corpus(&corpus), in_memory.mine(&traces)),
            ("predict", from_store.predict_corpus(&corpus), in_memory.predict_deltas(&traces)),
        ] {
            assert!(!stored.is_empty(), "{what} at {at}: nothing to compare");
            let stored: Vec<_> = stored.iter().map(bits).collect();
            let decoded: Vec<_> = decoded.iter().map(bits).collect();
            assert_eq!(stored, decoded, "{what} at {at}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
