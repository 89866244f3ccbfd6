//! Integration tests for the full Bayesian FI pipeline (E3 shape at
//! reduced scale).

use drivefi::core::{collect_golden_traces, validate_candidates, BayesianMiner, MinerConfig};
use drivefi::plan::{run_plan, CampaignKind, CampaignPlan, PlanResult, ScenarioSelection};
use drivefi::sim::SimConfig;
use drivefi::world::ScenarioSuite;

fn pipeline(
) -> (ScenarioSuite, Vec<drivefi::sim::Trace>, BayesianMiner, Vec<drivefi::core::CandidateFault>) {
    let suite = ScenarioSuite::generate(12, 2026);
    let sim = SimConfig::default();
    let golden = collect_golden_traces(&sim, &suite, 8);
    let config = MinerConfig { scene_stride: 8, ..MinerConfig::default() };
    let miner = BayesianMiner::fit(&golden, config).expect("fit");
    let critical = miner.mine_parallel(&golden, 8);
    (suite, golden, miner, critical)
}

#[test]
fn mined_candidates_are_well_formed_and_validated() {
    let (suite, golden, miner, critical) = pipeline();
    assert!(!critical.is_empty(), "mining found nothing");
    for c in &critical {
        assert!(c.golden_delta > 0.0, "Eq. 1 pre-condition violated");
        assert!(c.predicted_delta <= 0.0);
        assert!((c.scenario_id as usize) < suite.scenarios.len());
    }
    // Candidate pool is far larger than the critical set.
    let pool = miner.candidate_count(&golden);
    assert!(pool > critical.len() * 3, "pool {pool} vs mined {}", critical.len());

    // Validation runs and produces coherent accounting.
    let stats = validate_candidates(&SimConfig::default(), &suite, &critical, 8);
    assert_eq!(stats.mined.len(), critical.len());
    assert!(stats.manifested <= stats.mined.len());
    assert!(stats.critical_scenes.len() <= stats.manifested.max(1));
}

#[test]
fn bayesian_mining_beats_random_at_equal_budget() {
    let (suite, _golden, _miner, critical) = pipeline();
    let sim = SimConfig::default();
    let stats = validate_candidates(&sim, &suite, &critical, 8);

    // Random baseline with the same number of injection runs, over the
    // same suite, run as a plan.
    let random_plan = CampaignPlan {
        name: "random-baseline".into(),
        kind: CampaignKind::Random { runs: critical.len().max(50) },
        seed: 7,
        workers: Some(8),
        scenarios: ScenarioSelection::Paper { count: 12, seed: 2026 },
        faults: Default::default(),
        sim: Default::default(),
        output: None,
        submit: Default::default(),
        control: Default::default(),
    };
    let PlanResult::Persisted(random) = run_plan(&random_plan).unwrap();

    assert!(
        stats.precision() > random.hazard_rate(),
        "Bayesian precision {:.3} must beat random hazard rate {:.3}",
        stats.precision(),
        random.hazard_rate()
    );
    // The paper's headline shape: random FI essentially never finds
    // hazards, Bayesian FI finds them reliably.
    assert!(random.hazard_rate() < 0.05, "random rate {}", random.hazard_rate());
}

#[test]
fn mining_is_deterministic_and_parallel_consistent() {
    let suite = ScenarioSuite::generate(6, 3);
    let sim = SimConfig::default();
    let golden = collect_golden_traces(&sim, &suite, 6);
    let config = MinerConfig { scene_stride: 16, ..MinerConfig::default() };
    let miner = BayesianMiner::fit(&golden, config).expect("fit");
    let serial = miner.mine(&golden);
    let parallel = miner.mine_parallel(&golden, 4);
    assert_eq!(serial.len(), parallel.len());
    // Same multiset of (scenario, scene, signal) triples.
    let key = |c: &drivefi::core::CandidateFault| (c.scenario_id, c.scene, c.signal.name());
    let mut a: Vec<_> = serial.iter().map(key).collect();
    let mut b: Vec<_> = parallel.iter().map(key).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
