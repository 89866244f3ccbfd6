//! Campaign-vs-scalar equivalence at the persistence boundary: for every
//! builtin scenario family, faulted and golden jobs executed by the
//! campaign engine — forked from a shared golden prefix — must produce
//! **byte-identical** [`CampaignRecord`] payloads and identical
//! per-scene trace frames to a scalar [`Simulation::run_with`] of the
//! same job. Prefix sharing is an optimization only; the record a
//! campaign persists cannot depend on it.

use drivefi_ads::Signal;
use drivefi_fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};
use drivefi_sim::{CampaignEngine, CampaignJob, SimConfig, Simulation};
use drivefi_store::{CampaignRecord, RecordMeta};
use drivefi_world::{FamilyRegistry, ScenarioConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A short scenario from a builtin family (6 s = 45 scenes keeps the
/// full cross product fast without losing the families' dynamics).
fn short_scenario(family: &str, seed: u64) -> Arc<ScenarioConfig> {
    let mut scenario = FamilyRegistry::builtin().sample(family, seed as u32, seed);
    scenario.duration = 6.0;
    Arc::new(scenario)
}

/// A small fault palette covering throttle/brake/steering corruptions,
/// a lead-distance corruption (a world-model write, a no-op without a
/// lead), and a module hang (the Freeze/Hang capture-lookahead path).
/// Brake-min faults while coasting change no bus bit, so they exercise
/// the engine's take-the-pilot's-result path.
fn fault(palette: usize, window: FaultWindow) -> Fault {
    let kind = match palette % 6 {
        0 => FaultKind::Scalar { signal: Signal::RawThrottle, model: ScalarFaultModel::StuckMax },
        1 => FaultKind::Scalar { signal: Signal::FinalBrake, model: ScalarFaultModel::StuckMin },
        2 => FaultKind::Scalar { signal: Signal::FinalThrottle, model: ScalarFaultModel::StuckMax },
        3 => FaultKind::Scalar { signal: Signal::FinalSteering, model: ScalarFaultModel::StuckMax },
        4 => FaultKind::Scalar { signal: Signal::LeadDistance, model: ScalarFaultModel::StuckMax },
        _ => FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
    };
    Fault { kind, window }
}

fn meta(scenario: &ScenarioConfig) -> RecordMeta {
    RecordMeta { scenario_id: scenario.id, scenario_seed: scenario.seed, fault: None }
}

/// The scalar reference: `Simulation::run_with`, encoded exactly as a
/// store sink would persist it, plus the recorded trace.
fn scalar_record(config: SimConfig, job: &CampaignJob) -> (Vec<u8>, Option<drivefi_sim::Trace>) {
    let mut sim = Simulation::new(config, &job.scenario);
    let mut injector = Injector::new(job.faults.clone());
    let mut report = sim.run_with(&mut injector);
    report.injections = injector.injection_count();
    let mut bytes = Vec::new();
    CampaignRecord::from_report(job.id, &meta(&job.scenario), &report).encode(&mut bytes);
    (bytes, report.trace)
}

/// Runs `jobs` through the campaign engine and asserts byte-identical
/// records and identical traces against the scalar path.
fn assert_equivalent(config: SimConfig, jobs: &[CampaignJob]) -> Result<(), TestCaseError> {
    let results = CampaignEngine::new(config).with_workers(2).collect(jobs.to_vec());
    prop_assert_eq!(results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(results) {
        let (ref_bytes, ref_trace) = scalar_record(config, job);
        prop_assert_eq!(result.id, job.id);
        let mut bytes = Vec::new();
        CampaignRecord::from_report(result.id, &meta(&job.scenario), &result.report)
            .encode(&mut bytes);
        prop_assert_eq!(
            &bytes,
            &ref_bytes,
            "record bytes diverged: family {} job {}",
            job.scenario.name,
            job.id
        );
        prop_assert_eq!(
            &result.report.trace,
            &ref_trace,
            "trace diverged: family {} job {}",
            job.scenario.name,
            job.id
        );
    }
    Ok(())
}

/// Golden + transient + permanent jobs over one scenario (all sharing
/// its allocation, so the engine's prefix sharing engages), plus a job
/// whose window opens past the scenario end.
fn jobs_for(scenario: &Arc<ScenarioConfig>, palette: u64, first_id: u64) -> Vec<CampaignJob> {
    let scenes = scenario.scene_count() as u64;
    vec![
        CampaignJob { id: first_id, scenario: Arc::clone(scenario), faults: vec![] },
        CampaignJob {
            id: first_id + 1,
            scenario: Arc::clone(scenario),
            faults: vec![fault(palette as usize, FaultWindow::scene(1 + palette % (scenes - 1)))],
        },
        CampaignJob {
            id: first_id + 2,
            scenario: Arc::clone(scenario),
            faults: vec![fault(palette as usize + 1, FaultWindow::permanent(2 * palette + 4))],
        },
        CampaignJob {
            id: first_id + 3,
            scenario: Arc::clone(scenario),
            faults: vec![
                fault(palette as usize + 2, FaultWindow::burst(4 * (palette % 20), 12)),
                fault(palette as usize + 4, FaultWindow::permanent(100)),
            ],
        },
        CampaignJob {
            id: first_id + 4,
            scenario: Arc::clone(scenario),
            faults: vec![fault(palette as usize + 3, FaultWindow::scene(scenes + palette % 3))],
        },
    ]
}

/// Every builtin family, deterministically: golden + faulted jobs match
/// the scalar path byte for byte, with traces on.
#[test]
fn all_families_match_scalar_records_and_traces() {
    let config = SimConfig { record_trace: true, ..SimConfig::default() };
    let registry = FamilyRegistry::builtin();
    let families: Vec<_> = registry.names().collect();
    assert_eq!(families.len(), 14, "builtin registry grew: update this test's coverage note");
    for (f, family) in families.into_iter().enumerate() {
        let scenario = short_scenario(family, 11 + f as u64);
        let jobs = jobs_for(&scenario, f as u64, 10 * f as u64);
        assert_equivalent(config, &jobs).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized depth over the same property: random family, seed, and
    /// fault palette; jobs over two scenarios interleaved in one stream
    /// (the engine regroups them into one task per scenario).
    #[test]
    fn random_campaigns_match_scalar(
        family_a in 0usize..14,
        family_b in 0usize..14,
        seed in 0u64..10_000,
        palette in 0u64..42,
        trace in 0usize..2,
    ) {
        let config = SimConfig { record_trace: trace == 1, ..SimConfig::default() };
        let registry = FamilyRegistry::builtin();
        let names: Vec<_> = registry.names().collect();
        let a = short_scenario(names[family_a], seed);
        let b = short_scenario(names[family_b], seed ^ 0x9E37);
        let mut jobs = jobs_for(&a, palette, 0);
        // Interleave the two scenarios' jobs in submission order.
        for (i, job) in jobs_for(&b, palette + 7, 100).into_iter().enumerate() {
            jobs.insert(2 * i + 1, job);
        }
        assert_equivalent(config, &jobs)?;
    }
}
