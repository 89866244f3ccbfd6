//! The campaign engine against fresh runs: every job a
//! `CampaignEngine` runs — grouped into scenario tasks, forked from a
//! task's golden pilot, or answered with the pilot's final result — must
//! report bit for bit what a fresh `Simulation::run_with` of the same
//! job reports, whatever the submission order and worker count.

use drivefi_ads::Signal;
use drivefi_fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};
use drivefi_sim::{CampaignEngine, CampaignJob, CampaignResult, Outcome, SimConfig, Simulation};
use drivefi_world::ScenarioConfig;
use std::sync::Arc;

fn scalar(signal: Signal, model: ScalarFaultModel, window: FaultWindow) -> Fault {
    Fault { kind: FaultKind::Scalar { signal, model }, window }
}

fn throttle_fault(scene: u64) -> Fault {
    scalar(Signal::RawThrottle, ScalarFaultModel::StuckMax, FaultWindow::scene(scene))
}

fn job(id: u64, scenario: &Arc<ScenarioConfig>, faults: Vec<Fault>) -> CampaignJob {
    CampaignJob { id, scenario: Arc::clone(scenario), faults }
}

/// A fresh `Simulation::run_with` of the job, and the injector it ran
/// with.
fn fresh_run(config: SimConfig, job: &CampaignJob) -> (CampaignResult, Injector) {
    let mut sim = Simulation::new(config, &job.scenario);
    let mut injector = Injector::new(job.faults.clone());
    let mut report = sim.run_with(&mut injector);
    report.injections = injector.injection_count();
    (CampaignResult { id: job.id, report }, injector)
}

/// Runs `jobs` through the engine on each worker count and checks every
/// result against a fresh run of its job, bit for bit.
fn assert_engine_matches_fresh_runs(config: SimConfig, jobs: &[CampaignJob], workers: &[usize]) {
    for &w in workers {
        let results = CampaignEngine::new(config).with_workers(w).collect(jobs.to_vec());
        assert_eq!(results.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&results) {
            let want = fresh_run(config, job).0;
            assert_eq!(got.id, want.id);
            let (a, b) = (&got.report, &want.report);
            assert_eq!(a.outcome, b.outcome, "job {}", got.id);
            assert_eq!(a.min_delta_lon.to_bits(), b.min_delta_lon.to_bits(), "job {}", got.id);
            assert_eq!(a.min_delta_lat.to_bits(), b.min_delta_lat.to_bits(), "job {}", got.id);
            assert_eq!(a.scenes, b.scenes, "job {}", got.id);
            assert_eq!(a.injections, b.injections, "job {}", got.id);
            assert_eq!(a.trace, b.trace, "job {}", got.id);
        }
    }
}

#[test]
fn shuffled_multi_scenario_orders_match_fresh_runs() {
    // Three scenarios' jobs in a scrambled submission order: grouping
    // and sorting must not change any job's result or its index.
    let scenarios = [
        Arc::new(ScenarioConfig::lead_vehicle_cruise(2)),
        Arc::new(ScenarioConfig::cut_in(5)),
        Arc::new(ScenarioConfig::stop_and_go(1)),
    ];
    let mut jobs: Vec<_> = (0..27u64)
        .map(|i| {
            let scenario = &scenarios[(i % 3) as usize];
            let faults = match i % 4 {
                0 => vec![],
                1 => vec![throttle_fault(3 + i)],
                2 => vec![scalar(
                    Signal::FinalSteering,
                    ScalarFaultModel::StuckMax,
                    FaultWindow::scene(30 - i),
                )],
                _ => vec![throttle_fault(i), throttle_fault(i / 2)],
            };
            job(i, scenario, faults)
        })
        .collect();
    jobs.sort_by_key(|j| j.id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    assert_engine_matches_fresh_runs(SimConfig::default(), &jobs, &[1, 2, 4]);
    let mut seen = Vec::new();
    CampaignEngine::new(SimConfig::default())
        .with_workers(2)
        .run(jobs.clone(), &mut |index: u64, result: CampaignResult| seen.push((index, result.id)));
    seen.sort_unstable();
    let submitted: Vec<_> = jobs.iter().enumerate().map(|(i, j)| (i as u64, j.id)).collect();
    assert_eq!(seen, submitted);
}

#[test]
fn one_scenario_stage_split_over_four_workers_matches_fresh_runs() {
    // 18 jobs over one scenario on 4 workers: the engine splits them into
    // four tasks, each with its own pilot.
    let scenario = Arc::new(ScenarioConfig::lead_brake(2));
    let jobs: Vec<_> = (0..18u64)
        .map(|i| match i {
            0 | 9 => job(i, &scenario, vec![]),
            _ => job(i, &scenario, vec![throttle_fault((i * 7) % 40)]),
        })
        .collect();
    assert_engine_matches_fresh_runs(SimConfig::default(), &jobs, &[4]);
}

#[test]
fn pilot_stopped_by_a_collision() {
    // A stopped car 30 m ahead of the ego: the golden run collides,
    // so the pilot stops. Jobs forking before the collision run on
    // their own; jobs forking after it take the pilot's result.
    let mut blocked = ScenarioConfig::lead_brake(3);
    let lead = &mut blocked.actors[0];
    lead.state.x = blocked.ego_start.x + 30.0;
    lead.state.y = blocked.ego_start.y;
    lead.state.v = 0.0;
    let blocked = Arc::new(blocked);
    let golden = fresh_run(SimConfig::default(), &job(0, &blocked, vec![])).0;
    let crash = match golden.report.outcome {
        Outcome::Collision { scene, .. } => scene,
        other => panic!("golden run must collide, got {other:?}"),
    };
    assert!(crash >= 4, "collision at scene {crash} leaves no scene to fork before it");
    let mut jobs = vec![job(0, &blocked, vec![])];
    for (i, scene) in [0, 2, crash - 1, crash, crash + 1, crash + 20].into_iter().enumerate() {
        jobs.push(job(1 + i as u64, &blocked, vec![throttle_fault(scene)]));
    }
    let pedal = scalar(Signal::FinalBrake, ScalarFaultModel::StuckMin, FaultWindow::scene(1));
    jobs.push(job(9, &blocked, vec![pedal]));
    assert_engine_matches_fresh_runs(SimConfig::default(), &jobs, &[1, 2]);
}

#[test]
fn no_op_faults_take_the_pilot_result() {
    // Brake min while cruising an empty road writes the 0 already
    // there, and a lead-distance fault there has no lead to write.
    // Neither changes a bus bit, so both jobs end as the pilot's run
    // plus their own injection count.
    let cruise = Arc::new(ScenarioConfig::lead_vehicle_cruise(3));
    let empty = Arc::new(ScenarioConfig::free_drive(2));
    let coast = (5..40)
        .map(|scene| {
            job(
                scene,
                &empty,
                vec![scalar(
                    Signal::FinalBrake,
                    ScalarFaultModel::StuckMin,
                    FaultWindow::scene(scene),
                )],
            )
        })
        .find(|j| {
            let (result, injector) = fresh_run(SimConfig::default(), j);
            !injector.changed_bus() && result.report.injections > 0
        })
        .expect("the ego coasts in some scene");
    let lead = job(
        100,
        &empty,
        vec![scalar(Signal::LeadDistance, ScalarFaultModel::StuckMax, FaultWindow::burst(40, 12))],
    );
    assert!(!fresh_run(SimConfig::default(), &lead).1.changed_bus());
    let jobs = vec![
        coast,
        job(101, &empty, vec![throttle_fault(12)]),
        job(102, &cruise, vec![throttle_fault(6)]),
        lead,
    ];
    for record_trace in [false, true] {
        let config = SimConfig { record_trace, ..SimConfig::default() };
        assert_engine_matches_fresh_runs(config, &jobs, &[1, 2]);
    }
}
