//! Integration tests spanning the whole stack through the facade crate.

use drivefi::ads::Signal;
use drivefi::fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};
use drivefi::sim::{CampaignEngine, CampaignJob, SimConfig, Simulation, BASE_TICKS_PER_SCENE};
use drivefi::world::{scenario::ScenarioConfig, ScenarioSuite};

/// Every scenario family in the paper-scale suite completes its golden
/// run without a hazard — the precondition for the whole evaluation.
#[test]
fn paper_suite_golden_runs_are_safe() {
    let suite = ScenarioSuite::paper_suite(2026);
    assert_eq!(suite.scene_count(), 7200);
    let jobs: Vec<_> = suite
        .shared()
        .into_iter()
        .map(|s| CampaignJob { id: u64::from(s.id), scenario: s, faults: vec![] })
        .collect();
    let results = CampaignEngine::new(SimConfig::default()).with_workers(8).collect(jobs);
    for r in &results {
        assert!(r.report.outcome.is_safe(), "scenario {} golden run: {}", r.id, r.report.outcome);
    }
}

/// Example 1 mechanics: a throttle burst at the cut-in knife edge is
/// hazardous; the identical fault during free cruising is masked.
#[test]
fn example1_timing_sensitivity() {
    let scenario = ScenarioConfig::cut_in(0);
    let config = SimConfig { record_trace: true, stop_on_collision: false, ..SimConfig::default() };
    let mut sim = Simulation::new(config, &scenario);
    let golden = sim.run();
    assert!(golden.outcome.is_safe());
    let trace = golden.trace.unwrap();
    let knife = trace
        .frames
        .iter()
        .min_by(|a, b| a.delta_true.longitudinal.partial_cmp(&b.delta_true.longitudinal).unwrap())
        .unwrap()
        .scene;

    // ~1.2 s of corrupted throttle/brake commands (the paper's Example-1
    // fault persisted long enough for braking to become futile).
    let throttle_burst = |scene: u64| {
        vec![
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::RawThrottle,
                    model: ScalarFaultModel::StuckMax,
                },
                window: FaultWindow::burst(scene * BASE_TICKS_PER_SCENE, 36),
            },
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::RawBrake,
                    model: ScalarFaultModel::StuckMin,
                },
                window: FaultWindow::burst(scene * BASE_TICKS_PER_SCENE, 36),
            },
        ]
    };

    // At the knife edge (a few scenes before minimum δ so the speed
    // carries in): hazardous.
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(throttle_burst(knife.saturating_sub(6)));
    let at_edge = sim.run_with(&mut injector);
    assert!(at_edge.outcome.is_hazardous(), "burst at knife edge stayed {}", at_edge.outcome);

    // Early in the run, with a wide margin: masked.
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(throttle_burst(5));
    let early = sim.run_with(&mut injector);
    assert!(early.outcome.is_safe(), "early burst became {}", early.outcome);
}

/// Example 2 mechanics: frozen perception across the lead-exit reveal is
/// hazardous; the golden run is not.
#[test]
fn example2_delayed_perception() {
    let scenario = ScenarioConfig::lead_exit_reveal(11);
    let config = SimConfig { record_trace: true, stop_on_collision: false, ..SimConfig::default() };
    let mut sim = Simulation::new(config, &scenario);
    let golden = sim.run();
    assert!(golden.outcome.is_safe());
    let trace = golden.trace.unwrap();
    // The reveal: the perceived lead distance jumps up when TV#1 exits
    // and the (previously occluded) slow TV#2 becomes the lead.
    let reveal = trace
        .frames
        .windows(2)
        .find_map(|w| match (w[0].lead_distance, w[1].lead_distance) {
            (Some(a), Some(b)) if b - a > 20.0 => Some(w[1].scene),
            _ => None,
        })
        .expect("reveal moment present in golden trace");

    let fault = Fault {
        kind: FaultKind::FreezeWorldModel,
        window: FaultWindow::burst(
            reveal.saturating_sub(5) * BASE_TICKS_PER_SCENE,
            60 * BASE_TICKS_PER_SCENE,
        ),
    };
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(vec![fault]);
    let faulted = sim.run_with(&mut injector);
    assert!(faulted.outcome.is_hazardous(), "frozen perception stayed {}", faulted.outcome);
}

/// Localization teleport faults are masked by the pose plausibility gate
/// (the production-stack resilience the paper credits for random-FI
/// masking).
#[test]
fn pose_teleport_is_gated() {
    let scenario = ScenarioConfig::lead_vehicle_cruise(5);
    let fault = Fault {
        kind: FaultKind::Scalar { signal: Signal::PoseY, model: ScalarFaultModel::StuckMax },
        window: FaultWindow::scene(40),
    };
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(vec![fault]);
    let report = sim.run_with(&mut injector);
    assert!(injector.injection_count() > 0, "fault must have fired");
    assert!(report.outcome.is_safe(), "teleport leaked: {}", report.outcome);
}

/// Transient steering hard-over at highway speed is masked by the
/// lateral-acceleration interlock plus PID smoothing.
#[test]
fn transient_steer_fault_is_masked() {
    let scenario = ScenarioConfig::free_drive(4);
    let fault = Fault {
        kind: FaultKind::Scalar {
            signal: Signal::FinalSteering,
            model: ScalarFaultModel::StuckMax,
        },
        window: FaultWindow::scene(50),
    };
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(vec![fault]);
    let report = sim.run_with(&mut injector);
    assert!(report.outcome.is_safe(), "transient steer: {}", report.outcome);
}

/// A *permanent* steering hard-over is not maskable: the vehicle departs
/// the lane and the monitor flags it.
#[test]
fn permanent_steer_fault_is_hazardous() {
    let scenario = ScenarioConfig::free_drive(4);
    let fault = Fault {
        kind: FaultKind::Scalar {
            signal: Signal::FinalSteering,
            model: ScalarFaultModel::StuckMax,
        },
        window: FaultWindow::permanent(200),
    };
    let mut sim = Simulation::new(SimConfig::default(), &scenario);
    let mut injector = Injector::new(vec![fault]);
    let report = sim.run_with(&mut injector);
    assert!(report.outcome.is_hazardous(), "permanent steer fault: {}", report.outcome);
}

/// Campaign determinism end to end: identical seeds → identical outcome
/// sets, independent of worker count.
#[test]
fn campaigns_are_reproducible() {
    let suite = ScenarioSuite::generate(6, 99);
    let jobs: Vec<_> = suite
        .shared()
        .into_iter()
        .map(|s| CampaignJob {
            id: u64::from(s.id),
            scenario: s,
            faults: vec![Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::RawBrake,
                    model: ScalarFaultModel::StuckMax,
                },
                window: FaultWindow::scene(30),
            }],
        })
        .collect();
    let engine = CampaignEngine::new(SimConfig::default());
    let a = engine.with_workers(1).collect(jobs.clone());
    let b = engine.with_workers(6).collect(jobs);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.report.outcome, y.report.outcome);
        assert_eq!(x.report.min_delta_lon, y.report.min_delta_lon);
    }
}
