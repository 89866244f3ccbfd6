//! Simulation throughput: the cost of one injection run — the
//! denominator of the paper's 3 690× acceleration claim (E4).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use drivefi_ads::Signal;
use drivefi_fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};
use drivefi_sim::{CampaignEngine, CampaignJob, CampaignResult, SimConfig, Simulation};
use drivefi_world::scenario::ScenarioConfig;
use std::hint::black_box;
use std::sync::Arc;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_speed");
    group.sample_size(20);

    let scenario = ScenarioConfig::lead_vehicle_cruise(7);
    group.bench_function("golden_40s_scenario", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(SimConfig::default(), black_box(&scenario));
            black_box(sim.run())
        })
    });

    let fault = Fault {
        kind: FaultKind::Scalar { signal: Signal::RawThrottle, model: ScalarFaultModel::StuckMax },
        window: FaultWindow::scene(60),
    };
    group.bench_function("faulted_40s_scenario", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(SimConfig::default(), black_box(&scenario));
            let mut injector = Injector::new(vec![fault]);
            black_box(sim.run_with(&mut injector))
        })
    });

    group.finish();
}

/// Campaign job-dispatch throughput on an exhaustive-style sweep: one
/// scenario × many single-scene faults. Every job shares the scenario's
/// single `Arc` allocation, so dispatch cost is the fault list plus a
/// refcount bump — the shape whose per-job deep clone this bench exists
/// to keep dead. Short scenarios keep the simulated work small relative
/// to dispatch.
fn bench_campaign_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_dispatch");
    group.sample_size(10);

    let mut scenario = ScenarioConfig::lead_vehicle_cruise(7);
    scenario.duration = 4.0; // 30 scenes: dispatch-heavy, sim-light
    let scenario = Arc::new(scenario);
    let scenes = scenario.scene_count() as u64;
    let sweep = |model| {
        let scenario = Arc::clone(&scenario);
        (1..scenes - 1).map(move |scene| CampaignJob {
            id: scene,
            scenario: Arc::clone(&scenario),
            faults: vec![Fault {
                kind: FaultKind::Scalar { signal: Signal::RawThrottle, model },
                window: FaultWindow::scene(scene),
            }],
        })
    };
    let jobs_per_sweep = 2 * (scenes - 2);

    let engine = CampaignEngine::new(SimConfig::default()).with_workers(4);
    group.throughput(Throughput::Elements(jobs_per_sweep));
    group.bench_function("exhaustive_sweep_zero_clone", |b| {
        b.iter(|| {
            let mut done = 0u64;
            let jobs = sweep(ScalarFaultModel::StuckMax).chain(sweep(ScalarFaultModel::StuckMin));
            engine.run(jobs, &mut |_: u64, result: CampaignResult| {
                done += u64::from(!result.report.outcome.is_safe());
            });
            black_box(done)
        })
    });

    // The mined-injection shape (the paper's point): faults concentrated
    // in the hazardous tail. Jobs fork off the shared golden prefix right
    // before their window, so most of each run is never re-simulated —
    // the shape the engine's golden-prefix sharing is built for.
    let tail_scenes: Vec<u64> = (scenes - 8..scenes - 1).collect();
    let tail_sweep = |model| {
        let scenario = Arc::clone(&scenario);
        let tail = tail_scenes.clone();
        tail.into_iter().map(move |scene| CampaignJob {
            id: scene,
            scenario: Arc::clone(&scenario),
            faults: vec![Fault {
                kind: FaultKind::Scalar { signal: Signal::RawThrottle, model },
                window: FaultWindow::scene(scene),
            }],
        })
    };
    let tail_jobs = 2 * tail_scenes.len() as u64;
    group.throughput(Throughput::Elements(tail_jobs));
    group.bench_function("mined_tail_sweep", |b| {
        b.iter(|| {
            let mut done = 0u64;
            let jobs = tail_sweep(ScalarFaultModel::StuckMax)
                .chain(tail_sweep(ScalarFaultModel::StuckMin));
            engine.run(jobs, &mut |_: u64, result: CampaignResult| {
                done += u64::from(!result.report.outcome.is_safe());
            });
            black_box(done)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_simulation, bench_campaign_dispatch);
criterion_main!(benches);
