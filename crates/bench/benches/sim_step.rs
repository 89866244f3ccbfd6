//! Stepping-core microbenchmark: the scalar `Simulation` loop over 32
//! golden jobs on short lead-cruise scenarios, reported in scene-steps
//! per second (jobs × scenes per iteration).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use drivefi_sim::{SimConfig, Simulation};
use drivefi_world::scenario::ScenarioConfig;
use std::hint::black_box;

const JOBS: u64 = 32;

fn short_scenarios() -> Vec<ScenarioConfig> {
    (0..JOBS)
        .map(|i| {
            let mut s = ScenarioConfig::lead_vehicle_cruise(i);
            s.duration = 4.0; // 30 scenes keeps one iteration snappy
            s
        })
        .collect()
}

fn bench_sim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    group.sample_size(10);

    let config = SimConfig::default();
    let scenarios = short_scenarios();
    let scene_steps = JOBS * scenarios[0].scene_count() as u64;
    group.throughput(Throughput::Elements(scene_steps));

    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for scenario in &scenarios {
                let mut sim = Simulation::new(config, black_box(scenario));
                acc ^= sim.run().scenes;
            }
            black_box(acc)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sim_step);
criterion_main!(benches);
