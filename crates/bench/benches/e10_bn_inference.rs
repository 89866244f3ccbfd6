//! E10 — Bayesian-network inference micro-costs.
//!
//! The paper's feasibility argument rests on "BNs enable rapid
//! probabilistic inference": one counterfactual query must be orders of
//! magnitude cheaper than one simulated injection run. This bench
//! measures (a) the memoized mining step on one trace and (b) one full
//! 3-TBN counterfactual δ̂ query at its worst case.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
use drivefi_sim::SimConfig;
use drivefi_world::ScenarioSuite;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_bn_inference");

    // Fit a small real model once; bench the counterfactual query.
    let suite = ScenarioSuite::generate(4, 42);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 4);
    let miner = BayesianMiner::fit(&traces, MinerConfig::default()).unwrap();
    let t = &traces[1];
    let mid = t.frames.len() / 2;
    let frame = t.frames[mid];
    let obs0 = miner.model().observe(&t.frames[mid - 1]);
    let obs1 = miner.model().observe(&frame);

    // Mining throughput on a strided miner (every 20th scene) so one
    // iteration stays sub-second; the per-candidate cost is what matters
    // and the memo cache behaves identically.
    let strided =
        BayesianMiner::fit(&traces, MinerConfig { scene_stride: 20, ..MinerConfig::default() })
            .unwrap();
    group.sample_size(10);
    group.bench_function("mine_one_trace_memoized", |b| {
        b.iter_batched(
            || traces[1].clone(),
            |trace| black_box(strided.mine(std::slice::from_ref(&trace))),
            BatchSize::LargeInput,
        )
    });

    // One counterfactual δ̂ per iteration, on a lead-distance fault: the
    // intervention whose compiled MAP query is the largest (interventions
    // on a final-actuation channel need no inference at all). Last in the
    // group, since a group's throughput applies to every later bench.
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    group.bench_function("tbn_counterfactual_delta_hat", |b| {
        b.iter(|| {
            black_box(
                miner
                    .delta_hat(
                        black_box(&frame),
                        black_box(&obs0),
                        black_box(&obs1),
                        drivefi_ads::Signal::LeadDistance,
                        drivefi_fault::ScalarFaultModel::StuckMax,
                    )
                    .unwrap(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
