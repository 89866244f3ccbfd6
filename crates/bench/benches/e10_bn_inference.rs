//! E10 — Bayesian-network inference micro-costs.
//!
//! The paper's feasibility argument rests on "BNs enable rapid
//! probabilistic inference": one counterfactual query must be orders of
//! magnitude cheaper than one simulated injection run. This bench
//! measures (a) a sprinkler-size posterior, (b) the memoized mining step,
//! and (c) one full 3-TBN counterfactual δ̂ query at its worst case.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use drivefi_bayes::{BayesNet, Cpt, Evidence};
use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
use drivefi_sim::SimConfig;
use drivefi_world::ScenarioSuite;
use std::hint::black_box;

fn sprinkler() -> (BayesNet, drivefi_bayes::VarId, drivefi_bayes::VarId) {
    let mut net = BayesNet::new();
    let c = net.add_variable("cloudy", 2);
    let s = net.add_variable("sprinkler", 2);
    let r = net.add_variable("rain", 2);
    let w = net.add_variable("wet", 2);
    net.set_cpt(Cpt::new(c, vec![], vec![0.5, 0.5])).unwrap();
    net.set_cpt(Cpt::new(s, vec![c], vec![0.5, 0.5, 0.9, 0.1])).unwrap();
    net.set_cpt(Cpt::new(r, vec![c], vec![0.8, 0.2, 0.2, 0.8])).unwrap();
    net.set_cpt(Cpt::new(w, vec![s, r], vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99])).unwrap();
    (net, r, w)
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_bn_inference");

    let (net, rain, wet) = sprinkler();
    group.bench_function("sprinkler_posterior", |b| {
        b.iter(|| {
            let e = Evidence::from([(wet, 1)]);
            black_box(net.posterior(black_box(rain), &e).unwrap())
        })
    });

    // Exact vs approximate inference on the same query: quantifies the
    // trade the paper's "rapid probabilistic inference" claim rests on
    // (VE is exact and fast on tree-like nets; sampling wins only on
    // dense topologies VE cannot handle).
    use drivefi_bayes::{gibbs_posterior, likelihood_weighting, SampleOpts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    group.bench_function("sprinkler_likelihood_weighting_2k", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let opts = SampleOpts::new(2_000);
        b.iter(|| {
            let e = Evidence::from([(wet, 1)]);
            black_box(
                likelihood_weighting(&net, rain, &e, &Evidence::new(), &opts, &mut rng).unwrap(),
            )
        })
    });
    group.bench_function("sprinkler_gibbs_2k", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let opts = SampleOpts { samples: 2_000, burn_in: 200, thin: 1 };
        b.iter(|| {
            let e = Evidence::from([(wet, 1)]);
            black_box(gibbs_posterior(&net, rain, &e, &Evidence::new(), &opts, &mut rng).unwrap())
        })
    });

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
