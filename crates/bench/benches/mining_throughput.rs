//! E3/E4 — mining throughput: candidate evaluations per second of the
//! Bayesian fault-selection engine (with memoization), which determines
//! how far ahead of exhaustive simulation the miner lands; and the fit
//! that precedes it, in golden frames per second: the 3-TBN fitted to
//! the 24 traces of the paper suite (discretizers, the byte training
//! rows, the CPTs and the compiled counterfactual queries).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
use drivefi_sim::SimConfig;
use drivefi_world::ScenarioSuite;
use std::hint::black_box;

fn bench_mining(c: &mut Criterion) {
    let suite = ScenarioSuite::generate(8, 42);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 8);
    // Stride 16 keeps one full mining pass sub-second; throughput is
    // normalized per candidate, and the memo cache behaves identically.
    let config = MinerConfig { scene_stride: 16, ..MinerConfig::default() };
    let miner = BayesianMiner::fit(&traces, config).unwrap();
    let candidates = miner.candidate_count(&traces);

    let mut group = c.benchmark_group("mining_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(candidates as u64));
    group.bench_function("mine_8_scenarios_stride16", |b| {
        b.iter(|| black_box(miner.mine(black_box(&traces))))
    });

    let paper = collect_golden_traces(&SimConfig::default(), &ScenarioSuite::paper_suite(3), 2);
    let frames: usize = paper.iter().map(|t| t.frames.len()).sum();
    group.throughput(Throughput::Elements(frames as u64));
    group.bench_function("fit_24_paper_traces", |b| {
        b.iter(|| black_box(BayesianMiner::fit(black_box(&paper), MinerConfig::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
