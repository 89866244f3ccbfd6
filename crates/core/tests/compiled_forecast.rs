//! The miner's compiled counterfactual forecasts against the
//! factor-by-factor reference MAP, on every distinct query `mine()` asks
//! of an 8-scenario suite at scene stride 10; and `mine()` itself against
//! a reference miner built on those reference forecasts, candidate for
//! candidate and bit for bit.

#[path = "../../bayes/tests/oracle/mod.rs"]
mod oracle;

use drivefi_ads::Signal;
use drivefi_bayes::{Evidence, VarId};
use drivefi_core::miner::ResponseForecast;
use drivefi_core::{
    collect_golden_traces, BayesianMiner, CandidateFault, MinerConfig, SceneObs, TbnModel, TbnVar,
};
use drivefi_fault::ScalarFaultModel;
use drivefi_sim::{SimConfig, Trace};
use drivefi_world::ScenarioSuite;
use std::collections::HashMap;

/// The memo key of one forecast: both scenes' bins, the intervened
/// variable and its category.
type Key = (SceneObs, SceneObs, usize, usize);

/// Slice-1 variables downstream of `var` within slice 1, read off the
/// network's parent lists.
fn intra_descendants(model: &TbnModel, var: TbnVar) -> Vec<VarId> {
    let slice1: Vec<VarId> = TbnVar::ALL.iter().map(|&v| model.id(1, v)).collect();
    let mut reached = vec![model.id(1, var)];
    while let Some(&next) = slice1.iter().find(|v| {
        !reached.contains(v) && model.net.parents(**v).iter().any(|p| reached.contains(p))
    }) {
        reached.push(next);
    }
    reached.split_off(1)
}

/// The forecast the reference MAP gives for `key`.
fn reference_forecast(model: &TbnModel, key: &Key) -> ResponseForecast {
    let (obs0, obs1, var, category) = key;
    let var = TbnVar::ALL[*var];
    let blocked = intra_descendants(model, var);
    let mut evidence = Evidence::new();
    for v in TbnVar::ALL {
        evidence.insert(model.id(0, v), model.obs_category(v, obs0));
        if v != var && !blocked.contains(&model.id(1, v)) {
            evidence.insert(model.id(1, v), model.obs_category(v, obs1));
        }
    }
    let interventions = Evidence::from([(model.id(1, var), *category)]);
    let map = oracle::map_assignment(&model.net, &evidence, &interventions).unwrap();
    let rep = |v: TbnVar| model.representative(v, map[&model.id(1, v)]).unwrap_or(0.0);
    ResponseForecast {
        throttle: rep(TbnVar::AThrottle),
        brake: rep(TbnVar::ABrake),
        steering: rep(TbnVar::ASteer),
    }
}

/// The recorded value of the signals whose injected value the miner
/// applies exactly.
fn exact_channel(frame: &drivefi_sim::FrameRecord, signal: Signal) -> Option<f64> {
    match signal {
        Signal::FinalThrottle => Some(frame.final_cmd.throttle),
        Signal::FinalBrake => Some(frame.final_cmd.brake),
        Signal::FinalSteering => Some(frame.final_cmd.steering),
        Signal::RawSteering => Some(frame.raw_cmd.steering),
        _ => None,
    }
}

/// Every candidate `mine()` asks a forecast for, with its key.
fn queried(
    miner: &BayesianMiner,
    traces: &[Trace],
) -> Vec<(u32, usize, Signal, ScalarFaultModel, f64, Key)> {
    let model = miner.model();
    let mut out = Vec::new();
    for trace in traces {
        for (k, signal, var, fault) in miner.candidates(trace) {
            let value = fault.apply(0.0, signal.range());
            let category = model.category_of(var, value);
            let obs0 = model.observe(&trace.frames[k - 1]);
            let obs1 = model.observe(&trace.frames[k]);
            let noop = match exact_channel(&trace.frames[k], signal) {
                Some(recorded) => (recorded - value).abs() < 1e-9,
                None => model.obs_category(var, &obs1) == category,
            };
            if !noop {
                out.push((
                    trace.scenario_id,
                    k,
                    signal,
                    fault,
                    value,
                    (obs0, obs1, var.index(), category),
                ));
            }
        }
    }
    out
}

fn bits(f: &ResponseForecast) -> [u64; 3] {
    [f.throttle.to_bits(), f.brake.to_bits(), f.steering.to_bits()]
}

#[test]
fn compiled_forecasts_and_mined_set_match_the_reference() {
    let suite = ScenarioSuite::generate(8, 42);
    let traces = collect_golden_traces(&SimConfig::default(), &suite, 8);
    let config = MinerConfig { scene_stride: 10, ..MinerConfig::default() };
    let miner = BayesianMiner::fit(&traces, config).unwrap();
    let model = miner.model();
    let queries = queried(&miner, &traces);

    // Every distinct key, compiled against the reference.
    let mut reference: HashMap<Key, ResponseForecast> = HashMap::new();
    let mut per_var = [0usize; TbnVar::ALL.len()];
    for (.., key) in &queries {
        if reference.contains_key(key) {
            continue;
        }
        let expected = reference_forecast(model, key);
        let (obs0, obs1, var, category) = key;
        let got = miner.forecast(obs0, obs1, TbnVar::ALL[*var], *category).unwrap();
        assert_eq!(bits(&got), bits(&expected), "forecast drifted for {key:?}");
        reference.insert(*key, expected);
        per_var[*var] += 1;
    }
    for (signal, var) in drivefi_core::miner::MINED_SIGNALS {
        assert!(per_var[var.index()] > 0, "no query intervenes on {signal:?}");
    }

    // The mined set from the reference forecasts, as `mine()` builds it.
    let mut expected: Vec<CandidateFault> = Vec::new();
    for &(scenario_id, k, signal, model_kind, value, key) in &queries {
        let trace = traces.iter().find(|t| t.scenario_id == scenario_id).unwrap();
        let frame = &trace.frames[k];
        let mut response = reference[&key];
        match signal {
            Signal::FinalThrottle => response.throttle = value,
            Signal::FinalBrake => response.brake = value,
            Signal::FinalSteering | Signal::RawSteering => response.steering = value,
            _ => {}
        }
        let predicted_delta = miner.delta_hat_from_forecast(frame, &response);
        if predicted_delta <= config.delta_threshold {
            expected.push(CandidateFault {
                scenario_id,
                scene: frame.scene,
                signal,
                model: model_kind,
                golden_delta: frame.delta_true.longitudinal.min(frame.delta_true.lateral),
                predicted_delta,
            });
        }
    }
    expected.sort_by(|a, b| a.predicted_delta.partial_cmp(&b.predicted_delta).unwrap());
    assert!(!expected.is_empty(), "the reference mined nothing");

    let key = |c: &CandidateFault| {
        (
            c.scenario_id,
            c.scene,
            c.signal,
            c.model,
            c.golden_delta.to_bits(),
            c.predicted_delta.to_bits(),
        )
    };
    let expected: Vec<_> = expected.iter().map(key).collect();
    let mined: Vec<_> = miner.mine(&traces).iter().map(key).collect();
    assert_eq!(mined, expected, "mine() drifted from the reference");
    let parallel: Vec<_> = miner.mine_parallel(&traces, 2).iter().map(key).collect();
    assert_eq!(parallel, expected, "mine_parallel(2) drifted from the reference");
}
