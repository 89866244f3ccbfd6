//! The miner's compiled counterfactual forecasts against the
//! factor-by-factor reference MAP, on every distinct query an unpruned
//! `mine()` would ask of an 8-scenario suite at scene stride 10; `mine()`
//! itself against a reference miner built on those reference forecasts,
//! candidate for candidate and bit for bit, at several thresholds; and
//! the δ̂ floor `mine()` prunes with against every reference δ̂.

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
use std::sync::OnceLock;

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

/// One candidate that is not a no-op: scenario, scene index, signal,
/// fault model, injected value and forecast key.
type Query = (u32, usize, Signal, ScalarFaultModel, f64, Key);

/// Every candidate `mine()` asks a forecast for when nothing is pruned,
/// with its key.
fn queried(miner: &BayesianMiner, traces: &[Trace]) -> Vec<Query> {
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

/// The suite's traces, a miner fitted at the default threshold, its
/// queried candidates and the reference forecast of every distinct key:
/// the reference MAP is slow, so the tests share one copy.
struct Fixture {
    traces: Vec<Trace>,
    miner: BayesianMiner,
    queries: Vec<Query>,
    reference: HashMap<Key, ResponseForecast>,
}

/// The miner configuration the fixture is fitted with.
fn config() -> MinerConfig {
    MinerConfig { scene_stride: 10, ..MinerConfig::default() }
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let suite = ScenarioSuite::generate(8, 42);
        let traces = collect_golden_traces(&SimConfig::default(), &suite, 8);
        let miner = BayesianMiner::fit(&traces, config()).unwrap();
        let queries = queried(&miner, &traces);
        let mut reference = HashMap::new();
        for (.., key) in &queries {
            reference.entry(*key).or_insert_with(|| reference_forecast(miner.model(), key));
        }
        Fixture { traces, miner, queries, reference }
    })
}

/// The frame a query was asked at.
fn frame<'f>(fixture: &'f Fixture, query: &Query) -> &'f drivefi_sim::FrameRecord {
    let (scenario_id, k, ..) = *query;
    &fixture.traces.iter().find(|t| t.scenario_id == scenario_id).unwrap().frames[k]
}

/// The reference δ̂ of a query: its reference forecast with the injected
/// value applied to an exactly overridden channel, as `mine()` does.
fn reference_delta_hat(fixture: &Fixture, miner: &BayesianMiner, query: &Query) -> f64 {
    let &(_, _, signal, _, value, key) = query;
    let mut response = fixture.reference[&key];
    match signal {
        Signal::FinalThrottle => response.throttle = value,
        Signal::FinalBrake => response.brake = value,
        Signal::FinalSteering | Signal::RawSteering => response.steering = value,
        _ => {}
    }
    miner.delta_hat_from_forecast(frame(fixture, query), &response)
}

#[test]
fn compiled_forecasts_and_mined_set_match_the_reference() {
    let fixture = fixture();
    let miner = &fixture.miner;

    // Every distinct key, compiled against the reference.
    let mut per_var = [0usize; TbnVar::ALL.len()];
    for (key, expected) in &fixture.reference {
        let (obs0, obs1, var, category) = key;
        let got = miner.forecast(obs0, obs1, TbnVar::ALL[*var], *category).unwrap();
        assert_eq!(bits(&got), bits(expected), "forecast drifted for {key:?}");
        per_var[*var] += 1;
    }
    for (signal, var) in drivefi_core::miner::MINED_SIGNALS {
        assert!(per_var[var.index()] > 0, "no query intervenes on {signal:?}");
    }

    // The mined set from the reference forecasts, as an unpruned `mine()`
    // builds it, at thresholds on both sides of where the δ̂ floor starts
    // to prune.
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
    for delta_threshold in [-1.0, 0.0, 0.25, 0.5] {
        let miner =
            BayesianMiner::fit(&fixture.traces, MinerConfig { delta_threshold, ..config() })
                .unwrap();
        let mut expected: Vec<CandidateFault> = Vec::new();
        for query in &fixture.queries {
            let &(scenario_id, _, signal, model_kind, ..) = query;
            let frame = frame(fixture, query);
            let predicted_delta = reference_delta_hat(fixture, &miner, query);
            if predicted_delta <= delta_threshold {
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
        assert!(!expected.is_empty(), "the reference mined nothing at {delta_threshold}");

        let expected: Vec<_> = expected.iter().map(key).collect();
        let mined: Vec<_> = miner.mine(&fixture.traces).iter().map(key).collect();
        assert_eq!(mined, expected, "mine() drifted from the reference at {delta_threshold}");
        let parallel: Vec<_> = miner.mine_parallel(&fixture.traces, 2).iter().map(key).collect();
        assert_eq!(
            parallel, expected,
            "mine_parallel(2) drifted from the reference at {delta_threshold}"
        );
    }
}

#[test]
fn delta_hat_floor_bounds_the_reference_and_prunes() {
    let fixture = fixture();
    let miner = &fixture.miner;
    // Per variable, the candidates the floor applies to and those it
    // prunes at the default threshold.
    let mut bounded = [0usize; TbnVar::ALL.len()];
    let mut pruned = [0usize; TbnVar::ALL.len()];
    for query in &fixture.queries {
        let &(_, _, signal, _, _, (.., var, _)) = query;
        let frame = frame(fixture, query);
        if exact_channel(frame, signal).is_some() {
            continue;
        }
        let floor = miner.delta_hat_floor(frame);
        let delta_hat = reference_delta_hat(fixture, miner, query);
        assert!(floor <= delta_hat, "floor {floor} above δ̂ {delta_hat} for {query:?}");
        bounded[var] += 1;
        pruned[var] += usize::from(floor > config().delta_threshold);
    }
    // A floor that stopped pruning would keep `mine()` exact but slow.
    for var in [TbnVar::WDist, TbnVar::WSpeed, TbnVar::UThrottle, TbnVar::UBrake] {
        let i = var.index();
        assert!(pruned[i] > 0, "no {} candidate pruned (of {})", var.name(), bounded[i]);
    }
}
