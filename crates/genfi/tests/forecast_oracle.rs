//! The generic miner's compiled counterfactual forecasts against the
//! factor-by-factor reference MAP, on every distinct query `mine()` asks
//! of a small surgical-robot corpus; and `mine()` itself pinned on the
//! `surgical_robot` example's 12-insertion corpus.

#[path = "../../bayes/tests/oracle/mod.rs"]
mod oracle;

use drivefi_bayes::{Evidence, VarId};
use drivefi_genfi::surgical::{
    golden_traces, InsertionSafety, NeedleArm, VAR_COMMAND, VAR_MEASURED, VAR_VELOCITY,
};
use drivefi_genfi::{GenericMiner, MinerOptions, SafetyModel};
use std::collections::HashMap;

/// The memo key of one forecast: both steps' bins, the intervened
/// variable and its category.
type Key = (Vec<usize>, Vec<usize>, usize, usize);

/// The variables a fault on `var` changes within its step: `var` and
/// everything downstream of it in the arm's encoder → controller → servo
/// dataflow.
fn reached(var: usize) -> &'static [usize] {
    match var {
        VAR_MEASURED => &[VAR_MEASURED, VAR_COMMAND, VAR_VELOCITY],
        VAR_COMMAND => &[VAR_COMMAND, VAR_VELOCITY],
        other => panic!("variable {other} is not injectable"),
    }
}

/// The network id of spec variable `var` in `slice`.
fn id(miner: &GenericMiner, slice: usize, var: usize) -> VarId {
    let name = format!("{}@{slice}", NeedleArm::spec().vars()[var].name);
    miner.net().find(&name).expect("unrolled variable")
}

/// The bins of a step's continuous values.
fn bins(miner: &GenericMiner, step: &[f64]) -> Vec<usize> {
    step.iter().enumerate().map(|(i, &x)| miner.discretizer(i).transform(x)).collect()
}

/// Every distinct key `mine()` asks a forecast for, with the first pair
/// of steps that asks it.
fn queried<'t>(
    miner: &GenericMiner,
    traces: &'t [Vec<Vec<f64>>],
) -> HashMap<Key, (&'t [f64], &'t [f64])> {
    let spec = NeedleArm::spec();
    let safety = InsertionSafety::default();
    let mut out = HashMap::new();
    for trace in traces {
        for k in 1..trace.len() - 1 {
            if safety.margin(&trace[k]) <= 0.0 {
                continue;
            }
            let (bins0, bins1) = (bins(miner, &trace[k - 1]), bins(miner, &trace[k]));
            for (var, vs) in spec.vars().iter().enumerate().filter(|(_, vs)| vs.injectable) {
                for value in [vs.min, vs.max] {
                    let category = miner.discretizer(var).transform(value);
                    if bins1[var] != category {
                        out.entry((bins0.clone(), bins1.clone(), var, category))
                            .or_insert((&trace[k - 1][..], &trace[k][..]));
                    }
                }
            }
        }
    }
    out
}

/// The forecast the reference MAP gives for `key`.
fn reference_forecast(miner: &GenericMiner, key: &Key) -> (Vec<f64>, Vec<f64>) {
    let (bins0, bins1, var, category) = key;
    let mut evidence = Evidence::new();
    for (i, (&b0, &b1)) in bins0.iter().zip(bins1).enumerate() {
        evidence.insert(id(miner, 0, i), b0);
        if !reached(*var).contains(&i) {
            evidence.insert(id(miner, 1, i), b1);
        }
    }
    let interventions = Evidence::from([(id(miner, 1, *var), *category)]);
    let map = oracle::map_assignment(miner.net(), &evidence, &interventions).unwrap();
    let slice = |s: usize| -> Vec<f64> {
        (0..bins0.len())
            .map(|i| miner.discretizer(i).representative(map[&id(miner, s, i)]))
            .collect()
    };
    (slice(1), slice(2))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn compiled_forecasts_match_the_reference() {
    let traces = golden_traces(3, 2026);
    let miner = GenericMiner::fit(&NeedleArm::spec(), &traces, MinerOptions::default()).unwrap();
    let mut per_var = [0usize; 2];
    for (key, (step0, step1)) in queried(&miner, &traces) {
        let (faulted, next) = miner.forecast(step0, step1, key.2, key.3).unwrap();
        let (ref_faulted, ref_next) = reference_forecast(&miner, &key);
        assert_eq!(bits(&faulted), bits(&ref_faulted), "faulted step drifted for {key:?}");
        assert_eq!(bits(&next), bits(&ref_next), "next step drifted for {key:?}");
        per_var[key.2] += 1;
    }
    for var in [VAR_MEASURED, VAR_COMMAND] {
        assert!(per_var[var] > 0, "no query intervenes on variable {var}");
    }
}

#[test]
fn mined_set_is_pinned() {
    let traces = golden_traces(12, 2026);
    let miner = GenericMiner::fit(&NeedleArm::spec(), &traces, MinerOptions::default()).unwrap();
    let critical = miner.mine(&traces, &InsertionSafety::default());
    assert_eq!(critical.len(), 11_150);
    assert_eq!(critical.iter().filter(|c| c.var == VAR_MEASURED).count(), 5_673);
}
