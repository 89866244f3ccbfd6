//! **E11 — Exhaustive ground truth (extension)**: the paper reports the
//! miner's *precision* (460 of 561 mined faults manifest, §I) but the
//! exhaustive campaign that would expose its *recall* was the 615-day
//! cost DriveFI exists to avoid. Our simulator is fast enough to run it
//! on a corpus subset: `plans/paper/e11_exhaustive.toml` injects every
//! candidate fault for real through [`run_plan`], and the manifested
//! set in its sweep store is compared against the set the miner mines
//! from its golden store.
//!
//! [`run_plan`]: drivefi_plan::run_plan
//!
//! ```text
//! cargo run --release -p drivefi-bench --bin exp_e11 [scenarios] [stride]
//! ```

use drivefi_bench::{paper_plan, StoreRun};
use drivefi_core::{BayesianMiner, MinerConfig};
use drivefi_fault::{FaultKind, FaultSpec};
use drivefi_plan::{CampaignKind, ScenarioSelection, GOLDEN_SUBDIR, SWEEP_SUBDIR};
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    let mut plan = paper_plan("e11_exhaustive.toml");
    let arg = |i: usize| -> Option<usize> { std::env::args().nth(i)?.parse().ok() };
    let (ScenarioSelection::Paper { count, seed }, CampaignKind::Exhaustive { scene_stride }) =
        (&plan.scenarios, plan.kind)
    else {
        unreachable!("e11_exhaustive.toml is an exhaustive plan over the paper suite");
    };
    let scenarios = arg(1).map_or(*count, |c| c as u32);
    let stride = arg(2).unwrap_or(scene_stride);
    plan.scenarios = ScenarioSelection::Paper { count: scenarios, seed: *seed };
    plan.kind = CampaignKind::Exhaustive { scene_stride: stride };

    println!("E11: exhaustive ground truth on {scenarios} scenarios (scene stride {stride})");
    drivefi_obs::force_enabled(true);
    let run = StoreRun::new(&plan);
    let (sweep_start, sweep_end) = run.stage_spans()[SWEEP_SUBDIR];
    let exhaustive_time = sweep_end - sweep_start;

    // Ground truth: the sweep records that manifested.
    let sweep: Vec<(u32, FaultSpec, bool)> = run
        .report
        .jobs
        .iter()
        .map(|r| (r.scenario_id, r.fault.expect("sweep jobs inject"), r.outcome.is_hazardous()))
        .collect();
    let key = |scenario_id: u32, spec: FaultSpec| (scenario_id, spec.key());
    let ground_truth: BTreeSet<_> =
        sweep.iter().filter(|(.., hazard)| *hazard).map(|&(id, spec, _)| key(id, spec)).collect();

    // The mined set, from the miner refitted on the golden store.
    let config = MinerConfig { scene_stride: stride, ..MinerConfig::default() };
    let (miner, traces) =
        BayesianMiner::fit_from_store(run.root.join(GOLDEN_SUBDIR), config).expect("model fit");
    let mine_start = std::time::Instant::now();
    let mined = miner.mine(&traces);
    let mining_time = mine_start.elapsed();
    let mined_keys: BTreeSet<_> =
        mined.iter().map(|c| key(c.scenario_id, c.fault_spec())).collect();

    let true_positives = mined_keys.intersection(&ground_truth).count();
    let ratio = |part: usize, whole: usize, if_empty: f64| {
        if whole == 0 {
            if_empty
        } else {
            part as f64 / whole as f64
        }
    };
    let precision = ratio(true_positives, mined_keys.len(), 0.0);
    let recall = ratio(true_positives, ground_truth.len(), 1.0);
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };

    // Per-(signal, corruption) accounting: [ground-truth hazards,
    // candidates, mined, mined ∩ hazards].
    let row = |spec: FaultSpec| match spec.kind {
        FaultKind::Scalar { signal, model } => (signal.name(), model.name()),
        other => unreachable!("the miner screens scalar faults, not {}", other.name()),
    };
    let mut by_fault: BTreeMap<_, [usize; 4]> = BTreeMap::new();
    for &(_, spec, hazard) in &sweep {
        let slot = by_fault.entry(row(spec)).or_default();
        slot[0] += usize::from(hazard);
        slot[1] += 1;
    }
    for c in &mined {
        let slot = by_fault.entry(row(c.fault_spec())).or_default();
        slot[2] += 1;
        slot[3] += usize::from(ground_truth.contains(&key(c.scenario_id, c.fault_spec())));
    }

    println!();
    println!("| metric                   | value      |");
    println!("|--------------------------|------------|");
    println!("| candidate faults         | {:10} |", sweep.len());
    println!("| ground-truth hazards     | {:10} |", ground_truth.len());
    println!("| mined |F_crit|           | {:10} |", mined_keys.len());
    println!("| true positives           | {true_positives:10} |");
    println!("| false positives          | {:10} |", mined_keys.len() - true_positives);
    println!("| false negatives          | {:10} |", ground_truth.len() - true_positives);
    println!("| precision                | {:9.1}% |", 100.0 * precision);
    println!("| recall                   | {:9.1}% |", 100.0 * recall);
    println!("| F1                       | {f1:10.2} |");
    println!("| exhaustive wall-clock    | {exhaustive_time:9.1?} |");
    println!("| mining wall-clock        | {mining_time:9.1?} |");
    println!();
    println!("| fault                      | hazards/candidates | mined (TP) |");
    println!("|----------------------------|--------------------|------------|");
    for ((signal, model), [hazards, cands, mined, tp]) in &by_fault {
        println!(
            "| {:26} | {hazards:8}/{cands:9} | {mined:5} ({tp:2}) |",
            format!("{signal}:{model}")
        );
    }
    println!();
    println!(
        "paper shape: precision ≈ 82% (460/561); recall unmeasured in the paper — \
         this extension closes that gap on a corpus subset."
    );
}
