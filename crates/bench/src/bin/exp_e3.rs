//! **E3 + E4 — Bayesian fault mining and acceleration** (the paper's
//! headline result, §I):
//!
//! * candidate corpus ≈ 98 400 faults → exhaustive simulation ≈ 615 days,
//! * Bayesian FI found 561 critical faults in < 4 h (3 690×),
//! * 460 of 561 manifested as safety hazards when actually injected,
//! * the hazards concentrated in 68 of 7 200 scenes.
//!
//! This binary runs `plans/paper/e3_mine.toml` — the full pipeline at
//! paper scale (24 scenarios, 7 200 scenes) — through [`run_plan`], the
//! code `drivefi mine` and the campaign benchmark run, and prints the
//! same accounting. Stage times come from the campaign's own event log.
//!
//! [`run_plan`]: drivefi_plan::run_plan
//!
//! ```text
//! cargo run --release -p drivefi-bench --bin exp_e3 [scene_stride]
//! ```

use drivefi_bench::{paper_plan, StoreRun};
use drivefi_core::{AccelerationReport, BayesianMiner, MinerConfig};
use drivefi_fault::FaultKind;
use drivefi_plan::{CampaignKind, GOLDEN_SUBDIR, VALIDATE_SUBDIR};
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    let mut plan = paper_plan("e3_mine.toml");
    if let Some(scene_stride) = std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        plan.kind = CampaignKind::Mine { scene_stride };
    }
    let CampaignKind::Mine { scene_stride: stride } = plan.kind else {
        unreachable!("e3_mine.toml is a mine plan");
    };
    let suite = plan.scenarios.build_suite();

    println!(
        "E3/E4: Bayesian FI over {} scenarios / {} scenes (stride {stride})",
        suite.scenarios.len(),
        suite.scene_count()
    );

    // --- The pipeline: golden runs, model fit + counterfactuals, validation ---
    drivefi_obs::force_enabled(true);
    let run = StoreRun::new(&plan);
    let spans = run.stage_spans();
    let (golden, validate) = (spans[GOLDEN_SUBDIR], spans[VALIDATE_SUBDIR]);
    let golden_time = golden.1 - golden.0;
    let fit_mine_time = validate.0 - golden.1;
    let validation_time = validate.1 - validate.0;
    let total_mining = golden_time + fit_mine_time;
    let config = MinerConfig { scene_stride: stride, ..MinerConfig::default() };
    let (_, corpus) =
        BayesianMiner::fit_from_store(run.root.join(GOLDEN_SUBDIR), config).expect("model fit");
    let pool = corpus.candidate_count();
    let validated = &run.report.jobs;

    println!();
    println!("mining: golden {golden_time:.1?} + fit and counterfactuals {fit_mine_time:.1?}");
    println!("candidate pool |F| = {pool} (paper: 98 400)");
    println!("critical set |F_crit| = {} (paper: 561)", validated.len());

    // --- Validation phase ---
    let manifested = run.report.hazards() + run.report.collisions();
    let critical_scenes: BTreeSet<(u32, u64)> = validated
        .iter()
        .filter(|r| r.outcome.is_hazardous())
        .map(|r| (r.scenario_id, r.fault.expect("validation jobs inject").window.scene))
        .collect();
    let precision =
        if validated.is_empty() { 0.0 } else { manifested as f64 / validated.len() as f64 };
    println!("validation: {validation_time:.1?} for {} injection runs", validated.len());
    println!();
    println!("| metric                       | ours       | paper      |");
    println!("|------------------------------|------------|------------|");
    println!("| mined critical faults        | {:10} | 561        |", validated.len());
    println!("| manifested as hazards        | {manifested:10} | 460        |");
    println!("|   of which collisions        | {:10} | n/r        |", run.report.collisions());
    println!("| miner precision              | {:9.1}% | 82.0%      |", 100.0 * precision);
    println!("| safety-critical scenes       | {:10} | 68 of 7200 |", critical_scenes.len());

    // Per-signal breakdown of the validated set.
    let mut by_signal: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for record in validated {
        let Some(FaultKind::Scalar { signal, .. }) = record.fault.map(|f| f.kind) else {
            unreachable!("the miner mines scalar faults");
        };
        let slot = by_signal.entry(signal.name()).or_default();
        slot.0 += 1;
        if record.outcome.is_hazardous() {
            slot.1 += 1;
        }
    }
    println!();
    println!("| signal               | mined | manifested |");
    println!("|----------------------|-------|------------|");
    for (signal, (mined, manifested)) in &by_signal {
        println!("| {signal:20} | {mined:5} | {manifested:10} |");
    }

    // --- Acceleration accounting ---
    let avg_sim = validation_time.div_f64(validated.len().max(1) as f64);
    let report = AccelerationReport {
        candidate_pool: pool,
        avg_sim_time: avg_sim,
        mining_time: total_mining,
        validation_time,
        mined_faults: validated.len(),
    };
    println!();
    println!("E4 acceleration accounting (paper: 615 days vs < 4 h = 3690x):");
    println!("  avg simulated injection run : {avg_sim:.1?}");
    println!("  exhaustive estimate         : {:.1?}", report.exhaustive_time());
    println!("  Bayesian (mine + validate)  : {:.1?}", report.bayesian_time());
    println!(
        "  acceleration, end to end    : {:.0}x (exhaustive ÷ golden + fit + mine + validate)",
        report.acceleration()
    );
    println!(
        "  acceleration, paper-style   : {:.0}x (exhaustive ÷ golden + fit + mine; the paper's \
         3690x is this ratio)",
        report.paper_acceleration()
    );
    // Our simulator runs a 40 s scenario in milliseconds; the paper's
    // testbed ran DriveSim/LGSVL in real time (~540 s per injection run,
    // 98 400 runs = 615 days). The algorithmic speedup at the paper's
    // per-run cost — mining replaces `pool` runs with |F_crit|
    // validation runs plus the (simulator-independent) BN work:
    let paper_run = std::time::Duration::from_secs(540);
    let exhaustive_paper = paper_run.mul_f64(pool as f64);
    let bayesian_paper = total_mining + paper_run.mul_f64(validated.len() as f64);
    println!(
        "  at the paper's 540 s per run: exhaustive {:.1} days vs Bayesian {:.1} h = {:.0}x",
        exhaustive_paper.as_secs_f64() / 86_400.0,
        bayesian_paper.as_secs_f64() / 3_600.0,
        exhaustive_paper.as_secs_f64() / bayesian_paper.as_secs_f64().max(1e-9)
    );
}
