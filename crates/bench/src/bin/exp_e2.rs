//! **E2 — Random ADS-output fault injection** (paper fault model *b*,
//! random selection; §I: "several weeks of 5000 random FI experiments
//! did not result in discovery of a single safety hazard").
//!
//! 5 000 runs, each with one uniformly random (scenario, scene, signal,
//! min|max) single-scene corruption, over the paper-scale 7 200-scene
//! suite: `plans/paper/e2_random.toml`, run through [`run_plan`] like
//! any plan file.
//!
//! ```text
//! cargo run --release -p drivefi-bench --bin exp_e2 [runs]
//! ```

use drivefi_bench::paper_plan;
use drivefi_plan::{run_plan, CampaignKind, PlanResult};

fn main() {
    let mut plan = paper_plan("e2_random.toml");
    if let Some(runs) = std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        plan.kind = CampaignKind::Random { runs };
    }

    let t0 = std::time::Instant::now();
    let PlanResult::Persisted(report) = run_plan(&plan).unwrap_or_else(|e| panic!("{e}"));
    let dt = t0.elapsed();

    println!("E2: random output-corruption campaign over the 7200-scene suite");
    println!();
    println!("| metric                  | ours            | paper          |");
    println!("|-------------------------|-----------------|----------------|");
    println!("| runs                    | {:15} | 5000           |", report.jobs.len());
    println!("| effective injections    | {:15} | n/a            |", report.effective_injections());
    println!("| safety hazards          | {:15} | 0              |", report.hazards());
    println!("| collisions              | {:15} | 0              |", report.collisions());
    println!(
        "| hazard rate             | {:14.3}% | 0%             |",
        100.0 * report.hazard_rate()
    );
    println!("| wall clock              | {dt:<15.1?} | several weeks  |");
    let hazardous: Vec<_> = report.jobs.iter().filter(|r| r.outcome.is_hazardous()).collect();
    if !hazardous.is_empty() {
        println!();
        println!("hazardous picks (lucky randoms):");
        for record in hazardous {
            let fault = record.fault.expect("random jobs inject a fault");
            println!(
                "  scenario {} scene {} target {}",
                record.scenario_id,
                fault.window.scene,
                fault.kind.target_name()
            );
        }
    }
}
