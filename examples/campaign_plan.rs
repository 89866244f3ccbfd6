//! Campaigns as data: run random, exhaustive and module-fault campaigns
//! purely from the shipped `plans/*.toml` files — no recompilation. None
//! of these plans has an `[output]` section, so each runs on a throwaway
//! store and hands back the report that store would have saved.
//!
//! ```text
//! cargo run --release --example campaign_plan
//! ```

use drivefi::plan::{load_scenario_spec, run_plan, CampaignPlan, PlanReport, PlanResult};
use drivefi::world::FamilyRegistry;
use std::path::Path;

fn run(file: &str) -> (CampaignPlan, PlanReport) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let plan = CampaignPlan::load(root.join(file)).expect("plan parses");
    let PlanResult::Persisted(report) = run_plan(&plan).expect("plan runs");
    assert!(report.complete(), "{file}: every job has a record");
    (plan, report)
}

fn main() {
    // 1. The paper's random baseline: random injections essentially
    //    never produce hazards.
    let (plan, report) = run("plans/random_baseline.toml");
    println!("plan `{}`: {:?} over {:?}", plan.name, plan.kind, plan.scenarios);
    println!(
        "  {} runs, {} hazards, {} collisions, {} effective injections",
        report.jobs.len(),
        report.hazards(),
        report.collisions(),
        report.effective_injections()
    );
    assert_eq!(report.jobs.len(), 60);
    assert!(report.hazard_rate() < 0.1, "hazard rate {}", report.hazard_rate());

    // 2. The exhaustive ground truth: every candidate the miner screens,
    //    injected for real.
    let (plan, report) = run("plans/exhaustive_small.toml");
    println!("plan `{}`: {:?}", plan.name, plan.kind);
    println!(
        "  {} candidates injected, {} manifested as hazards or collisions",
        report.jobs.len(),
        report.hazards() + report.collisions()
    );
    assert!(!report.jobs.is_empty());
    assert!(report.jobs.iter().all(|r| r.fault.is_some()), "every sweep job injects");

    // 3. A DSL-native scenario family loaded from a .toml spec file.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = load_scenario_spec(root.join("plans/scenarios/tailgater.toml"))
        .expect("scenario spec parses");
    let registered = FamilyRegistry::builtin().get("tailgater").expect("registered");
    assert_eq!(&spec, registered, "file-loaded spec must equal the registered family");
    let scenario = spec.sample(0, 2026);
    println!(
        "scenario spec from file: `{}` (ego {:.1} m/s, {} actors) — matches the registry",
        scenario.name,
        scenario.ego_start.v,
        scenario.actors.len()
    );

    // 4. And a whole campaign whose scenarios come only from spec files
    //    (plans/dsl_from_file.toml cycles two file-loaded families).
    let (plan, report) = run("plans/dsl_from_file.toml");
    println!(
        "plan `{}` over file-loaded scenarios: {} runs, hazard rate {:.1}%",
        plan.name,
        report.jobs.len(),
        100.0 * report.hazard_rate()
    );
    assert_eq!(report.jobs.len(), 20);

    // 5. A module-level fault space; each run's outcome is a report row.
    let (plan, report) = run("plans/module_faults.toml");
    println!(
        "plan `{}`: {} module-fault runs, {} effective, {} hazardous outcomes",
        plan.name,
        report.jobs.len(),
        report.effective_injections(),
        report.jobs.iter().filter(|r| r.outcome.is_hazardous()).count()
    );
    assert_eq!(report.jobs.len(), 24);
    assert!(report.effective_injections() > 0, "module faults never landed");

    println!("\nevery campaign above ran from a .toml file — no recompilation.");
}
