//! Persist, interrupt, resume: the campaign store end to end.
//!
//! Runs the shipped `plans/persistent_random.toml` three ways and
//! proves the headline guarantee of the persistence layer — a campaign
//! interrupted mid-run (here: a budget cap, then a deliberately *torn*
//! shard file) resumes to a report **byte-identical** to an
//! uninterrupted run's.
//!
//! ```text
//! cargo run --release --example persistent_campaign
//! ```

use drivefi::plan::{
    run_plan, run_plan_budget, CampaignPlan, OutputSpec, PlanResult, JOBS_FILE, REPORT_FILE,
};
use drivefi::store::read_store;
use std::path::Path;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch =
        std::env::temp_dir().join(format!("drivefi-example-store-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let mut plan =
        CampaignPlan::load(root.join("plans/persistent_random.toml")).expect("plan parses");
    let output = plan.output.as_ref().expect("plan has [output]").clone();

    // ------------------------------------------------------------------
    // 1. Uninterrupted run → the reference report files.
    // ------------------------------------------------------------------
    let full_dir = scratch.join("full");
    plan.output =
        Some(OutputSpec { dir: full_dir.to_string_lossy().into_owned(), ..output.clone() });
    let PlanResult::Persisted(full) = run_plan(&plan).expect("run");
    println!(
        "uninterrupted: {}/{} jobs, {} safe, {} hazards, {} collisions, hazard rate {:.4}",
        full.jobs.len(),
        full.total_jobs,
        full.safe(),
        full.hazards(),
        full.collisions(),
        full.hazard_rate()
    );

    // ------------------------------------------------------------------
    // 2. Interrupted run: budget cap at 15 jobs, then tear the tail off
    //    a shard file — the classic kill-9-mid-write artifact.
    // ------------------------------------------------------------------
    let part_dir = scratch.join("part");
    plan.output = Some(OutputSpec { dir: part_dir.to_string_lossy().into_owned(), ..output });
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(15)).expect("capped run");
    println!("interrupted  : {}/{} jobs persisted", partial.jobs.len(), partial.total_jobs);

    let shard = part_dir.join("shard-000.log");
    let len = std::fs::metadata(&shard).expect("shard exists").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&shard)
        .unwrap()
        .set_len(len - 7)
        .expect("tear the shard tail");
    println!("torn         : chopped 7 bytes off {} (mid-record)", shard.display());

    // ------------------------------------------------------------------
    // 3. Resume. Recovery truncates the torn record, the engine re-runs
    //    exactly the missing jobs, and the report files come out
    //    byte-identical to the uninterrupted run's.
    // ------------------------------------------------------------------
    let PlanResult::Persisted(resumed) = run_plan(&plan).expect("resume");
    assert!(resumed.complete());
    assert_eq!(resumed, full, "resumed report equals the uninterrupted one");
    for file in [REPORT_FILE, JOBS_FILE] {
        let a = std::fs::read(full_dir.join(file)).unwrap();
        let b = std::fs::read(part_dir.join(file)).unwrap();
        assert_eq!(a, b, "{file} must be byte-identical");
        println!(
            "verified     : {file} byte-identical across interrupt/resume ({} bytes)",
            a.len()
        );
    }

    // ------------------------------------------------------------------
    // 4. The store stays queryable after the fact.
    // ------------------------------------------------------------------
    let (meta, records) = read_store(&part_dir).expect("store reads back");
    let hazardous = records.iter().filter(|r| r.outcome.is_hazardous()).count();
    println!(
        "queried      : {} records (manifest complete = {}), {hazardous} hazardous",
        records.len(),
        meta.complete
    );

    std::fs::remove_dir_all(&scratch).ok();
    println!("✓ persistent campaign store round-trips through interrupt + torn-record resume");
}
