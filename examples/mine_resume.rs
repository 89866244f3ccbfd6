//! The store-backed Bayesian mining pipeline, interrupted at every
//! stage and resumed from disk (paper §III-B as one resumable plan):
//!
//! 1. `kind = "mine"` runs golden → fit → mine → validate, persisting
//!    golden traces (`golden/trace-*.log`) and validation outcomes
//!    (`validate/shard-*.log`) under the plan's `[output]` dir.
//! 2. A budget cap interrupts the pipeline mid-golden-collection, on
//!    the fit boundary, and mid-candidate-sweep; each rerun resumes
//!    from the persisted stage stores — the 3-TBN re-fits *from the
//!    trace log*, never by re-simulating golden runs.
//! 3. The resumed run's `report.toml` + `jobs.csv` are byte-identical
//!    to an uninterrupted run's, and `compact_store` rewrites the
//!    shards into pure job order without changing a single read-back.
//!
//! Run with: `cargo run --release --example mine_resume`

use drivefi::plan::{
    run_plan, run_plan_budget, CampaignKind, CampaignPlan, OutputSpec, PlanResult,
    ScenarioSelection, SimSection, GOLDEN_SUBDIR, JOBS_FILE, REPORT_FILE, VALIDATE_SUBDIR,
};
use drivefi::store::{compact_store, read_store, read_traces};
use std::path::Path;

fn mine_plan(dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: "mine-resume-example".into(),
        kind: CampaignKind::Mine { scene_stride: 40 },
        seed: 0,
        workers: None,
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: drivefi::fault::FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec {
            dir: dir.to_string_lossy().into_owned(),
            shards: 2,
            checkpoint_every: 8,
        }),
    }
}

fn report_files(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join(REPORT_FILE)).expect("report.toml"),
        std::fs::read(dir.join(JOBS_FILE)).expect("jobs.csv"),
    )
}

fn main() {
    let base = std::env::temp_dir().join(format!("drivefi-mine-resume-{}", std::process::id()));
    let full_dir = base.join("full");
    let part_dir = base.join("part");
    std::fs::remove_dir_all(&base).ok();

    // Uninterrupted reference pipeline.
    let PlanResult::Persisted(full) = run_plan(&mine_plan(&full_dir)).expect("pipeline runs");
    println!(
        "uninterrupted: {} golden traces → |F_crit| = {} → {} hazards + {} collisions validated",
        read_traces(full_dir.join(GOLDEN_SUBDIR)).expect("trace log").1.len(),
        full.total_jobs,
        full.hazards(),
        full.collisions(),
    );

    // Interrupt mid-golden, on the fit boundary, then mid-sweep.
    let plan = mine_plan(&part_dir);
    let PlanResult::Persisted(p) = run_plan_budget(&plan, Some(1)).expect("budget run");
    println!("interrupt mid-golden:  {}/{} golden runs persisted", p.jobs.len(), p.total_jobs);
    let PlanResult::Persisted(p) = run_plan_budget(&plan, Some(1)).expect("budget run");
    println!(
        "interrupt at the fit:  golden complete, re-fit from trace shards mined {} candidates",
        p.total_jobs
    );
    let PlanResult::Persisted(p) =
        run_plan_budget(&plan, Some(full.total_jobs / 2)).expect("budget run");
    println!("interrupt mid-sweep:   {}/{} validations persisted", p.jobs.len(), p.total_jobs);

    // Resume to completion: byte-identical artifacts.
    let PlanResult::Persisted(resumed) = run_plan(&plan).expect("resume");
    assert!(resumed.complete());
    assert_eq!(
        report_files(&part_dir),
        report_files(&full_dir),
        "resumed report must be byte-identical"
    );
    println!("resumed:               report.toml + jobs.csv byte-identical to uninterrupted run");

    // Compact both stage stores; every read-back is unchanged.
    for subdir in [GOLDEN_SUBDIR, VALIDATE_SUBDIR] {
        let dir = part_dir.join(subdir);
        let before = read_store(&dir).expect("readable store");
        let meta = compact_store(&dir).expect("compaction");
        assert_eq!(read_store(&dir).expect("readable store"), before);
        println!(
            "compacted {subdir}/:    {} records now in pure job order{}",
            meta.checkpoint_records,
            if meta.traces { " (+ trace shards)" } else { "" }
        );
    }
    let (_, traces) = read_traces(part_dir.join(GOLDEN_SUBDIR)).expect("trace log");
    assert_eq!(traces.len(), 2, "compaction kept every golden trace");

    std::fs::remove_dir_all(&base).ok();
    println!("done.");
}
