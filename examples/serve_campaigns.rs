//! The campaign daemon end to end: submit, serve, kill, resume.
//!
//! Submits two campaigns (the shipped `plans/persistent_random.toml`,
//! twice — the spool deduplicates the id) to a serve root, runs a
//! deliberately *bounded* daemon that stops mid-campaign (the state a
//! `kill -9` leaves behind, modulo a torn slice the store recovers),
//! prints the live `status.toml` progress, then drains with a fresh
//! daemon and proves the headline guarantee: every served campaign's
//! `report.toml` + `jobs.csv` are **byte-identical** to a standalone
//! `run_plan` of the same plan.
//!
//! ```text
//! cargo run --release --example serve_campaigns
//! ```

use drivefi::plan::{run_plan, CampaignPlan, OutputSpec, PlanResult, JOBS_FILE, REPORT_FILE};
use drivefi::serve::{serve, submit_plan, CampaignStatus, ServeConfig, CAMPAIGNS_DIR};
use std::path::Path;

fn main() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch =
        std::env::temp_dir().join(format!("drivefi-serve-example-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let root = scratch.join("serve_root");
    let plan_path = repo.join("plans/persistent_random.toml");

    // ------------------------------------------------------------------
    // 1. Submit: two campaigns from one plan file. Submission validates
    //    the plan client-side and spools it under a unique id.
    // ------------------------------------------------------------------
    let first = submit_plan(&root, &plan_path).expect("submit");
    let second = submit_plan(&root, &plan_path).expect("submit");
    println!("submitted: {first}, {second}");
    assert_eq!((first.as_str(), second.as_str()), ("persistent-random", "persistent-random-2"));

    // ------------------------------------------------------------------
    // 2. A bounded daemon: three fair-share rounds of 4-job slices,
    //    then exit — both campaigns are mid-flight, checkpointed.
    // ------------------------------------------------------------------
    let bounded = ServeConfig { slice: 4, max_rounds: Some(3), ..ServeConfig::default() };
    let summary = serve(&root, &bounded).expect("serve");
    println!("bounded daemon: {} rounds, {} campaigns admitted", summary.rounds, summary.admitted);
    for id in [&first, &second] {
        let status = CampaignStatus::load(&root.join(CAMPAIGNS_DIR).join(id)).expect("status");
        println!(
            "  {id}: {} [{}] {}/{} jobs, {} slices{}",
            status.state.name(),
            status.stage,
            status.done,
            status.total,
            status.slices,
            status.eta_seconds.map(|s| format!(", eta {s}s")).unwrap_or_default(),
        );
        assert!(status.done < status.total, "daemon was supposed to stop mid-campaign");
    }

    // ------------------------------------------------------------------
    // 3. A fresh daemon over the same root recovers the half-run
    //    campaigns from disk and drains them to completion.
    // ------------------------------------------------------------------
    let drain = ServeConfig { drain: true, ..ServeConfig::default() };
    let summary = serve(&root, &drain).expect("drain");
    println!("drain daemon: {} done, {} failed", summary.done, summary.failed);
    assert_eq!((summary.done, summary.failed), (2, 0));

    // ------------------------------------------------------------------
    // 4. The guarantee: served artifacts == standalone artifacts, byte
    //    for byte, for both campaigns.
    // ------------------------------------------------------------------
    let mut reference = CampaignPlan::load(&plan_path).expect("plan parses");
    let ref_dir = scratch.join("standalone");
    let spec = reference.output.take().expect("plan has [output]");
    reference.output = Some(OutputSpec { dir: ref_dir.to_string_lossy().into_owned(), ..spec });
    let PlanResult::Persisted(report) = run_plan(&reference).expect("standalone run");
    assert!(report.complete());

    for id in [&first, &second] {
        let store = root.join(CAMPAIGNS_DIR).join(id).join("store");
        for file in [REPORT_FILE, JOBS_FILE] {
            let served = std::fs::read(store.join(file)).expect("served artifact");
            let standalone = std::fs::read(ref_dir.join(file)).expect("standalone artifact");
            assert_eq!(served, standalone, "{id}/{file} diverged from the standalone run");
        }
        println!("{id}: report.toml + jobs.csv byte-identical to the standalone run");
    }

    std::fs::remove_dir_all(&scratch).ok();
    println!("serve round trip complete");
}
