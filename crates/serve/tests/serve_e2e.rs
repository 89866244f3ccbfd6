//! Daemon end-to-end, in process: two concurrently submitted plans
//! scheduled fair-share to completion must produce `report.toml` +
//! `jobs.csv` byte-identical to standalone `run_plan` invocations of
//! the same plans — including across a daemon "crash" at a slice
//! boundary (a `max_rounds`-bounded serve followed by a fresh one,
//! exactly the state a `kill -9` leaves behind modulo the torn slice
//! the store recovers; the real-kill variant lives in CI).

use drivefi_plan::{run_plan_budget, CampaignPlan, OutputSpec, PlanResult, JOBS_FILE, REPORT_FILE};
use drivefi_serve::{
    serve, submit_plan, CampaignState, CampaignStatus, ServeConfig, CAMPAIGNS_DIR, PLAN_FILE,
};
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drivefi-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small random plan. `weight` lands in `[submit]`; runs stay small
/// enough that the whole suite is a couple of engine seconds.
fn random_plan(name: &str, runs: u32, seed: u64, weight: u32) -> String {
    let submit =
        if weight == 1 { String::new() } else { format!("\n[submit]\nweight = {weight}\n") };
    format!(
        "name = \"{name}\"\n\n[campaign]\nkind = \"random\"\nruns = {runs}\nseed = {seed}\n\n\
         [scenarios]\nsource = \"paper\"\ncount = 2\nseed = 7\n{submit}"
    )
}

fn write_plan(dir: &Path, file: &str, text: &str) -> PathBuf {
    let path = dir.join(file);
    std::fs::write(&path, text).unwrap();
    path
}

/// Standalone reference: the same plan text run to completion into its
/// own store, the way `drivefi run` would.
fn standalone_report(plan_path: &Path, out: &Path) -> (Vec<u8>, Vec<u8>) {
    let mut plan = CampaignPlan::load(plan_path).unwrap();
    let spec = plan.output.take().unwrap_or_else(|| OutputSpec::new(""));
    plan.output = Some(OutputSpec { dir: out.display().to_string(), ..spec });
    let PlanResult::Persisted(report) = run_plan_budget(&plan, None).unwrap();
    assert!(report.complete());
    (std::fs::read(out.join(REPORT_FILE)).unwrap(), std::fs::read(out.join(JOBS_FILE)).unwrap())
}

fn served_artifacts(root: &Path, id: &str) -> (Vec<u8>, Vec<u8>) {
    let store = root.join(CAMPAIGNS_DIR).join(id).join("store");
    (std::fs::read(store.join(REPORT_FILE)).unwrap(), std::fs::read(store.join(JOBS_FILE)).unwrap())
}

#[test]
fn two_submissions_drain_to_standalone_identical_reports() {
    let root = temp_root("drain");
    let a = write_plan(&root, "a.toml", &random_plan("alpha", 9, 11, 1));
    let b = write_plan(&root, "b.toml", &random_plan("beta", 7, 22, 1));
    assert_eq!(submit_plan(&root, &a).unwrap(), "alpha");
    assert_eq!(submit_plan(&root, &b).unwrap(), "beta");

    let config = ServeConfig { slice: 3, drain: true, ..ServeConfig::default() };
    let summary = serve(&root, &config).unwrap();
    assert_eq!((summary.admitted, summary.done, summary.failed), (2, 2, 0));

    for (plan_path, id) in [(&a, "alpha"), (&b, "beta")] {
        let reference = temp_root(&format!("drain-ref-{id}"));
        let (ref_report, ref_jobs) = standalone_report(plan_path, &reference);
        let (report, jobs) = served_artifacts(&root, id);
        assert_eq!(report, ref_report, "{id}: report.toml diverged from standalone");
        assert_eq!(jobs, ref_jobs, "{id}: jobs.csv diverged from standalone");

        let status = CampaignStatus::load(&root.join(CAMPAIGNS_DIR).join(id)).unwrap();
        assert_eq!(status.state, CampaignState::Done);
        assert_eq!(status.done, status.total);
        assert_eq!(status.safe + status.hazards + status.collisions, status.total);
        std::fs::remove_dir_all(&reference).ok();
    }
    // Sealed stores were compacted between rounds and marked.
    assert!(root.join(CAMPAIGNS_DIR).join("alpha/store/.compacted").is_file());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn interrupted_daemon_resumes_to_identical_bytes() {
    let root = temp_root("interrupt");
    let plan = write_plan(&root, "p.toml", &random_plan("resumable", 10, 33, 1));
    submit_plan(&root, &plan).unwrap();

    // Bounded first daemon: enough rounds for partial progress only.
    let partial = ServeConfig { slice: 2, max_rounds: Some(2), ..ServeConfig::default() };
    serve(&root, &partial).unwrap();
    let dir = root.join(CAMPAIGNS_DIR).join("resumable");
    let status = CampaignStatus::load(&dir).unwrap();
    assert_eq!(status.state, CampaignState::Running);
    assert_eq!(status.done, 4, "2 rounds x slice 2");
    assert_eq!(status.slices, 2);

    // Fresh daemon over the same root: recovers the campaign from disk
    // (nothing left in the spool) and drains it.
    let drain = ServeConfig { slice: 4, drain: true, ..ServeConfig::default() };
    let summary = serve(&root, &drain).unwrap();
    assert_eq!((summary.admitted, summary.done), (1, 1));
    let status = CampaignStatus::load(&dir).unwrap();
    assert_eq!(status.state, CampaignState::Done);
    assert!(status.slices > 2, "slice count survives the restart");

    let reference = temp_root("interrupt-ref");
    let (ref_report, ref_jobs) = standalone_report(&plan, &reference);
    let (report, jobs) = served_artifacts(&root, "resumable");
    assert_eq!(report, ref_report);
    assert_eq!(jobs, ref_jobs);
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn submit_weight_scales_the_per_round_share() {
    let root = temp_root("weight");
    let light = write_plan(&root, "l.toml", &random_plan("light", 8, 1, 1));
    let heavy = write_plan(&root, "h.toml", &random_plan("heavy", 8, 1, 3));
    submit_plan(&root, &light).unwrap();
    submit_plan(&root, &heavy).unwrap();

    let one_round = ServeConfig { slice: 2, max_rounds: Some(1), ..ServeConfig::default() };
    serve(&root, &one_round).unwrap();

    let light_status = CampaignStatus::load(&root.join(CAMPAIGNS_DIR).join("light")).unwrap();
    let heavy_status = CampaignStatus::load(&root.join(CAMPAIGNS_DIR).join("heavy")).unwrap();
    assert_eq!(light_status.done, 2, "weight 1 x slice 2");
    assert_eq!(heavy_status.done, 6, "weight 3 x slice 2");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_failing_campaign_never_blocks_the_others() {
    let root = temp_root("failure");
    // A plan that parses but cannot run under the daemon: an unreadable
    // plan file dropped straight into campaigns/ (bypassing submission
    // validation, as a partial rsync or hand edit would).
    let bad = root.join(CAMPAIGNS_DIR).join("broken");
    std::fs::create_dir_all(&bad).unwrap();
    std::fs::write(bad.join(PLAN_FILE), "name = \"broken\"\n[campaign]\nkind = \"wat\"\n").unwrap();

    let good = write_plan(&root, "g.toml", &random_plan("good", 5, 44, 1));
    submit_plan(&root, &good).unwrap();

    let config = ServeConfig { slice: 8, drain: true, ..ServeConfig::default() };
    let summary = serve(&root, &config).unwrap();
    assert_eq!((summary.admitted, summary.done, summary.failed), (2, 1, 1));

    let broken = CampaignStatus::load(&bad).unwrap();
    assert_eq!(broken.state, CampaignState::Failed);
    assert!(broken.error.is_some());
    // The failure verdict is trusted across restarts: a second daemon
    // does not grind on the broken plan again.
    let summary = serve(&root, &config).unwrap();
    assert_eq!((summary.done, summary.failed), (1, 1));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn mine_pipeline_reports_stage_transitions_and_drains() {
    let root = temp_root("mine");
    // Pipeline kinds insist on an [output] section at parse time; the
    // daemon overrides its dir with the campaign's own store.
    let plan_text = "name = \"served-mine\"\n\n[campaign]\nkind = \"mine\"\nscene_stride = 25\n\
                     seed = 0\n\n[scenarios]\nsource = \"paper\"\ncount = 2\nseed = 42\n\n\
                     [output]\ndir = \"out/served_mine\"\nshards = 2\ncheckpoint_every = 16\n";
    let plan = write_plan(&root, "m.toml", plan_text);
    submit_plan(&root, &plan).unwrap();

    // One slice of one job: only golden-stage progress exists.
    let first = ServeConfig { slice: 1, max_rounds: Some(1), ..ServeConfig::default() };
    serve(&root, &first).unwrap();
    let dir = root.join(CAMPAIGNS_DIR).join("served-mine");
    let status = CampaignStatus::load(&dir).unwrap();
    assert_eq!(status.state, CampaignState::Running);
    assert_eq!(status.stage, "golden");
    assert_eq!((status.done, status.total), (1, 2));

    // Drain the pipeline; the final stage is the validate sub-store.
    let drain = ServeConfig { slice: 64, drain: true, ..ServeConfig::default() };
    let summary = serve(&root, &drain).unwrap();
    assert_eq!((summary.done, summary.failed), (1, 0));
    let status = CampaignStatus::load(&dir).unwrap();
    assert_eq!(status.state, CampaignState::Done);
    assert_eq!(status.stage, "validate");
    assert_eq!(status.done, status.total);

    let reference = temp_root("mine-ref");
    let (ref_report, ref_jobs) = standalone_report(&plan, &reference);
    let (report, jobs) = served_artifacts(&root, "served-mine");
    assert_eq!(report, ref_report);
    assert_eq!(jobs, ref_jobs);
    // Both stage stores were sealed and compacted.
    assert!(dir.join("store/golden/.compacted").is_file());
    assert!(dir.join("store/validate/.compacted").is_file());
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_corrupt_sealed_store_fails_its_campaign_for_good() {
    let root = temp_root("corrupt");
    let plan = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans/persistent_random.toml");
    let id = submit_plan(&root, &plan).unwrap();
    let drain = ServeConfig { slice: 64, drain: true, ..ServeConfig::default() };
    assert_eq!(serve(&root, &drain).unwrap().done, 1);
    let dir = root.join(CAMPAIGNS_DIR).join(&id);
    let store = dir.join("store");

    // Damage the sealed store: one byte halfway through shard 1, and
    // the marker that says it was compacted goes.
    let shard = store.join("shard-001.log");
    let mut bytes = std::fs::read(&shard).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xFF;
    std::fs::write(&shard, &bytes).unwrap();
    std::fs::remove_file(store.join(".compacted")).unwrap();

    // The next daemon's compactor refuses the store and fails the
    // campaign; later rounds and daemons leave it failed.
    let rounds = ServeConfig { poll_ms: 1, max_rounds: Some(3), ..ServeConfig::default() };
    for _ in 0..2 {
        let summary = serve(&root, &rounds).unwrap();
        assert_eq!((summary.done, summary.failed), (0, 1));
        let status = CampaignStatus::load(&dir).unwrap();
        assert_eq!(status.state, CampaignState::Failed);
        let error = status.error.unwrap_or_default();
        assert!(error.contains("corrupt store"), "{error}");
        assert_eq!(std::fs::read(&shard).unwrap(), bytes, "the refused shard is left as it was");
        assert!(!store.join(".compacted").exists());
    }
    std::fs::remove_dir_all(&root).ok();
}
