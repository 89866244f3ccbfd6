//! End-to-end observability properties: the `DRIVEFI_OBS` layer must
//! narrate a campaign's life faithfully *without ever touching its
//! results* — `report.toml`, `jobs.csv`, and the (compacted) shard
//! bytes are identical with observability on or off, and the event log
//! replays a coherent lifecycle across interrupts, torn tails, and
//! resumes.
//!
//! Observability is process-global (`DRIVEFI_OBS` + a test-only force
//! switch), so every test here serializes on one mutex.

use drivefi::fault::FaultSpace;
use drivefi::obs::{clear_force, force_enabled, read_events, EventLog, Field};
use drivefi::plan::{
    run_plan, run_plan_budget, CampaignKind, CampaignPlan, OutputSpec, PlanResult,
    ScenarioSelection, SimSection, CONTROL_FILE, JOBS_FILE, REPORT_FILE,
};
use drivefi::store::compact_store;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

const RUNS: usize = 6;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn plan_into(dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: "observed".into(),
        kind: CampaignKind::Random { runs: RUNS },
        seed: 23,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 5 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec {
            dir: dir.to_string_lossy().into_owned(),
            shards: 2,
            checkpoint_every: 2,
        }),
    }
}

fn artifact_bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join(REPORT_FILE)).expect("report.toml written"),
        std::fs::read(dir.join(JOBS_FILE)).expect("jobs.csv written"),
    )
}

/// Concatenated bytes of every `shard-*.log` under `dir`, in name order.
fn shard_bytes(dir: &Path) -> Vec<u8> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".log"))
        })
        .collect();
    paths.sort();
    paths.iter().flat_map(|p| std::fs::read(p).unwrap()).collect()
}

/// The acceptance-criteria loop: run → interrupt → resume → re-run with
/// observability on, then replay `events.jsonl` and check the lifecycle
/// is coherent — every stage finishes exactly once, the campaign
/// finishes exactly once, pauses and resumes are recorded, and the
/// sequence numbers stay strictly increasing across process-internal
/// reopens.
#[test]
fn events_replay_coherent_lifecycle_across_interrupts() {
    let _guard = obs_lock();
    force_enabled(true);
    let dir = std::env::temp_dir().join(format!("drivefi-obs-life-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let plan = plan_into(&dir);
    // Interrupt mid-campaign, then resume to completion.
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(2)).unwrap();
    assert!(!partial.complete());
    let PlanResult::Persisted(done) = run_plan(&plan).unwrap();
    assert!(done.complete());

    let events = read_events(&dir).unwrap();
    assert!(!events.is_empty(), "observability on: events.jsonl must exist");
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq not strictly increasing: {seqs:?}");

    let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("campaign_start"), 2, "one per invocation");
    assert_eq!(count("campaign_pause"), 1, "the interrupted invocation");
    assert_eq!(count("stage_finish"), 1, "the stage finishes exactly once");
    assert_eq!(count("campaign_finish"), 1, "the campaign finishes exactly once");
    assert_eq!(count("resume"), 1, "the second invocation resumed the store");
    assert_eq!(count("control_verdict"), 1, "random campaigns run one control job");
    assert!(count("checkpoint") >= 1);

    // The control verdict is also persisted (and survivable — the
    // unfaulted paper scenarios never crash on their own).
    assert!(dir.join(CONTROL_FILE).is_file());
    let verdict = events.iter().find(|e| e.kind == "control_verdict").unwrap();
    assert_eq!(verdict.bool_field("survivable"), Some(true));
    let finish = events.iter().find(|e| e.kind == "stage_finish").unwrap();
    assert_eq!(finish.str_field("stage"), Some("main"));
    assert_eq!(finish.int_field("records"), Some(RUNS as i64));

    // Re-running the already-complete campaign must not re-finish it.
    let PlanResult::Persisted(again) = run_plan(&plan).unwrap();
    assert!(again.complete());
    let events = read_events(&dir).unwrap();
    assert_eq!(events.iter().filter(|e| e.kind == "stage_finish").count(), 1);
    assert_eq!(events.iter().filter(|e| e.kind == "campaign_finish").count(), 1);

    clear_force();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Observability must be fingerprint-neutral in the strongest sense:
    /// an obs-on campaign — even one interrupted at a fuzzed point and
    /// resumed — produces `report.toml`, `jobs.csv`, and compacted shard
    /// bytes identical to an obs-off uninterrupted run's.
    #[test]
    fn obs_on_and_off_stores_are_byte_identical(
        case in any::<u32>(),
        interrupt_after in 1u64..(RUNS as u64),
    ) {
        let _guard = obs_lock();
        let root = std::env::temp_dir()
            .join(format!("drivefi-obs-ident-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let off_dir = root.join("off");
        let on_dir = root.join("on");

        force_enabled(false);
        let PlanResult::Persisted(off) = run_plan(&plan_into(&off_dir)).unwrap();
        prop_assert!(off.complete());
        prop_assert!(
            !off_dir.join("events.jsonl").exists(),
            "observability off: no event log"
        );

        force_enabled(true);
        let PlanResult::Persisted(_) =
            run_plan_budget(&plan_into(&on_dir), Some(interrupt_after)).unwrap();
        let PlanResult::Persisted(on) = run_plan(&plan_into(&on_dir)).unwrap();
        prop_assert!(on.complete());
        prop_assert!(on_dir.join("events.jsonl").exists());
        clear_force();

        prop_assert_eq!(artifact_bytes(&off_dir), artifact_bytes(&on_dir));
        // Shard append order varies with worker timing; compaction
        // rewrites pure job order, making the stores comparable bit
        // for bit.
        compact_store(&off_dir).unwrap();
        compact_store(&on_dir).unwrap();
        prop_assert_eq!(shard_bytes(&off_dir), shard_bytes(&on_dir));
        std::fs::remove_dir_all(&root).ok();
    }

    /// Crash-tolerance of the event log itself: truncate `events.jsonl`
    /// at an arbitrary byte offset (mid-line included), reopen, keep
    /// appending. The reader must skip the torn fragment, keep every
    /// intact line, and the sequence numbers must continue past the
    /// survivors instead of restarting.
    #[test]
    fn torn_event_log_tolerates_any_truncation(
        case in any::<u32>(),
        before in 1usize..12,
        after in 1usize..6,
        cut_pick in any::<u64>(),
    ) {
        let _guard = obs_lock();
        force_enabled(true);
        let dir = std::env::temp_dir()
            .join(format!("drivefi-obs-torn-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let mut log = EventLog::open(&dir);
        for i in 0..before {
            log.emit("tick", &[("i", Field::Int(i as i64))]);
        }
        drop(log);
        let path = dir.join("events.jsonl");
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = cut_pick % (len + 1);
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();
        let survivors = read_events(&dir).unwrap();

        let mut log = EventLog::open(&dir);
        for i in 0..after {
            log.emit("tock", &[("i", Field::Int(i as i64))]);
        }
        drop(log);
        clear_force();

        let events = read_events(&dir).unwrap();
        // Every pre-truncation survivor and every post-reopen event is
        // there; nothing else.
        prop_assert_eq!(events.len(), survivors.len() + after);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs: {:?}", seqs);
        prop_assert_eq!(
            events.iter().filter(|e| e.kind == "tock").count(),
            after,
            "appended events all survive the torn tail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
