//! Crash-resume property tests for the persistent campaign store: a
//! campaign interrupted mid-run — including one whose store was torn
//! mid-record at an arbitrary byte offset — must resume to a
//! [`PlanReport`] **byte-identical** to an uninterrupted run's.

use drivefi::fault::FaultSpace;
use drivefi::plan::{
    round_dirs, run_plan, run_plan_budget, AdaptiveSection, CampaignKind, CampaignPlan, OutputSpec,
    PlanResult, ScenarioSelection, SimSection, GOLDEN_SUBDIR, JOBS_FILE, REPORT_FILE, ROUNDS_FILE,
    VALIDATE_SUBDIR,
};
use drivefi::store::{compact_store, read_store, read_traces, MANIFEST_FILE};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const RUNS: usize = 8;

fn plan_into(dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: "crash-resume".into(),
        kind: CampaignKind::Random { runs: RUNS },
        seed: 11,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec {
            dir: dir.to_string_lossy().into_owned(),
            shards: 3,
            checkpoint_every: 2,
        }),
    }
}

fn run_to_files(dir: &Path, budget: Option<u64>) -> PlanResult {
    run_plan_budget(&plan_into(dir), budget).expect("plan runs")
}

fn report_bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join(REPORT_FILE)).expect("report.toml written"),
        std::fs::read(dir.join(JOBS_FILE)).expect("jobs.csv written"),
    )
}

fn shard_paths(dir: &Path) -> Vec<PathBuf> {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".log"))
        })
        .collect();
    shards.sort();
    shards
}

/// The uninterrupted baseline, computed once per process (each proptest
/// case re-running it would dominate the suite's wall clock).
fn baseline() -> &'static (Vec<u8>, Vec<u8>) {
    use std::sync::OnceLock;
    static BASELINE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("drivefi-crash-baseline-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let PlanResult::Persisted(report) = run_to_files(&dir, None);
        assert!(report.complete());
        let bytes = report_bytes(&dir);
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interrupt after a fuzzed number of jobs, tear a fuzzed shard at a
    /// fuzzed byte offset (mid-record included), resume, and compare the
    /// report files byte-for-byte against the uninterrupted run.
    #[test]
    fn torn_store_resumes_to_byte_identical_report(
        case in any::<u32>(),
        interrupt_after in 1u64..(RUNS as u64),
        shard_pick in any::<u64>(),
        cut_pick in any::<u64>(),
    ) {
        let (full_report, full_jobs) = baseline();
        let dir = std::env::temp_dir()
            .join(format!("drivefi-crash-{}-{case}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Interrupt via budget cap.
        let PlanResult::Persisted(partial) = run_to_files(&dir, Some(interrupt_after));
        prop_assert_eq!(partial.jobs.len() as u64, interrupt_after);

        // Tear a non-empty shard at a fuzzed offset past its header:
        // anywhere from "mid-record in the last frame" to "most of the
        // shard gone" — recovery must treat every cut as a torn tail.
        const HEADER: u64 = 16;
        let shards = shard_paths(&dir);
        let torn: Vec<&PathBuf> = shards
            .iter()
            .filter(|p| std::fs::metadata(p).unwrap().len() > HEADER)
            .collect();
        prop_assume!(!torn.is_empty());
        let victim = torn[(shard_pick % torn.len() as u64) as usize];
        let len = std::fs::metadata(victim).unwrap().len();
        let cut = HEADER + 1 + cut_pick % (len - HEADER - 1);
        std::fs::OpenOptions::new()
            .write(true)
            .open(victim)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // Resume: re-runs the torn-away jobs plus the never-run ones.
        let PlanResult::Persisted(resumed) = run_to_files(&dir, None);
        prop_assert!(resumed.complete());
        let (report, jobs) = report_bytes(&dir);
        prop_assert_eq!(&report, full_report, "report.toml drifted after torn-tail resume");
        prop_assert_eq!(&jobs, full_jobs, "jobs.csv drifted after torn-tail resume");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A store torn even before any interruption bookkeeping (manifest says
/// fewer records than the shards hold — the checkpoint lag window) still
/// resumes exactly: the shard scans are authoritative, not the manifest.
#[test]
fn resume_trusts_shards_not_the_checkpoint_counter() {
    let (full_report, full_jobs) = baseline();
    let dir = std::env::temp_dir().join(format!("drivefi-crash-manifest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    run_to_files(&dir, Some(5));

    // Rewind the manifest's checkpoint counter to zero, as if the crash
    // hit right after the first appends but before any checkpoint.
    let manifest = dir.join(MANIFEST_FILE);
    let src = std::fs::read_to_string(&manifest).unwrap();
    let rewound =
        src.lines()
            .map(|line| {
                if line.starts_with("checkpoint_records") {
                    "checkpoint_records = 0"
                } else {
                    line
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
    std::fs::write(&manifest, rewound + "\n").unwrap();

    let PlanResult::Persisted(resumed) = run_to_files(&dir, None);
    assert!(resumed.complete());
    let (report, jobs) = report_bytes(&dir);
    assert_eq!(&report, full_report);
    assert_eq!(&jobs, full_jobs);
    std::fs::remove_dir_all(&dir).ok();
}

fn mine_plan_into(dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: "mine-resume".into(),
        kind: CampaignKind::Mine { scene_stride: 50 },
        seed: 0,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec {
            dir: dir.to_string_lossy().into_owned(),
            shards: 2,
            checkpoint_every: 4,
        }),
    }
}

/// Concatenated bytes of every shard/trace log under a store directory —
/// the proxy for "no job was re-simulated": a resumed stage that re-ran
/// a completed job would append a duplicate record.
fn log_bytes(dir: &Path) -> Vec<u8> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .collect();
    paths.sort();
    paths.iter().flat_map(|p| std::fs::read(p).unwrap()).collect()
}

/// The acceptance-criteria loop: a `kind = "mine"` plan interrupted
/// mid-golden-collection, mid-fit, and mid-candidate-sweep resumes from
/// disk — without re-simulating completed jobs — to a final report
/// byte-identical to an uninterrupted run's, and `drivefi`-style
/// compaction leaves every read-back unchanged.
#[test]
fn mine_plan_resumes_every_stage_to_byte_identical_reports() {
    let dir = std::env::temp_dir().join(format!("drivefi-crash-mine-{}", std::process::id()));
    let full_dir = dir.join("full");
    let part_dir = dir.join("part");
    std::fs::remove_dir_all(&dir).ok();

    // Uninterrupted reference run.
    let PlanResult::Persisted(full) = run_plan(&mine_plan_into(&full_dir)).unwrap();
    assert!(full.complete());
    assert_eq!(full.kind, "mine");
    assert!(
        full.total_jobs > 2,
        "mining found {} candidates — too few to interrupt",
        full.total_jobs
    );
    assert!(full.jobs.iter().all(|r| r.fault.is_some()), "validation jobs carry mined faults");
    let full_bytes = report_bytes(&full_dir);

    // Interrupt 1: mid-golden (one of two golden jobs done). The
    // progress report lands inside the golden sub-store.
    let plan = mine_plan_into(&part_dir);
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(1)).unwrap();
    assert_eq!((partial.jobs.len(), partial.total_jobs), (1, 2), "mid-golden progress");
    assert!(!partial.complete());
    assert!(part_dir.join(GOLDEN_SUBDIR).join(REPORT_FILE).is_file());
    assert!(!part_dir.join(VALIDATE_SUBDIR).exists(), "validation must not have started");

    // Interrupt 2: the budget lands exactly on the golden boundary — the
    // "interrupted mid-fit" shape: golden complete, fit + mine recompute
    // from the persisted traces, zero validation jobs run.
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(1)).unwrap();
    assert_eq!(partial.total_jobs, full.total_jobs, "fit-from-store mined the same F_crit");
    assert_eq!(partial.jobs.len(), 0, "no validation budget left");
    let golden_after_fit = log_bytes(&part_dir.join(GOLDEN_SUBDIR));

    // A crash *during* the fit leaves golden complete and the validation
    // store half-created: wipe it (and the stale root report) entirely.
    std::fs::remove_dir_all(part_dir.join(VALIDATE_SUBDIR)).unwrap();
    std::fs::remove_file(part_dir.join(REPORT_FILE)).unwrap();
    std::fs::remove_file(part_dir.join(JOBS_FILE)).unwrap();

    // Interrupt 3: mid-candidate-sweep.
    let sweep_budget = full.total_jobs / 2;
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(sweep_budget)).unwrap();
    assert_eq!(partial.jobs.len() as u64, sweep_budget);
    assert!(!partial.complete());

    // Final resume: byte-identical report, golden logs untouched (the
    // fit re-read them; nothing golden was re-simulated).
    let PlanResult::Persisted(resumed) = run_plan(&plan).unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.jobs, full.jobs);
    assert_eq!(
        log_bytes(&part_dir.join(GOLDEN_SUBDIR)),
        golden_after_fit,
        "resume re-simulated golden jobs"
    );
    let (report, jobs) = report_bytes(&part_dir);
    assert_eq!(&report, &full_bytes.0, "report.toml drifted across staged interruptions");
    assert_eq!(&jobs, &full_bytes.1, "jobs.csv drifted across staged interruptions");

    // Compaction: reads and reports unchanged, bytes reordered.
    let golden_dir = part_dir.join(GOLDEN_SUBDIR);
    let validate_dir = part_dir.join(VALIDATE_SUBDIR);
    let before_golden = (read_store(&golden_dir).unwrap(), read_traces(&golden_dir).unwrap());
    let before_validate = read_store(&validate_dir).unwrap();
    compact_store(&golden_dir).unwrap();
    compact_store(&validate_dir).unwrap();
    assert_eq!(
        (read_store(&golden_dir).unwrap(), read_traces(&golden_dir).unwrap()),
        before_golden
    );
    assert_eq!(read_store(&validate_dir).unwrap(), before_validate);
    // Rerunning the (complete) plan after compaction rebuilds the exact
    // same report from the compacted shards.
    let PlanResult::Persisted(after) = run_plan(&plan).unwrap();
    assert_eq!(after, resumed);
    assert_eq!(report_bytes(&part_dir), full_bytes);
    std::fs::remove_dir_all(&dir).ok();
}

fn adaptive_plan_into(dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: "adaptive-resume".into(),
        kind: CampaignKind::Adaptive {
            scene_stride: 25,
            adaptive: AdaptiveSection { batch: 6, max_rounds: 8, converge_eps: 0.02 },
        },
        seed: 0,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 2, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec {
            dir: dir.to_string_lossy().into_owned(),
            shards: 2,
            checkpoint_every: 4,
        }),
    }
}

/// The acquisition loop's resume contract: a `kind = "adaptive"` plan
/// interrupted mid-golden and (twice) mid-round replays its posterior
/// from the round stores on disk, re-selects the half-finished round's
/// exact batch, and resumes — without re-simulating completed jobs — to
/// a report **and** acquisition trajectory (`rounds.toml`)
/// byte-identical to an uninterrupted run's.
#[test]
fn adaptive_plan_resumes_mid_round_to_byte_identical_reports() {
    let dir = std::env::temp_dir().join(format!("drivefi-crash-adaptive-{}", std::process::id()));
    let full_dir = dir.join("full");
    let part_dir = dir.join("part");
    std::fs::remove_dir_all(&dir).ok();

    // Uninterrupted reference run.
    let PlanResult::Persisted(full) = run_plan(&adaptive_plan_into(&full_dir)).unwrap();
    assert!(full.complete());
    assert_eq!(full.kind, "adaptive");
    let full_rounds = round_dirs(&full_dir);
    assert!(full_rounds.len() >= 2, "need at least two rounds to interrupt one mid-way");
    let full_bytes = report_bytes(&full_dir);
    let full_trajectory = std::fs::read(full_dir.join(ROUNDS_FILE)).unwrap();

    // Interrupt 1: mid-golden — no round swept yet, the progress report
    // lands inside the golden sub-store.
    let plan = adaptive_plan_into(&part_dir);
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(1)).unwrap();
    assert!(!partial.complete());
    assert!(part_dir.join(GOLDEN_SUBDIR).join(REPORT_FILE).is_file());
    assert!(round_dirs(&part_dir).is_empty(), "no acquisition round may start mid-golden");

    // Interrupt 2: mid-round-001 (golden done at 2, round-000 done at
    // 8, three jobs into the second round's six).
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(10)).unwrap();
    assert!(!partial.complete());
    assert_eq!(round_dirs(&part_dir).len(), 2, "round-001 is on disk, half-finished");
    let golden_after = log_bytes(&part_dir.join(GOLDEN_SUBDIR));
    let round0_after = log_bytes(&round_dirs(&part_dir)[0]);

    // Interrupt 3: still mid-round-001 — the resumed posterior replay
    // must re-select the same batch and extend the same round store.
    let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(2)).unwrap();
    assert!(!partial.complete());
    assert_eq!(round_dirs(&part_dir).len(), 2, "a resumed round must not fork a new one");

    // Final resume: byte-identical report and trajectory; neither the
    // golden logs nor round-000's were touched (nothing re-simulated).
    let PlanResult::Persisted(resumed) = run_plan(&plan).unwrap();
    assert!(resumed.complete());
    assert_eq!(resumed.jobs, full.jobs);
    assert_eq!(log_bytes(&part_dir.join(GOLDEN_SUBDIR)), golden_after, "golden re-simulated");
    assert_eq!(log_bytes(&round_dirs(&part_dir)[0]), round0_after, "round-000 re-simulated");
    assert_eq!(report_bytes(&part_dir), full_bytes, "report drifted across interruptions");
    assert_eq!(
        std::fs::read(part_dir.join(ROUNDS_FILE)).unwrap(),
        full_trajectory,
        "rounds.toml drifted across interruptions"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--max-jobs 0`: a zero budget opens (or creates) the store, runs
/// nothing, and leaves everything resumable — for both single-stage and
/// pipeline kinds.
#[test]
fn zero_budget_runs_nothing_and_stays_resumable() {
    let dir = std::env::temp_dir().join(format!("drivefi-crash-zero-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Random store-backed plan.
    let random_dir = dir.join("random");
    let PlanResult::Persisted(report) = run_plan_budget(&plan_into(&random_dir), Some(0)).unwrap();
    assert_eq!(report.jobs.len(), 0);
    assert!(!report.complete());
    assert!(random_dir.join(MANIFEST_FILE).is_file(), "store created even with a zero budget");
    let (report_toml, _) = report_bytes(&random_dir);
    assert!(
        String::from_utf8(report_toml).unwrap().contains("complete = false"),
        "report.toml records incompleteness"
    );
    let PlanResult::Persisted(resumed) = run_plan(&plan_into(&random_dir)).unwrap();
    assert!(resumed.complete());
    assert_eq!(report_bytes(&random_dir), *baseline());

    // Mine pipeline: a zero budget stops mid-golden with zero records.
    let mine_dir = dir.join("mine");
    let PlanResult::Persisted(report) =
        run_plan_budget(&mine_plan_into(&mine_dir), Some(0)).unwrap();
    assert_eq!((report.jobs.len(), report.total_jobs), (0, 2));
    assert!(mine_dir.join(GOLDEN_SUBDIR).join(MANIFEST_FILE).is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// Golden campaigns persist and resume through the same machinery.
#[test]
fn golden_plan_persists_and_resumes() {
    let dir = std::env::temp_dir().join(format!("drivefi-crash-golden-{}", std::process::id()));
    let full_dir = dir.join("full");
    let part_dir = dir.join("part");
    std::fs::remove_dir_all(&dir).ok();
    let golden_plan = |out: &Path| CampaignPlan {
        name: "golden-resume".into(),
        kind: CampaignKind::Golden,
        seed: 0,
        workers: Some(4),
        scenarios: ScenarioSelection::Paper { count: 3, seed: 42 },
        faults: FaultSpace::default(),
        sim: SimSection::default(),
        submit: Default::default(),
        control: Default::default(),
        output: Some(OutputSpec::new(out.to_string_lossy().into_owned())),
    };

    let PlanResult::Persisted(full) = run_plan(&golden_plan(&full_dir)).unwrap();
    assert!(full.complete());
    assert_eq!(full.kind, "golden");
    assert!(full.jobs.iter().all(|r| r.fault.is_none()));
    // Golden stores persist the traces themselves — the on-disk training
    // set the miner can fit from without re-simulating.
    let (meta, traces) = read_traces(&full_dir).unwrap();
    assert!(meta.traces);
    assert_eq!(traces.len(), 3);
    for (trace, record) in traces.iter().zip(&full.jobs) {
        assert_eq!(trace.frames.len() as u64, record.scenes);
    }

    let partial = run_plan_budget(&golden_plan(&part_dir), Some(1)).unwrap();
    let PlanResult::Persisted(partial) = partial;
    assert_eq!(partial.jobs.len(), 1);
    let PlanResult::Persisted(resumed) = run_plan(&golden_plan(&part_dir)).unwrap();
    // Reports embed no paths, so cross-directory equality holds outright.
    assert_eq!(resumed, full);
    std::fs::remove_dir_all(&dir).ok();
}

/// A complete store that lost records, or whose manifest was edited
/// afterwards, is corrupt, not interrupted and not complete: `read_store`,
/// which `drivefi report`, `query` and `compact` read through, refuses it.
/// A byte flipped mid-shard still resumes to the uninterrupted bytes.
#[test]
fn doctored_manifests_read_as_corrupt() {
    let dir = std::env::temp_dir().join(format!("drivefi-crash-doctored-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let plan_into = |out: &Path| {
        let mut plan = CampaignPlan::load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/plans/persistent_random.toml"
        ))
        .unwrap();
        plan.output.as_mut().unwrap().dir = out.to_string_lossy().into_owned();
        plan
    };
    let full = dir.join("full");
    let PlanResult::Persisted(report) = run_plan(&plan_into(&full)).unwrap();
    assert!(report.complete());
    let manifest = std::fs::read_to_string(full.join(MANIFEST_FILE)).unwrap();
    let copy_of_full = |name: &str| {
        let copy = dir.join(name);
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&full).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        copy
    };

    for (i, (line, doctored)) in [
        ("total_jobs = 40", "total_jobs = 30"),
        ("shards = 4", "shards = 8"),
        ("total_jobs = 40", "total_jobs = 50"),
        ("shards = 4", "shards = 2"),
        // Too many jobs to enumerate: the refusal must still be quick.
        ("total_jobs = 40", "total_jobs = 18446744073709551615"),
    ]
    .iter()
    .enumerate()
    {
        assert!(manifest.contains(line), "the shipped plan changed: {manifest}");
        let copy = copy_of_full(&format!("doctored-{i}"));
        std::fs::write(copy.join(MANIFEST_FILE), manifest.replace(line, doctored)).unwrap();
        let err = read_store(&copy).unwrap_err().to_string();
        assert!(err.contains("corrupt store"), "{doctored}: {err}");
        assert!(run_plan(&plan_into(&copy)).is_err(), "{doctored}: resumed a doctored store");
    }

    // One byte flipped halfway through a shard of the complete store.
    let flipped = copy_of_full("flipped");
    let shard = flipped.join("shard-001.log");
    let mut bytes = std::fs::read(&shard).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xFF;
    std::fs::write(&shard, &bytes).unwrap();
    let err = read_store(&flipped).unwrap_err().to_string();
    for needle in ["corrupt store", "shard 001", "missing jobs"] {
        assert!(err.contains(needle), "flipped store: no `{needle}` in {err}");
    }
    // Compaction refuses it and rewrites nothing.
    let logs = log_bytes(&flipped);
    assert!(compact_store(&flipped).is_err(), "compacted a corrupt store");
    assert_eq!(log_bytes(&flipped), logs, "a refused compaction changed the shards");
    // Resuming drops the bad frame's tail and re-runs the jobs behind it.
    let PlanResult::Persisted(resumed) = run_plan(&plan_into(&flipped)).unwrap();
    assert_eq!(resumed, report);
    assert_eq!(report_bytes(&flipped), report_bytes(&full));
    std::fs::remove_dir_all(&dir).ok();
}
