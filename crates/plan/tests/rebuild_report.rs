//! The one reader of a campaign's stores: for every plan kind,
//! `rebuild_report` gives back, byte for byte, the report the pipeline
//! saved: after a complete run, after an interrupt mid-golden (the golden
//! fallback), and after one mid-sweep or mid-round, naming the store
//! that is incomplete. A store from a different plan is refused, and
//! `CampaignKind::stage_stores` lists each kind's stores.

use drivefi_fault::FaultSpace;
use drivefi_plan::{
    rebuild_report, round_dirs, run_plan, run_plan_budget, AdaptiveSection, CampaignKind,
    CampaignPlan, OutputSpec, PlanResult, RebuiltReport, ScenarioSelection, SimSection, JOBS_FILE,
    REPORT_FILE,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drivefi-rebuild-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A test-sized plan of `kind` over two paper scenarios, storing into
/// `dir`. Both scenarios run golden, so a budget of 1 stops a staged
/// pipeline mid-golden.
fn tiny(kind: CampaignKind, dir: &Path) -> CampaignPlan {
    CampaignPlan {
        name: format!("tiny-{}", kind.name()),
        kind,
        seed: 3,
        workers: Some(2),
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

const BATCH: usize = 4;

fn kinds() -> [CampaignKind; 5] {
    [
        CampaignKind::Random { runs: 6 },
        CampaignKind::Golden,
        CampaignKind::Mine { scene_stride: 50 },
        CampaignKind::Exhaustive { scene_stride: 60 },
        CampaignKind::Adaptive {
            scene_stride: 25,
            adaptive: AdaptiveSection { batch: BATCH, max_rounds: 8, converge_eps: 0.02 },
        },
    ]
}

fn bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let read = |file: &str| std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    (read(REPORT_FILE), read(JOBS_FILE))
}

/// Rebuilds `plan`'s report and checks it against the files the pipeline
/// saved where the reader says the report belongs.
fn rebuilds_the_saved_report(plan: &CampaignPlan, scratch: &Path) -> RebuiltReport {
    let rebuilt = rebuild_report(plan).unwrap_or_else(|e| panic!("{}: {e}", plan.name));
    std::fs::remove_dir_all(scratch).ok();
    rebuilt.report.save(scratch).unwrap();
    assert_eq!(bytes(scratch), bytes(&rebuilt.dir), "{}: rebuilt report differs", plan.name);
    assert_eq!(rebuilt.incomplete.is_some(), !rebuilt.report.complete(), "{}", plan.name);
    rebuilt
}

#[test]
fn the_rebuilt_report_is_the_one_the_pipeline_saved() {
    let dir = temp_dir("kinds");
    let scratch = dir.join("scratch");
    for kind in kinds() {
        let (full, part) = (dir.join(kind.name()).join("full"), dir.join(kind.name()).join("part"));
        let staged = kind.is_staged();

        // Complete: the report at the root, nothing incomplete.
        let plan = tiny(kind, &full);
        let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
        let rebuilt = rebuilds_the_saved_report(&plan, &scratch);
        assert_eq!((rebuilt.dir.as_path(), &rebuilt.report), (full.as_path(), &report));
        assert_eq!(rebuilt.incomplete, None);

        // Interrupted after one job: a staged pipeline is mid-golden, so
        // the reader falls back to the golden store, where the pipeline
        // saved its progress report.
        let plan = tiny(kind, &part);
        let PlanResult::Persisted(partial) = run_plan_budget(&plan, Some(1)).unwrap();
        let rebuilt = rebuilds_the_saved_report(&plan, &scratch);
        let first = if staged { part.join("golden") } else { part.clone() };
        assert_eq!(rebuilt.report, partial, "{}", plan.name);
        assert_eq!(rebuilt.dir, first, "{}", plan.name);
        assert_eq!(rebuilt.incomplete.as_ref(), Some(&first), "{}", plan.name);

        if staged {
            // Mid-sweep: the golden stage completes and one sweep job
            // runs. An adaptive campaign also finishes round-000 and
            // stops in round-001, so its two round stores concatenate.
            let sweep_jobs =
                if matches!(kind, CampaignKind::Adaptive { .. }) { BATCH + 1 } else { 1 };
            let PlanResult::Persisted(partial) =
                run_plan_budget(&plan, Some(1 + sweep_jobs as u64)).unwrap();
            let rebuilt = rebuilds_the_saved_report(&plan, &scratch);
            let sweep = kind.stage_stores(&part).pop().unwrap();
            assert_ne!(sweep, part.join("golden"), "{}: no sweep store", plan.name);
            assert_eq!((rebuilt.dir.as_path(), &rebuilt.report), (part.as_path(), &partial));
            assert_eq!(rebuilt.incomplete.as_ref(), Some(&sweep), "{}", plan.name);
            assert_eq!(partial.jobs.len(), sweep_jobs, "{}", plan.name);
        }

        // Resumed to the end: the uninterrupted run's report and bytes.
        let PlanResult::Persisted(resumed) = run_plan(&plan).unwrap();
        assert_eq!(resumed, report, "{}", plan.name);
        let rebuilt = rebuilds_the_saved_report(&plan, &scratch);
        assert_eq!(rebuilt.report, report, "{}", plan.name);
        assert_eq!(bytes(&part), bytes(&full), "{}", plan.name);

        // A plan that computes something else refuses these stores.
        let other = CampaignPlan { seed: plan.seed + 1, ..plan.clone() };
        let err = rebuild_report(&other).expect_err("a store from a different plan");
        assert!(err.to_string().contains("different plan"), "{}: {err}", plan.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_kind_lists_its_stage_stores() {
    let dir = temp_dir("layout");
    let root = dir.join("root");
    for kind in kinds() {
        let listed = |root: &Path| kind.stage_stores(root);
        let expected: Vec<PathBuf> = match kind {
            CampaignKind::Random { .. } | CampaignKind::Golden => vec![root.clone()],
            CampaignKind::Mine { .. } => vec![root.join("golden"), root.join("validate")],
            CampaignKind::Exhaustive { .. } => vec![root.join("golden"), root.join("sweep")],
            // No round has run under a fresh root.
            CampaignKind::Adaptive { .. } => vec![root.join("golden")],
        };
        assert_eq!(listed(&root), expected, "{}", kind.name());
    }

    // An adaptive root lists golden, then every round store on disk.
    let [.., adaptive] = kinds();
    let plan = tiny(adaptive, &root);
    run_plan(&plan).unwrap();
    let rounds = round_dirs(&root);
    assert!(rounds.len() >= 2, "the adaptive plan ran {} round(s)", rounds.len());
    let expected: Vec<PathBuf> = std::iter::once(root.join("golden")).chain(rounds).collect();
    assert_eq!(adaptive.stage_stores(&root), expected);

    // Without [output] there are no stores to read.
    let err = rebuild_report(&CampaignPlan { output: None, ..plan }).expect_err("no [output]");
    assert!(err.to_string().contains("[output]"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
