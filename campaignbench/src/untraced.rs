//! The untraced repetition: one campaign through the public entry
//! points (`run_plan`, or `submit_plan` then `serve`), timed end to end,
//! then the output check.

use crate::plans::{stage_dirs, Plans, Workload, SERVE_ROOT};
use crate::stats::Digest;
use drivefi_plan::{
    run_plan, AdaptiveProgress, CampaignKind, CampaignPlan, PlanReport, PlanResult, JOBS_FILE,
    REPORT_FILE, ROUNDS_FILE,
};
use drivefi_serve::{serve, submit_plan, CampaignState, CampaignStatus, ServeConfig};
use drivefi_store::{read_manifest, read_store};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the output check found in a finished run directory.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Digest of every final `report.toml` + `jobs.csv` (+ `rounds.toml`).
    pub digest: String,
    /// Hazard + collision records across the final reports.
    pub hazards: u64,
    /// Records across the final reports.
    pub records: u64,
    /// Jobs simulated across every stage store.
    pub jobs: u64,
    /// Serve slices granted (served_mixed; 0 otherwise).
    pub slices: u64,
    /// Record-log bytes per record across every stage store.
    pub bytes_per_record: f64,
    /// The final reports, one per plan.
    pub reports: Vec<PlanReport>,
}

/// One untraced repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub checked: Checked,
}

/// The set-up an invocation pays before its first stage: every plan
/// parsed and its suite built, plus the submissions on served_mixed.
pub fn setup(plans: &Plans, serve_root: &Path) -> Result<(f64, Vec<CampaignPlan>), String> {
    let start = Instant::now();
    let mut parsed = Vec::new();
    for file in &plans.files {
        let plan = CampaignPlan::load(&file.path).map_err(|e| e.to_string())?;
        black_box(plan.scenarios.build_suite());
        parsed.push(plan);
    }
    if plans.workload == Workload::ServedMixed {
        for file in &plans.files {
            submit_plan(serve_root, &file.path).map_err(|e| e.to_string())?;
        }
    }
    Ok((start.elapsed().as_secs_f64(), parsed))
}

/// Empties (or creates) a run directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Runs the workload once in `run_dir` through the public entry points.
pub fn rep(plans: &Plans, run_dir: &Path) -> Result<Rep, String> {
    fresh_dir(run_dir)?;
    let serve_root = run_dir.join(SERVE_ROOT);
    let (setup_s, parsed) = setup(plans, &serve_root)?;
    memory::reset_peak();
    let start = Instant::now();
    let returned = match plans.workload {
        Workload::ServedMixed => {
            let config =
                ServeConfig { slice: plans.slice, poll_ms: 10, drain: true, max_rounds: None };
            let summary = serve(&serve_root, &config).map_err(|e| e.to_string())?;
            if summary.done != parsed.len() || summary.failed != 0 {
                return Err(format!("serve drained with {summary:?}"));
            }
            None
        }
        _ => match run_plan(&parsed[0]).map_err(|e| e.to_string())? {
            PlanResult::Persisted(report) => Some(report),
            other => return Err(format!("expected a persisted report, got {other:?}")),
        },
    };
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = memory::peak_mb();
    let checked = check(plans, run_dir)?;
    if let Some(report) = returned {
        if report != checked.reports[0] {
            return Err("the report run_plan returned differs from the saved one".into());
        }
    }
    Ok(Rep { setup_s, wall_s, peak_rss_mb, checked })
}

/// The output check: `PlanReport::load` accepts every final report (it
/// cross-checks the summary against the rows), every report is
/// complete, and the digest covers exactly the bytes the ROADMAP's
/// byte-identity contract names.
pub fn check(plans: &Plans, run_dir: &Path) -> Result<Checked, String> {
    let mut digest = Digest::new();
    let (mut hazards, mut records, mut jobs, mut slices) = (0, 0, 0, 0);
    let (mut log_bytes, mut logged) = (0u64, 0u64);
    let mut reports = Vec::new();
    for (file, root) in plans.files.iter().zip(plans.store_roots(run_dir)) {
        let plan = &file.plan;
        let report = PlanReport::load(&root).map_err(|e| e.to_string())?;
        if !report.complete() {
            return Err(format!("{}: the final report is not complete", root.display()));
        }
        let mut files = vec![REPORT_FILE, JOBS_FILE];
        if matches!(plan.kind, CampaignKind::Adaptive { .. }) {
            AdaptiveProgress::load(&root)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("{}: no {ROUNDS_FILE}", root.display()))?;
            files.push(ROUNDS_FILE);
        }
        digest.update(plan.name.as_bytes());
        for name in files {
            let path = root.join(name);
            let bytes =
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            digest.update(name.as_bytes());
            digest.update(&(bytes.len() as u64).to_le_bytes());
            digest.update(&bytes);
        }
        hazards += report.hazards() + report.collisions();
        records += report.jobs.len() as u64;
        for (dir, _) in stage_dirs(plan, &root) {
            let meta = read_manifest(&dir).map_err(|e| e.to_string())?;
            if !meta.complete {
                return Err(format!("{}: stage store is not sealed", dir.display()));
            }
            jobs += meta.total_jobs;
            logged += read_store(&dir).map_err(|e| e.to_string())?.1.len() as u64;
            for shard in 0..meta.shards {
                let path = dir.join(format!("shard-{shard:03}.log"));
                log_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
        if plans.workload == Workload::ServedMixed {
            let campaign = root.parent().expect("store root is inside its campaign directory");
            let status = CampaignStatus::load(campaign).map_err(|e| e.to_string())?;
            if status.state != CampaignState::Done {
                return Err(format!("{}: campaign is {:?}", campaign.display(), status.state));
            }
            slices += status.slices;
        }
        reports.push(report);
    }
    Ok(Checked {
        digest: digest.hex(),
        hazards,
        records,
        jobs,
        slices,
        bytes_per_record: log_bytes as f64 / logged.max(1) as f64,
        reports,
    })
}

/// Peak resident set, per repetition: Linux resets the high-water mark
/// on request.
mod memory {
    /// Resets the peak to the current resident set. A kernel that
    /// refuses leaves the process-wide peak, an upper bound.
    pub fn reset_peak() {
        std::fs::write("/proc/self/clear_refs", "5").ok();
    }

    /// The peak resident set since the last reset, in MiB; NaN without
    /// `/proc`.
    pub fn peak_mb() -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }
}
