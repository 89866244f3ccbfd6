//! Fair-share scheduling: one job-budget slice per campaign per round.
//!
//! The scheduler owns no execution machinery of its own — each slice
//! is one [`run_plan_budget`] call, which resumes the campaign from
//! its persistent store, runs at most `slice × weight` *pending* jobs
//! across the shared worker pool, and checkpoints back to disk. That
//! makes every property the daemon needs someone else's theorem:
//!
//! * **Fairness** is round-robin over admitted campaigns, weighted by
//!   `[submit] weight` — a weight-8 campaign gets 8× the pending-job
//!   budget per round, not priority, so nothing starves.
//! * **Preemption** is free: a slice boundary is a store checkpoint,
//!   so `kill -9` at any instant loses at most one in-flight slice,
//!   and the next daemon (or a standalone `drivefi resume`) continues
//!   from the store. Reports are byte-identical either way, because
//!   job records never depend on scheduling.
//! * **Isolation** is the store's lease: a slice holds the campaign's
//!   lease only while it runs, and compaction takes the lease first,
//!   so the in-between-rounds compactor and any outside
//!   `drivefi compact` are refused rather than racing a writer.
//!
//! Between rounds the daemon compacts at most one *sealed* stage store
//! (manifest marked complete — a finished single-stage campaign, or a
//! pipeline's golden store once its stage is done), marking each with
//! a `.compacted` file so restarts don't redo the work. A sealed store
//! whose shards lost records is corrupt: compaction refuses it and
//! rewrites nothing, and the campaign fails with that refusal.

use crate::spool::{claim_submissions, CAMPAIGNS_DIR, PLAN_FILE, SPOOL_DIR};
use crate::status::{CampaignState, CampaignStatus};
use crate::ServeError;
use drivefi_plan::{run_plan_budget, CampaignPlan, OutputSpec, PlanReport, PlanResult};
use drivefi_store::{compact_store, read_manifest, MANIFEST_FILE};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Unix wall-clock milliseconds, for the status file's `updated_ms`.
fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Stamps the status's freshness and writes it — every scheduler-side
/// status write goes through here so `drivefi status` can always tell
/// how long ago the daemon last touched a campaign.
fn save_status(status: &mut CampaignStatus, dir: &Path) {
    status.updated_ms = Some(wall_ms());
    status.save(dir).ok();
}

/// Store directory name inside a campaign directory.
pub const STORE_DIR: &str = "store";
/// Marker file inside a sealed stage store once it has been compacted.
const COMPACTED_MARKER: &str = ".compacted";

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pending-job budget per weight unit per round.
    pub slice: u64,
    /// Idle poll period, in milliseconds, while watching the spool.
    pub poll_ms: u64,
    /// Exit once the spool is empty and every campaign is done or
    /// failed, instead of watching forever.
    pub drain: bool,
    /// Stop after this many scheduler rounds (for tests and bounded
    /// runs); `None` runs until drained or killed.
    pub max_rounds: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { slice: 32, poll_ms: 250, drain: false, max_rounds: None }
    }
}

/// What a [`serve`] invocation did before returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Scheduler rounds executed (idle polls included).
    pub rounds: u64,
    /// Campaigns admitted over the daemon's lifetime (recovered ones
    /// included).
    pub admitted: usize,
    /// Campaigns in the done state at exit.
    pub done: usize,
    /// Campaigns in the failed state at exit.
    pub failed: usize,
}

/// One admitted campaign, as the scheduler tracks it.
struct Campaign {
    dir: PathBuf,
    /// `None` when the plan failed to parse — the campaign is failed
    /// and never scheduled.
    plan: Option<CampaignPlan>,
    status: CampaignStatus,
    /// Rate-observation baseline for the ETA: set at this session's
    /// first slice, reset when the reported stage changes.
    session: Option<(String, u64, Instant)>,
}

impl Campaign {
    fn active(&self) -> bool {
        matches!(self.status.state, CampaignState::Queued | CampaignState::Running)
    }
}

/// The store root the daemon forces onto every admitted plan. The plan
/// may carry its own `[output]` section — its shard count and
/// checkpoint period are kept, but the directory is always the
/// campaign's own, so submissions can never write over each other. The
/// campaign fingerprint excludes `[output]`, so the final report still
/// matches a standalone run of the original plan byte for byte.
fn force_output(plan: &mut CampaignPlan, dir: &Path) {
    let store = dir.join(STORE_DIR);
    let spec = plan.output.take().unwrap_or_else(|| OutputSpec::new(""));
    plan.output = Some(OutputSpec { dir: store.display().to_string(), ..spec });
}

/// The store root [`force_output`] gave an admitted plan.
fn store_root(plan: &CampaignPlan) -> PathBuf {
    PathBuf::from(&plan.output.as_ref().expect("serve plans always have output").dir)
}

/// Admits the campaign directory `dir`: parses its plan, forces the
/// store location, and reconciles state with whatever a previous
/// daemon left behind (a complete report, a persisted failure, or
/// partial stores to resume).
fn admit(dir: PathBuf) -> Campaign {
    let prior = CampaignStatus::load(&dir).ok();
    let slices = prior.as_ref().map_or(0, |s| s.slices);
    // The previous daemon's observed rate survives the restart so the
    // first slice of this session already carries a sane ETA.
    let prior_rate = prior.as_ref().and_then(|s| s.rate_millijobs_per_s);

    let mut plan = match CampaignPlan::load(dir.join(PLAN_FILE)) {
        Ok(plan) => plan,
        Err(e) => {
            let mut status =
                prior.unwrap_or_else(|| CampaignStatus::queued(dir_id(&dir), "unknown"));
            status.state = CampaignState::Failed;
            status.error = Some(e.to_string());
            save_status(&mut status, &dir);
            return Campaign { dir, plan: None, status, session: None };
        }
    };
    force_output(&mut plan, &dir);

    let mut status = CampaignStatus::queued(plan.name.clone(), plan.kind.name());
    status.slices = slices;
    status.rate_millijobs_per_s = prior_rate;
    // A deterministic failure would fail again on every retry; trust
    // the persisted verdict (delete status.toml to retry).
    if let Some(prior) = prior {
        if prior.state == CampaignState::Failed {
            status = prior;
            status.state = CampaignState::Failed;
            return Campaign { dir, plan: Some(plan), status, session: None };
        }
    }
    // A previous daemon may have finished this campaign already.
    if let Ok(report) = PlanReport::load(store_root(&plan)) {
        if report.complete() {
            apply_report(&mut status, &plan, &report);
        }
    }
    save_status(&mut status, &dir);
    Campaign { dir, plan: Some(plan), status, session: None }
}

fn dir_id(dir: &Path) -> String {
    dir.file_name().map_or_else(|| "campaign".into(), |n| n.to_string_lossy().into_owned())
}

/// Folds one slice's returned progress report into the status: stage,
/// counters, and the done transition ([`PlanReport::complete`] is only
/// ever true for the *final* stage's report — a pipeline interrupted
/// mid-golden returns the golden store's necessarily-incomplete one).
fn apply_report(status: &mut CampaignStatus, plan: &CampaignPlan, report: &PlanReport) {
    status.done = report.jobs.len() as u64;
    status.total = report.total_jobs;
    status.safe = report.safe();
    status.hazards = report.hazards();
    status.collisions = report.collisions();
    // A single-stage campaign's one store is its root, reported as
    // "main". A pipeline is in its golden stage until that seals, then in
    // its newest sweep store: `validate`, `sweep`, or `round-000`,
    // `round-001`, … walking by as the acquisition loop progresses.
    let root = store_root(plan);
    let stores = plan.kind.stage_stores(&root);
    status.stage = match stores.split_first() {
        Some((golden, sweep)) if *golden != root => {
            let sealed = read_manifest(golden).is_ok_and(|meta| meta.complete);
            let current = if sealed { sweep.last().unwrap_or(golden) } else { golden };
            current.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned())
        }
        _ => "main".into(),
    };
    status.state = if report.complete() { CampaignState::Done } else { CampaignState::Running };
    if status.state == CampaignState::Done {
        status.eta_seconds = None;
    }
}

/// Grants the campaign one scheduling slice of `slice × weight`
/// pending jobs and refreshes its status file.
fn run_slice(campaign: &mut Campaign, slice: u64) {
    let Some(plan) = &campaign.plan else { return };
    let budget = slice.saturating_mul(u64::from(plan.submit.weight)).max(1);
    campaign.status.slices += 1;
    match run_plan_budget(plan, Some(budget)) {
        Ok(PlanResult::Persisted(report)) => {
            apply_report(&mut campaign.status, plan, &report);
            // ETA from this session's observed rate, stage-local so a
            // pipeline's stage hand-off doesn't skew it.
            match &campaign.session {
                Some((stage, base, since)) if *stage == campaign.status.stage => {
                    let progressed = campaign.status.done.saturating_sub(*base);
                    let remaining = campaign.status.total.saturating_sub(campaign.status.done);
                    if progressed > 0 && campaign.status.state == CampaignState::Running {
                        let elapsed = since.elapsed().as_secs_f64();
                        let rate = progressed as f64 / elapsed.max(1e-6);
                        campaign.status.eta_seconds = Some((remaining as f64 / rate).ceil() as u64);
                        campaign.status.rate_millijobs_per_s = Some((rate * 1000.0).ceil() as u64);
                    }
                }
                _ => {
                    campaign.session =
                        Some((campaign.status.stage.clone(), campaign.status.done, Instant::now()));
                    // No observations this session yet — seed the ETA
                    // from the rate a previous daemon persisted.
                    let remaining = campaign.status.total.saturating_sub(campaign.status.done);
                    if campaign.status.state == CampaignState::Running && remaining > 0 {
                        if let Some(rate) = campaign.status.rate_millijobs_per_s.filter(|r| *r > 0)
                        {
                            campaign.status.eta_seconds =
                                Some(remaining.saturating_mul(1000).div_ceil(rate));
                        }
                    }
                }
            }
        }
        Err(e) => {
            campaign.status.state = CampaignState::Failed;
            campaign.status.error = Some(e.to_string());
        }
    }
    save_status(&mut campaign.status, &campaign.dir);
}

/// Compacts at most one sealed, not-yet-compacted stage store across
/// all campaigns. Returns true when it did work. A compaction refused
/// by a live lease (an outside writer resumed the store by hand) is
/// left for a later round rather than treated as fatal. A store the
/// compactor finds corrupt fails its campaign, with the refusal as the
/// status error: no later round can mend it, so none retries it.
fn compact_one(campaigns: &mut [Campaign]) -> bool {
    for campaign in campaigns.iter_mut().filter(|c| c.status.state != CampaignState::Failed) {
        let Some(plan) = &campaign.plan else { continue };
        for dir in plan.kind.stage_stores(&store_root(plan)) {
            if !dir.join(MANIFEST_FILE).is_file() || dir.join(COMPACTED_MARKER).is_file() {
                continue;
            }
            let sealed = read_manifest(&dir).is_ok_and(|meta| meta.complete);
            if !sealed {
                continue;
            }
            match compact_store(&dir) {
                Ok(_) => {
                    std::fs::write(dir.join(COMPACTED_MARKER), b"").ok();
                    return true;
                }
                Err(e) if e.is_corrupt() => {
                    eprintln!("drivefi serve: campaign {} failed: {e}", campaign.status.name);
                    campaign.status.state = CampaignState::Failed;
                    campaign.status.error = Some(e.to_string());
                    save_status(&mut campaign.status, &campaign.dir);
                    break;
                }
                // The error names the store.
                Err(e) => eprintln!("drivefi serve: deferring compaction: {e}"),
            }
        }
    }
    false
}

/// True when the spool holds no claimable submissions.
fn spool_empty(root: &Path) -> bool {
    match std::fs::read_dir(root.join(SPOOL_DIR)) {
        Ok(entries) => !entries.filter_map(|e| e.ok()).any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            !name.starts_with('.') && name.ends_with(".toml")
        }),
        Err(_) => true,
    }
}

/// Campaign directories already claimed under `root`, sorted by id.
fn existing_campaigns(root: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let campaigns = root.join(CAMPAIGNS_DIR);
    let mut dirs: Vec<PathBuf> = match std::fs::read_dir(&campaigns) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join(PLAN_FILE).is_file())
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(ServeError::new(format!("reading {}: {e}", campaigns.display()))),
    };
    dirs.sort();
    Ok(dirs)
}

/// Runs the campaign daemon over serve root `root` until it drains (or
/// forever, or for `max_rounds` rounds — see [`ServeConfig`]).
///
/// Each round: claim new submissions from the spool, grant every
/// active campaign one weighted job-budget slice, refresh its
/// `status.toml`, then compact at most one sealed stage store. The
/// daemon recovers campaigns a previous (possibly killed) daemon left
/// under `root/campaigns/` before its first round.
///
/// # Errors
///
/// Returns a [`ServeError`] on serve-root I/O failure. Per-campaign
/// failures never abort the daemon — they are recorded in the
/// campaign's status file.
pub fn serve(root: &Path, config: &ServeConfig) -> Result<ServeSummary, ServeError> {
    std::fs::create_dir_all(root.join(SPOOL_DIR))
        .map_err(|e| ServeError::new(format!("creating {}: {e}", root.display())))?;
    std::fs::create_dir_all(root.join(CAMPAIGNS_DIR))
        .map_err(|e| ServeError::new(format!("creating {}: {e}", root.display())))?;

    let mut campaigns: Vec<Campaign> = existing_campaigns(root)?.into_iter().map(admit).collect();
    let mut rounds = 0u64;

    loop {
        for dir in claim_submissions(root)? {
            campaigns.push(admit(dir));
        }
        rounds += 1;

        let mut sliced = false;
        for campaign in &mut campaigns {
            if campaign.active() {
                run_slice(campaign, config.slice);
                sliced = true;
            }
        }
        let compacted = compact_one(&mut campaigns);

        if config.max_rounds.is_some_and(|max| rounds >= max) {
            break;
        }
        if !sliced && !compacted {
            if config.drain && spool_empty(root) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(config.poll_ms));
        }
    }

    Ok(ServeSummary {
        rounds,
        admitted: campaigns.len(),
        done: campaigns.iter().filter(|c| c.status.state == CampaignState::Done).count(),
        failed: campaigns.iter().filter(|c| c.status.state == CampaignState::Failed).count(),
    })
}
