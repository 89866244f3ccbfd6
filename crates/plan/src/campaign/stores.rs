//! Where a campaign's stores live, and the report they add up to: the
//! one reader `drivefi report`, `query`, `compact` and the serve daemon
//! share, so none of them works the stage layout out again.

use super::{campaign_fingerprint, round_dirs, CampaignKind, CampaignPlan, GOLDEN_SUBDIR};
use crate::report::PlanReport;
use crate::PlanError;
use drivefi_store::{read_store, MANIFEST_FILE};
use std::path::{Path, PathBuf};

impl CampaignKind {
    /// The stores a campaign of this kind writes under its output
    /// `root`, in the order the pipeline writes them: `golden/` first,
    /// then `validate/` (mine), `sweep/` (exhaustive) or every
    /// `round-*/` on disk (adaptive). A single-stage campaign's one
    /// store is the root itself. Listed stores need not exist yet.
    pub fn stage_stores(&self, root: &Path) -> Vec<PathBuf> {
        if !self.is_staged() {
            return vec![root.to_path_buf()];
        }
        let golden = root.join(GOLDEN_SUBDIR);
        match self.store_subdir() {
            Some(subdir) => vec![golden, root.join(subdir)],
            None => std::iter::once(golden).chain(round_dirs(root)).collect(),
        }
    }
}

/// A plan's report as [`rebuild_report`] reads it back from the stores.
#[derive(Debug, Clone)]
pub struct RebuiltReport {
    /// The report, equal to the one the pipeline saved for the same
    /// stores.
    pub report: PlanReport,
    /// Where the pipeline saves this report: the output root, or the
    /// golden store when the pipeline stopped before its sweep.
    pub dir: PathBuf,
    /// The first store read that holds fewer records than its jobs;
    /// `Some` exactly when the report is incomplete.
    pub incomplete: Option<PathBuf>,
}

/// Rebuilds `plan`'s report from its stores without running a job, and
/// checks that each store read was written by this plan. It reads the
/// stores the pipeline reports on:
///
/// * a single-stage campaign's one store;
/// * a two-stage pipeline's sweep store (`validate/` or `sweep/`);
/// * an adaptive campaign's `round-*/` stores, concatenated with each
///   round's job ids renumbered by the jobs before it, as the
///   acquisition loop numbers them;
/// * the golden store, when a staged pipeline stopped before its sweep
///   stage had a store.
///
/// # Errors
///
/// Returns a [`PlanError`] when the plan has no `[output]`, a store is
/// missing, unreadable or corrupt, or a store's fingerprint is not the
/// plan's.
pub fn rebuild_report(plan: &CampaignPlan) -> Result<RebuiltReport, PlanError> {
    let output = plan.output.as_ref().ok_or_else(|| {
        PlanError::new("rebuilding a report needs the plan's [output] store".into())
    })?;
    let root = PathBuf::from(&output.dir);
    let fingerprint = campaign_fingerprint(plan);
    let mut stores = plan.kind.stage_stores(&root);
    let mut dir = root.clone();
    if plan.kind.is_staged() {
        let golden = stores.remove(0);
        stores.retain(|store| store.join(MANIFEST_FILE).is_file());
        if stores.is_empty() {
            stores.push(golden.clone());
            dir = golden;
        }
    }
    let (mut jobs, mut total, mut incomplete) = (Vec::new(), 0u64, None);
    for store in stores {
        let (meta, records) = read_store(&store).map_err(|e| PlanError::new(e.to_string()))?;
        if meta.fingerprint != fingerprint {
            return Err(PlanError::new(format!(
                "store under {} was created by a different plan (fingerprint 0x{:016x}, plan is \
                 0x{fingerprint:016x})",
                store.display(),
                meta.fingerprint
            )));
        }
        if (records.len() as u64) < meta.total_jobs && incomplete.is_none() {
            incomplete = Some(store);
        }
        jobs.extend(records.into_iter().map(|mut record| {
            record.job += total;
            record
        }));
        total += meta.total_jobs;
    }
    let report = PlanReport::new(plan.name.clone(), plan.kind.name(), fingerprint, total, jobs);
    Ok(RebuiltReport { report, dir, incomplete })
}
