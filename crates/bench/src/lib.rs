//! Shared helpers of the paper-experiment binaries. `exp_e2`, `exp_e3`
//! and `exp_e11` load their campaigns from `plans/paper/` and run them
//! through `drivefi_plan::run_plan`, the path every plan takes.

use drivefi_plan::{run_plan, CampaignPlan, OutputSpec, PlanReport, PlanResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Loads `plans/paper/<file>` from the repository checkout.
pub fn paper_plan(file: &str) -> CampaignPlan {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans/paper").join(file);
    CampaignPlan::load(path).unwrap_or_else(|e| panic!("{e}"))
}

/// A campaign run into a fresh store under the system temp dir, for
/// experiments that read more than the report: the golden sub-store,
/// the event log. The store is removed when this is dropped.
pub struct StoreRun {
    /// The store's root (the plan's `[output] dir`).
    pub root: PathBuf,
    /// The report the run returned.
    pub report: PlanReport,
}

impl StoreRun {
    /// Runs `plan` into `<temp dir>/drivefi-<plan name>-<pid>`.
    pub fn new(plan: &CampaignPlan) -> StoreRun {
        let root =
            std::env::temp_dir().join(format!("drivefi-{}-{}", plan.name, std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let output = OutputSpec::new(root.to_string_lossy().into_owned());
        let plan = CampaignPlan { output: Some(output), ..plan.clone() };
        let PlanResult::Persisted(report) = run_plan(&plan).unwrap_or_else(|e| panic!("{e}"));
        StoreRun { root, report }
    }

    /// The `stage_start` and `stage_finish` stamps of each stage in the
    /// campaign's event log, on the process's monotonic clock (ms
    /// resolution). Empty unless observability was on while the
    /// campaign ran ([`drivefi_obs::force_enabled`]).
    pub fn stage_spans(&self) -> BTreeMap<String, (Duration, Duration)> {
        let mut spans = BTreeMap::new();
        for event in drivefi_obs::read_events(&self.root).unwrap_or_default() {
            let Some(stage) = event.str_field("stage") else { continue };
            let span: &mut (Duration, Duration) = spans.entry(stage.to_owned()).or_default();
            let stamp = Duration::from_millis(event.mono_ms);
            match event.kind.as_str() {
                "stage_start" => span.0 = stamp,
                "stage_finish" => span.1 = stamp,
                _ => {}
            }
        }
        spans
    }
}

impl Drop for StoreRun {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}
