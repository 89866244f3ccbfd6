//! Declarative campaign plans for DriveFI.
//!
//! AVFI frames fault injection as a *configurable service* over
//! scenario × fault spaces; this crate is that service's file format
//! and runner. Everything a campaign needs is data:
//!
//! * [`toml`] — a hand-rolled TOML-subset parser/emitter (the build
//!   environment has no crates.io access, so no `serde`);
//! * [`expr`] — the text grammar for the scenario DSL's arithmetic
//!   expressions;
//! * [`scenario`] — [`drivefi_world::spec::ScenarioSpec`] ⇄ TOML, so
//!   scenario families ship as files without recompiling;
//! * [`campaign`] — [`CampaignPlan`]: campaign kind + scenario
//!   selection + [`drivefi_fault::FaultSpace`] + budget/seed/workers +
//!   ablation switches + persistent `[output]` store, with [`run_plan`]
//!   running every kind through one store-backed pipeline (a plan
//!   without `[output]` gets a throwaway store), and the one reader of
//!   what a plan left on disk:
//!   [`CampaignKind::stage_stores`] lists the stores it writes, and
//!   [`rebuild_report`] rebuilds its report from them;
//! * [`report`] — [`PlanReport`]: the round-trip result artifact
//!   (summary TOML + per-job CSV) aggregated from a `drivefi-store`
//!   directory, so whole experiments round-trip (plan in → report out)
//!   as files.
//!
//! # Example
//!
//! ```no_run
//! use drivefi_plan::{run_plan, CampaignPlan, PlanResult};
//!
//! let plan = CampaignPlan::load("plans/random_baseline.toml").unwrap();
//! let PlanResult::Persisted(report) = run_plan(&plan).unwrap();
//! println!("hazard rate {:.3}", report.hazard_rate());
//! ```

pub mod campaign;
pub mod diff;
pub mod expr;
pub mod render;
pub mod report;
pub mod scenario;
pub mod toml;

pub use campaign::{
    campaign_fingerprint, campaign_plan_to_toml, emit_campaign_plan, parse_campaign_plan,
    rebuild_report, round_dirs, round_subdir, run_plan, run_plan_budget, AdaptiveProgress,
    AdaptiveSection, CampaignKind, CampaignPlan, ControlSection, ControlVerdict, OutputSpec,
    PlanResult, RebuiltReport, RoundSummary, ScenarioSelection, SimSection, SubmitSection,
    CONTROL_FILE, FINGERPRINT_EXCLUDED, GOLDEN_SUBDIR, ROUNDS_FILE, ROUND_PREFIX, SWEEP_SUBDIR,
    VALIDATE_SUBDIR,
};
pub use diff::{diff_records, diff_stores, CellDelta, StoreDiff};
pub use expr::{emit_expr, parse_expr};
pub use render::{
    ads_profile_rows, report_document, to_html, to_markdown, Document, RenderContext, Section,
    Table,
};
pub use report::{csv_header, csv_row, known_fault_filter, PlanReport, JOBS_FILE, REPORT_FILE};
pub use scenario::{
    emit_scenario_spec, load_scenario_spec, parse_scenario_spec, save_scenario_spec,
    scenario_spec_from_toml, scenario_spec_to_toml,
};

/// An error from parsing, validating, loading, or saving plan files.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    message: String,
}

impl PlanError {
    /// An error carrying `message`.
    pub fn new(message: String) -> Self {
        PlanError { message }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PlanError {}
