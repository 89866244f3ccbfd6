//! The campaign daemon: many submitted plans, one machine, fair shares.
//!
//! AVFI frames fault injection as a *service*: experimenters submit
//! campaigns and a long-lived daemon runs them, rather than each person
//! owning a terminal for the duration of their sweep. This crate is
//! that service for DriveFI plans, built entirely from the guarantees
//! the layers below already provide:
//!
//! * [`spool`] — the submission protocol. A plan enters the service by
//!   being renamed into `<root>/spool/`; the daemon claims it by
//!   renaming it into `<root>/campaigns/<id>/plan.toml`. Both moves are
//!   single-syscall atomic renames, so a submission is either fully
//!   visible or not at all, and two daemons watching one spool never
//!   claim the same plan twice.
//! * [`status`] — live progress. Each campaign directory carries a
//!   `status.toml` (state, jobs done/total, outcome tallies, slices
//!   granted, ETA), rewritten atomically after every scheduling slice,
//!   so `drivefi status` and humans with `cat` watch campaigns move
//!   without touching the stores.
//! * [`scheduler`] — fair-share execution. The daemon round-robins a
//!   job-budget slice over every admitted campaign per round, weighted
//!   by the plan's `[submit] weight`, driving
//!   [`run_plan_budget`](drivefi_plan::run_plan_budget). Because every
//!   slice resumes from the campaign's persistent store, preemption is
//!   free: `kill -9` the daemon anywhere, restart it, and every report
//!   comes out byte-identical to an uninterrupted standalone
//!   `drivefi run`. Sealed stage stores are compacted in the gaps
//!   between rounds. The daemon knows no stage layout of its own: the
//!   stores a campaign writes, and its current stage for `drivefi
//!   status`, come from
//!   [`CampaignKind::stage_stores`](drivefi_plan::CampaignKind::stage_stores),
//!   the lister the CLI's `report`, `query` and `compact` share.
//!
//! The daemon holds the store lease (see `drivefi_store::lease`) of
//! every store it appends to, so a concurrent `drivefi compact` — or a second
//! daemon misconfigured onto the same campaign directory — is refused
//! instead of corrupting the store.

pub mod scheduler;
pub mod spool;
pub mod status;

pub use scheduler::{serve, ServeConfig, ServeSummary};
pub use spool::{claim_submissions, submit_plan, CAMPAIGNS_DIR, PLAN_FILE, SPOOL_DIR};
pub use status::{CampaignState, CampaignStatus, STATUS_FILE};

/// An error from submitting, claiming, scheduling, or status I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    message: String,
}

impl ServeError {
    /// An error carrying `message`.
    pub fn new(message: String) -> Self {
        ServeError { message }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<drivefi_plan::PlanError> for ServeError {
    fn from(e: drivefi_plan::PlanError) -> Self {
        ServeError::new(e.to_string())
    }
}

impl From<drivefi_store::StoreError> for ServeError {
    fn from(e: drivefi_store::StoreError) -> Self {
        ServeError::new(e.to_string())
    }
}
