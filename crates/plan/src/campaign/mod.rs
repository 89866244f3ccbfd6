//! Declarative campaign plans: run any campaign from a `.toml` file.
//!
//! A [`CampaignPlan`] is the whole experiment as data — which campaign
//! to run, over which scenarios, sweeping which [`FaultSpace`], with
//! which budget/seed/workers and which sink:
//!
//! ```toml
//! name = "random-baseline"
//!
//! [campaign]
//! kind = "random"     # or "exhaustive"
//! runs = 60
//! seed = 1
//! sink = "stats"      # or "outcomes" (per-run outcome list)
//!
//! [scenarios]
//! source = "paper"    # "paper" | "extended" | "families" | "inline" | "files"
//! count = 8
//! seed = 42
//!
//! [faults]
//! signals = "all"     # or a list of signal names
//! models = ["min", "max"]
//! modules = []        # e.g. ["world.clear", "planning.hang"]
//! first_scene = 1
//! tail_margin = 1
//! window_scenes = 1
//! ```
//!
//! [`run_plan`] executes a plan through the exact same driver code the
//! typed API uses ([`drivefi_core::random_space_campaign`],
//! [`drivefi_core::exhaustive_comparison`]), so a plan file reproduces
//! the typed calls number-for-number — the `campaign_plan` example
//! asserts this equality end to end.
//!
//! # Module layout
//!
//! * [`mod@self`] — the plan types, the fingerprint identity (and its
//!   documented exclusion table), and the [`run_plan`] dispatch;
//! * `schema` — the TOML surface: emit/parse with strict unknown-key
//!   rejection ([`emit_campaign_plan`], [`parse_campaign_plan`]);
//! * `pipeline` — the staged-campaign engine: the `Stage` description
//!   and the `Pipeline` driver that owns sub-store resolution,
//!   cross-stage budget accounting, checkpointed resume, and the
//!   `drivefi-obs` stage events, plus the `mine`/store-backed
//!   `exhaustive` drivers expressed on it;
//! * `adaptive` — the posterior-guided acquisition loop
//!   (`kind = "adaptive"`): fit on results so far, score unexplored
//!   candidates, run the top-K batch into a per-round sub-store, refit.

mod adaptive;
mod pipeline;
mod schema;
#[cfg(test)]
mod tests;

pub use adaptive::{
    round_dirs, round_subdir, AdaptiveProgress, AdaptiveSection, RoundSummary, ROUNDS_FILE,
    ROUND_PREFIX,
};
pub use schema::{campaign_plan_to_toml, emit_campaign_plan, parse_campaign_plan};

use crate::report::PlanReport;
use crate::scenario::{as_bool, as_str, as_uint, get};
use crate::toml::{emit_document, parse_document, Map, Toml};
use crate::PlanError;
use drivefi_core::{
    collect_golden_traces, exhaustive_comparison, random_fault_picks, random_space_campaign,
    BayesianMiner, ExhaustiveReport, MinerConfig, RandomCampaignConfig, RandomCampaignStats,
};
use drivefi_fault::FaultSpace;
use drivefi_obs::Field;
use drivefi_sim::{
    CampaignEngine, CampaignJob, Outcome, RunningStats, SimConfig, Simulation, Trace,
};
use drivefi_world::spec::ScenarioSpec;
use drivefi_world::ScenarioSuite;
use std::sync::Arc;

/// Which campaign a plan runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignKind {
    /// The random baseline: `runs` faults sampled uniformly from the
    /// fault space × scenario suite.
    Random {
        /// Number of injection runs.
        runs: usize,
    },
    /// The exhaustive ground-truth comparison (golden traces → miner fit
    /// → inject every candidate → precision/recall).
    Exhaustive {
        /// Evaluate every `scene_stride`-th eligible scene.
        scene_stride: usize,
    },
    /// Golden-trace collection: every suite scenario driven fault-free
    /// through a [`TraceSink`](drivefi_sim::TraceSink) — the plan-driven
    /// form of [`collect_golden_traces`], so baseline runs ship as plan
    /// files too.
    Golden,
    /// The paper's full Bayesian pipeline (§III-B), store-backed and
    /// resumable at every stage: golden runs persist their traces to
    /// `dir/golden/`, the 3-TBN fits **from the persisted traces**
    /// ([`BayesianMiner::fit_from_store`]), the mined `F_crit` validates
    /// by real injection into `dir/validate/`, and the final report
    /// aggregates the validation records. Requires an `[output]` store.
    Mine {
        /// Evaluate every `scene_stride`-th eligible scene when mining.
        scene_stride: usize,
    },
    /// The posterior-guided acquisition loop: golden traces fit the TBN,
    /// every unexplored candidate is scored by expected
    /// hazard-information gain, and the top-`batch` candidates inject
    /// into a per-round sub-store (`round-000/`, `round-001/`, …) whose
    /// outcomes update the posterior before the next round — the
    /// paper's "the fitted network tells you where to inject next",
    /// closed into a loop. Requires an `[output]` store.
    Adaptive {
        /// Evaluate every `scene_stride`-th eligible scene when
        /// enumerating the candidate space.
        scene_stride: usize,
        /// The `[adaptive]` acquisition knobs.
        adaptive: AdaptiveSection,
    },
}

impl CampaignKind {
    /// Stable kind name, as written in plan files and report summaries.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignKind::Random { .. } => "random",
            CampaignKind::Exhaustive { .. } => "exhaustive",
            CampaignKind::Golden => "golden",
            CampaignKind::Mine { .. } => "mine",
            CampaignKind::Adaptive { .. } => "adaptive",
        }
    }

    /// For store-backed pipeline kinds, the sub-store (relative to the
    /// `[output]` dir) whose records the final report aggregates —
    /// `None` for single-stage kinds, whose store *is* the output dir,
    /// and for adaptive campaigns, whose final report aggregates every
    /// `round-*/` sub-store rather than a single one.
    pub fn store_subdir(&self) -> Option<&'static str> {
        match self {
            CampaignKind::Mine { .. } => Some(VALIDATE_SUBDIR),
            CampaignKind::Exhaustive { .. } => Some(SWEEP_SUBDIR),
            CampaignKind::Random { .. } | CampaignKind::Golden | CampaignKind::Adaptive { .. } => {
                None
            }
        }
    }

    /// True for the staged pipeline kinds that collect golden traces
    /// into `dir/golden/` before fitting and injecting (mine,
    /// store-backed exhaustive, adaptive).
    pub fn is_staged(&self) -> bool {
        matches!(
            self,
            CampaignKind::Mine { .. }
                | CampaignKind::Exhaustive { .. }
                | CampaignKind::Adaptive { .. }
        )
    }
}

/// Golden-stage sub-store of a pipeline output directory (trace-logging).
pub const GOLDEN_SUBDIR: &str = "golden";
/// Validation-stage sub-store of a `kind = "mine"` output directory.
pub const VALIDATE_SUBDIR: &str = "validate";
/// Sweep-stage sub-store of a store-backed exhaustive output directory.
pub const SWEEP_SUBDIR: &str = "sweep";

/// Which sink consumes a random campaign's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkChoice {
    /// Constant-memory streaming statistics ([`RandomCampaignStats`]).
    Stats,
    /// Statistics plus the per-run outcome list, in submission order.
    Outcomes,
}

/// The scenario workload of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSelection {
    /// `count` scenarios cycling the paper-era family mix
    /// ([`ScenarioSuite::generate`]).
    Paper {
        /// Suite size.
        count: u32,
        /// Suite seed.
        seed: u64,
    },
    /// `count` scenarios cycling the extended mix
    /// ([`ScenarioSuite::extended`]).
    Extended {
        /// Suite size.
        count: u32,
        /// Suite seed.
        seed: u64,
    },
    /// `count` scenarios cycling the named registry families.
    Families {
        /// Builtin family names, cycled in order.
        names: Vec<String>,
        /// Suite size.
        count: u32,
        /// Suite seed.
        seed: u64,
    },
    /// `count` scenarios cycling inline specs that never touch the
    /// builtin registry.
    Inline {
        /// The specs, cycled in order.
        specs: Vec<ScenarioSpec>,
        /// Suite size.
        count: u32,
        /// Suite seed.
        seed: u64,
    },
    /// `count` scenarios cycling specs loaded from `.toml` files. The
    /// file paths (relative to the plan file) are kept alongside the
    /// resolved specs, so a loaded plan re-saves as `source = "files"`
    /// instead of silently degrading to an inline copy.
    Files {
        /// Spec paths, relative to the plan file's directory.
        files: Vec<String>,
        /// The specs those files resolved to at load time.
        specs: Vec<ScenarioSpec>,
        /// Suite size.
        count: u32,
        /// Suite seed.
        seed: u64,
    },
}

impl ScenarioSelection {
    /// Builds the scenario suite this selection describes.
    pub fn build_suite(&self) -> ScenarioSuite {
        match self {
            ScenarioSelection::Paper { count, seed } => ScenarioSuite::generate(*count, *seed),
            ScenarioSelection::Extended { count, seed } => ScenarioSuite::extended(*count, *seed),
            ScenarioSelection::Families { names, count, seed } => {
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                ScenarioSuite::from_families(&names, *count, *seed)
            }
            ScenarioSelection::Inline { specs, count, seed }
            | ScenarioSelection::Files { specs, count, seed, .. } => {
                ScenarioSuite::from_specs(specs, *count, *seed)
            }
        }
    }
}

/// The `[sim]` plan section: the [`AdsConfig`](drivefi_ads::AdsConfig)
/// ablation switches, so resilience-mechanism ablations (the paper's
/// "why do random injections never land?" studies) are plan-driven too.
/// Defaults mirror [`AdsConfig::default`](drivefi_ads::AdsConfig);
/// the section is omitted from emitted plans when nothing is ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSection {
    /// Run the planner every `planner_divisor` ticks (1 = every tick).
    pub planner_divisor: u32,
    /// Kalman-fuse the world model (false = raw detections).
    pub kalman_fusion: bool,
    /// Smooth actuation with the PID controller.
    pub pid_smoothing: bool,
    /// Engage the module-health watchdog.
    pub watchdog: bool,
}

impl Default for SimSection {
    fn default() -> Self {
        let ads = drivefi_ads::AdsConfig::default();
        SimSection {
            planner_divisor: ads.planner_divisor,
            kalman_fusion: ads.kalman_fusion,
            pid_smoothing: ads.pid_smoothing,
            watchdog: ads.watchdog,
        }
    }
}

impl SimSection {
    /// Applies the switches to a simulator configuration.
    pub fn apply(self, config: &mut SimConfig) {
        config.ads.planner_divisor = self.planner_divisor;
        config.ads.kalman_fusion = self.kalman_fusion;
        config.ads.pid_smoothing = self.pid_smoothing;
        config.ads.watchdog = self.watchdog;
    }

    /// The default simulator configuration with these switches applied.
    pub fn sim_config(self) -> SimConfig {
        let mut config = SimConfig::default();
        self.apply(&mut config);
        config
    }
}

/// The `[output]` plan section: where the campaign persists its per-job
/// records (a `drivefi-store` directory) and emits its round-trip
/// [`PlanReport`]. Present ⇒ [`run_plan`] streams results to disk,
/// resumes automatically when the store already exists, and returns
/// [`PlanResult::Persisted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSpec {
    /// Store directory. Relative paths resolve against the process
    /// working directory (the `drivefi` CLI resolves them against the
    /// plan file's directory before running).
    pub dir: String,
    /// Shard-file count records fan out over (`job % shards`).
    pub shards: u32,
    /// Checkpoint period: flush + manifest rewrite every this many
    /// appended records.
    pub checkpoint_every: u64,
}

impl OutputSpec {
    /// Default shard count.
    pub const DEFAULT_SHARDS: u32 = 4;
    /// Default checkpoint period, in records.
    pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

    /// An output section writing to `dir` with default sharding.
    pub fn new(dir: impl Into<String>) -> Self {
        OutputSpec {
            dir: dir.into(),
            shards: Self::DEFAULT_SHARDS,
            checkpoint_every: Self::DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// The `[submit]` plan section: scheduling metadata read by the
/// `drivefi serve` daemon when this plan is dropped in its spool. Pure
/// scheduling — stripped from [`campaign_fingerprint`] like `[output]`
/// and `workers`, so submitting a plan never changes what it computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitSection {
    /// Fair-share weight: how many job-budget slices this campaign
    /// receives per scheduling round, relative to weight-1 campaigns.
    pub weight: u32,
}

impl SubmitSection {
    /// Largest accepted fair-share weight.
    pub const MAX_WEIGHT: u32 = 64;
}

impl Default for SubmitSection {
    fn default() -> Self {
        SubmitSection { weight: 1 }
    }
}

/// The `[control]` plan section: the unfaulted control job every
/// random/mine campaign runs before injecting anything. A campaign
/// whose baseline scenario is not survivable *without* faults cannot
/// attribute its hazards to injection — the control point catches that
/// before any injection budget is spent. Pure policy, like `[submit]`:
/// stripped from [`campaign_fingerprint`], so toggling the assertion
/// never invalidates a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlSection {
    /// Fail the campaign when the control job is not survivable
    /// (`assert = false` / `--no-assert-control` downgrades the failed
    /// control to a recorded verdict).
    pub assert_survivable: bool,
}

impl Default for ControlSection {
    fn default() -> Self {
        ControlSection { assert_survivable: true }
    }
}

/// File the control verdict persists to, inside the `[output]` dir.
pub const CONTROL_FILE: &str = "control.toml";

/// The recorded verdict of a campaign's unfaulted control job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlVerdict {
    /// Scenario the control job drove (the suite's first).
    pub scenario_id: u32,
    /// Its family name.
    pub scenario_name: String,
    /// Outcome name (`"safe"`, `"hazard"`, `"collision"`).
    pub outcome: String,
    /// Whether the unfaulted run ended safe.
    pub survivable: bool,
}

impl ControlVerdict {
    /// The verdict as a TOML document string.
    pub fn to_toml(&self) -> String {
        emit_document(&Map::from([
            ("scenario_id".into(), Toml::Int(i64::from(self.scenario_id))),
            ("scenario_name".into(), Toml::Str(self.scenario_name.clone())),
            ("outcome".into(), Toml::Str(self.outcome.clone())),
            ("survivable".into(), Toml::Bool(self.survivable)),
        ]))
    }

    /// Parses a verdict document produced by [`Self::to_toml`].
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on malformed TOML or missing fields.
    pub fn parse(src: &str) -> Result<ControlVerdict, PlanError> {
        let doc = parse_document(src)?;
        let what = "control verdict";
        Ok(ControlVerdict {
            scenario_id: as_uint(get(&doc, what, "scenario_id")?, "`scenario_id`")? as u32,
            scenario_name: as_str(get(&doc, what, "scenario_name")?, "`scenario_name`")?.to_owned(),
            outcome: as_str(get(&doc, what, "outcome")?, "`outcome`")?.to_owned(),
            survivable: as_bool(get(&doc, what, "survivable")?, "`survivable`")?,
        })
    }

    /// Loads the verdict persisted in output directory `dir`, if any.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the file exists but is malformed.
    pub fn load(dir: &std::path::Path) -> Result<Option<ControlVerdict>, PlanError> {
        let path = dir.join(CONTROL_FILE);
        match std::fs::read_to_string(&path) {
            Ok(src) => Self::parse(&src)
                .map(Some)
                .map_err(|e| PlanError::new(format!("{}: {e}", path.display()))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PlanError::new(format!("reading {}: {e}", path.display()))),
        }
    }

    fn save(&self, dir: &std::path::Path) -> Result<(), PlanError> {
        let path = dir.join(CONTROL_FILE);
        let tmp = dir.join(format!(".{CONTROL_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_toml())
            .map_err(|e| PlanError::new(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| PlanError::new(format!("replacing {}: {e}", path.display())))
    }
}

/// Runs (or recalls) the campaign's control point: one unfaulted
/// simulation of the suite's first scenario under the plan's `[sim]`
/// ablations. The verdict persists to [`CONTROL_FILE`] in the output
/// dir (when there is one), so resumed and daemon-sliced campaigns
/// never re-pay the control job; it is also emitted as a
/// `control_verdict` event when observability is on.
///
/// Returns an error when the control job is not survivable and the plan
/// asserts it (`[control] assert`, default true).
fn run_control_point(
    plan: &CampaignPlan,
    sim: &SimConfig,
    suite: &ScenarioSuite,
) -> Result<Option<ControlVerdict>, PlanError> {
    let dir = plan.output.as_ref().map(|o| std::path::PathBuf::from(&o.dir));
    let verdict = match dir.as_deref().map(ControlVerdict::load).transpose()?.flatten() {
        Some(verdict) => verdict,
        None => {
            let Some(scenario) = suite.scenarios.first() else {
                return Ok(None); // An empty suite has nothing to control.
            };
            let control_sim = SimConfig { record_trace: false, ..*sim };
            let report = Simulation::new(control_sim, scenario).run();
            drivefi_obs::metrics::counter_add(drivefi_obs::metrics::Counter::ControlJobs, 1);
            let verdict = ControlVerdict {
                scenario_id: scenario.id,
                scenario_name: scenario.name.clone(),
                outcome: report.outcome.to_string(),
                survivable: report.outcome.is_safe(),
            };
            if let Some(dir) = dir.as_deref() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| PlanError::new(format!("creating {}: {e}", dir.display())))?;
                verdict.save(dir)?;
                drivefi_obs::emit_event(
                    dir,
                    "control_verdict",
                    &[
                        ("scenario", Field::Int(i64::from(verdict.scenario_id))),
                        ("family", Field::Str(verdict.scenario_name.clone())),
                        ("outcome", Field::Str(verdict.outcome.clone())),
                        ("survivable", Field::Bool(verdict.survivable)),
                    ],
                );
            }
            verdict
        }
    };
    if plan.control.assert_survivable && !verdict.survivable {
        return Err(PlanError::new(format!(
            "control job failed: the unfaulted run of scenario {} (`{}`) ended in {} — the \
             baseline is not survivable, so injected hazards would be unattributable. Fix the \
             scenario, or run with `--no-assert-control` / `[control] assert = false` to record \
             the verdict and proceed",
            verdict.scenario_id, verdict.scenario_name, verdict.outcome
        )));
    }
    Ok(Some(verdict))
}

/// A complete, serializable campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Human-readable plan name.
    pub name: String,
    /// What to run.
    pub kind: CampaignKind,
    /// Campaign RNG seed (fault sampling for random campaigns).
    pub seed: u64,
    /// Worker threads (`None` = [`drivefi_sim::default_workers`]).
    pub workers: Option<usize>,
    /// Result sink (random campaigns only; the exhaustive report shape
    /// is fixed, so exhaustive plans must leave this at
    /// [`SinkChoice::Stats`] and their files must omit `sink`).
    pub sink: SinkChoice,
    /// The scenario workload.
    pub scenarios: ScenarioSelection,
    /// The fault space sampled by random campaigns. Exhaustive
    /// campaigns sweep the *miner's* candidate space (mined signals ×
    /// {min, max} at the validation window) — a `[faults]` section in
    /// an exhaustive plan is rejected at parse time rather than
    /// silently ignored, and this field must stay at
    /// [`FaultSpace::default`].
    pub faults: FaultSpace,
    /// ADS ablation switches (`[sim]` section; defaults = no ablation).
    pub sim: SimSection,
    /// Persistent store + report destination (`[output]` section).
    /// `None` = in-memory results only, as before.
    pub output: Option<OutputSpec>,
    /// Daemon scheduling metadata (`[submit]` section; defaults =
    /// weight 1).
    pub submit: SubmitSection,
    /// Control-point policy (`[control]` section; defaults = assert the
    /// unfaulted control job survivable).
    pub control: ControlSection,
}

/// Every plan knob excluded from [`campaign_fingerprint`], as
/// `(key, why)` rows — the single documented table the fingerprint's
/// identity-stripping follows, instead of ad-hoc stripping scattered
/// through the fingerprint function. A knob belongs here exactly when
/// changing it can never change what the campaign *computes*: pure
/// scheduling, destinations, policy around the run, and rerun-safe stop
/// criteria. Everything else (kind, seed, scenarios, faults, ablations,
/// `[adaptive] batch`) is identity.
pub const FINGERPRINT_EXCLUDED: &[(&str, &str)] = &[
    ("[campaign] workers", "results are bit-identical at any worker count"),
    ("[output]", "store location and sharding are destinations, not inputs"),
    ("[submit] weight", "daemon fair-share weight never changes what a slice computes"),
    ("[control] assert", "the control-point assertion is policy around the run, not part of it"),
    ("[scenarios] files", "file selections fingerprint the resolved spec contents, not the paths"),
    (
        "[adaptive] max_rounds",
        "a rerun-safe stop criterion: raising it extends a finished campaign, never rewrites it",
    ),
    (
        "[adaptive] converge_eps",
        "a rerun-safe stop criterion: the per-round stores it gates are append-only",
    ),
];

/// Reduces a plan to its fingerprint identity by clearing every knob in
/// [`FINGERPRINT_EXCLUDED`], one statement per table row (same order).
fn strip_fingerprint_excluded(identity: &mut CampaignPlan) {
    identity.workers = None;
    identity.output = None;
    identity.submit = SubmitSection::default();
    identity.control = ControlSection::default();
    if let ScenarioSelection::Files { specs, count, seed, .. } = &identity.scenarios {
        identity.scenarios =
            ScenarioSelection::Inline { specs: specs.clone(), count: *count, seed: *seed };
    }
    if let CampaignKind::Adaptive { adaptive, .. } = &mut identity.kind {
        adaptive.max_rounds = AdaptiveSection::default().max_rounds;
        adaptive.converge_eps = AdaptiveSection::default().converge_eps;
    }
}

/// The campaign identity a persistent store is locked to: the plan with
/// every key in the [`FINGERPRINT_EXCLUDED`] table stripped,
/// fingerprinted. Moving, re-sharding, or re-parallelizing the campaign
/// therefore never invalidates a resume, while any change to what it
/// *computes* (kind, seed, scenarios, faults, ablations) refuses to
/// append to the old store. `source = "files"` selections fingerprint
/// the **resolved spec contents**, not the file paths: editing a
/// referenced spec invalidates the store, relocating it does not.
pub fn campaign_fingerprint(plan: &CampaignPlan) -> u64 {
    let mut identity = plan.clone();
    strip_fingerprint_excluded(&mut identity);
    drivefi_store::fingerprint64(emit_campaign_plan(&identity).as_bytes())
}

/// What [`run_plan`] produced.
#[derive(Debug, Clone)]
pub enum PlanResult {
    /// A random campaign's streaming statistics.
    Random(RandomCampaignStats),
    /// A random campaign with the per-run outcome list retained.
    RandomOutcomes {
        /// Streaming outcome counters.
        running: RunningStats,
        /// Every run's outcome, in submission order.
        outcomes: Vec<Outcome>,
    },
    /// The exhaustive ground-truth comparison.
    Exhaustive(ExhaustiveReport),
    /// A golden campaign's per-scenario traces, in suite order.
    Golden(Vec<Trace>),
    /// A campaign with an `[output]` section: results persisted to the
    /// store, aggregated into the round-trip report (saved next to the
    /// shards as `report.toml` + `jobs.csv`).
    Persisted(PlanReport),
}

/// Executes a plan through the campaign engine and the standard
/// drivers. Deterministic: the same plan always produces the same
/// result, regardless of worker count — and, for plans with an
/// `[output]` section, regardless of how often the campaign was
/// interrupted and resumed.
///
/// # Errors
///
/// Returns a [`PlanError`] on store I/O failure or when resuming into a
/// store created by a different plan.
pub fn run_plan(plan: &CampaignPlan) -> Result<PlanResult, PlanError> {
    run_plan_budget(plan, None)
}

/// [`run_plan`] with a job budget: at most `budget` *pending* jobs are
/// executed this invocation (already-persisted jobs don't count), then
/// the run stops cleanly — the CI-style "interrupt via budget cap".
/// Only meaningful for plans with an `[output]` store to resume from;
/// a budget without one is an error.
///
/// # Errors
///
/// Returns a [`PlanError`] on store I/O failure, fingerprint mismatch,
/// or a budget on a store-less plan.
pub fn run_plan_budget(plan: &CampaignPlan, budget: Option<u64>) -> Result<PlanResult, PlanError> {
    let sim = plan.sim.sim_config();
    let suite = plan.scenarios.build_suite();
    let workers = plan.workers.unwrap_or_else(drivefi_sim::default_workers);

    // The parser rejects this combination; catch hand-built plans too
    // rather than silently dropping the sink choice — and before the
    // control point, so an invalid plan never writes `control.toml`.
    if plan.output.is_some() && plan.sink == SinkChoice::Outcomes {
        return Err(PlanError::new(
            "`sink = \"outcomes\"` cannot be combined with an [output] store — the per-job \
             outcomes are the store's jobs.csv"
                .into(),
        ));
    }

    // The control point gates every injecting campaign kind — before
    // the store opens, so a failed control never creates or touches one.
    if matches!(
        plan.kind,
        CampaignKind::Random { .. } | CampaignKind::Mine { .. } | CampaignKind::Adaptive { .. }
    ) {
        run_control_point(plan, &sim, &suite)?;
    }

    if let Some(output) = &plan.output {
        return pipeline::run_persisted(plan, output, sim, &suite, workers, budget);
    }
    if budget.is_some() {
        return Err(PlanError::new("a job budget needs an [output] store to resume from".into()));
    }
    Ok(match plan.kind {
        CampaignKind::Random { runs } => {
            let config = RandomCampaignConfig { runs, seed: plan.seed, workers };
            match plan.sink {
                SinkChoice::Stats => {
                    PlanResult::Random(random_space_campaign(&sim, &suite, &plan.faults, &config))
                }
                SinkChoice::Outcomes => {
                    let picks = random_fault_picks(&suite, &plan.faults, &config);
                    let engine = CampaignEngine::new(sim).with_workers(workers);
                    let shared = suite.shared();
                    let jobs = picks.iter().enumerate().map(|(id, &(index, spec))| CampaignJob {
                        id: id as u64,
                        scenario: Arc::clone(&shared[index]),
                        faults: vec![spec.compile()],
                    });
                    let mut running = RunningStats::new();
                    let mut outcomes: Vec<Option<Outcome>> = vec![None; picks.len()];
                    engine.run(jobs, &mut |index: u64, result: drivefi_sim::CampaignResult| {
                        outcomes[index as usize] = Some(result.report.outcome);
                        drivefi_sim::CampaignSink::accept(&mut running, index, result);
                    });
                    PlanResult::RandomOutcomes {
                        running,
                        outcomes: outcomes
                            .into_iter()
                            .map(|o| o.expect("every job produces a result"))
                            .collect(),
                    }
                }
            }
        }
        CampaignKind::Exhaustive { scene_stride } => {
            let traces = collect_golden_traces(&sim, &suite, workers);
            let config = MinerConfig { scene_stride, ..MinerConfig::default() };
            let miner = BayesianMiner::fit(&traces, config).expect("model fit on golden traces");
            PlanResult::Exhaustive(exhaustive_comparison(&sim, &suite, &miner, &traces, workers))
        }
        CampaignKind::Golden => PlanResult::Golden(collect_golden_traces(&sim, &suite, workers)),
        // The parser enforces this; catch hand-built plans too.
        CampaignKind::Mine { .. } => {
            return Err(PlanError::new(
                "`kind = \"mine\"` needs an [output] store — the pipeline persists golden \
                 traces and resumes its fit and validation sweep from them"
                    .into(),
            ))
        }
        CampaignKind::Adaptive { .. } => {
            return Err(PlanError::new(
                "`kind = \"adaptive\"` needs an [output] store — the acquisition loop persists \
                 golden traces and per-round sub-stores and resumes from them"
                    .into(),
            ))
        }
    })
}

impl CampaignPlan {
    /// Loads a plan from a `.toml` file, resolving `source = "files"`
    /// scenario-spec paths relative to the plan file's directory.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O or parse failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<CampaignPlan, PlanError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path)
            .map_err(|e| PlanError::new(format!("reading {}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| std::path::Path::new("."));
        schema::campaign_plan_from_toml(&parse_document(&src)?, Some(base))
            .map_err(|e| PlanError::new(format!("{}: {e}", path.display())))
    }

    /// Saves the plan as a `.toml` file.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PlanError> {
        let path = path.as_ref();
        std::fs::write(path, emit_campaign_plan(self))
            .map_err(|e| PlanError::new(format!("writing {}: {e}", path.display())))
    }
}
