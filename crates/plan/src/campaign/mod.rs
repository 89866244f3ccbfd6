//! Declarative campaign plans: run any campaign from a `.toml` file.
//!
//! A [`CampaignPlan`] is the whole experiment as data — which campaign
//! to run, over which scenarios, sweeping which [`FaultSpace`], with
//! which budget/seed/workers and where its store lives:
//!
//! ```toml
//! name = "random-baseline"
//!
//! [campaign]
//! kind = "random"     # or "exhaustive", "golden", "mine", "adaptive"
//! runs = 60
//! seed = 1
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
//! [`run_plan`] runs every plan kind one way: through the store-backed
//! pipeline, into the plan's `[output]` directory, returning the report
//! it saved there. A plan without `[output]` runs on a throwaway store
//! under the system temp dir, removed once its report is read.
//!
//! # Module layout
//!
//! * [`mod@self`] — the plan types, the fingerprint identity (and its
//!   documented exclusion table), and the [`run_plan`] entry point with
//!   its throwaway store for plans without `[output]`;
//! * `schema` — the TOML surface: emit/parse with strict unknown-key
//!   rejection ([`emit_campaign_plan`], [`parse_campaign_plan`]);
//! * `pipeline` — the staged-campaign engine: the `Stage` description
//!   and the `Pipeline` driver that owns sub-store resolution,
//!   cross-stage budget accounting, checkpointed resume, and the
//!   `drivefi-obs` stage events, plus every kind's driver expressed
//!   on it;
//! * `adaptive` — the posterior-guided acquisition loop
//!   (`kind = "adaptive"`): fit on results so far, score unexplored
//!   candidates, run the top-K batch into a per-round sub-store, refit;
//! * `stores` — the stage layout read back: [`CampaignKind::stage_stores`]
//!   and [`rebuild_report`], which `drivefi report`/`query`/`compact`
//!   and the serve daemon use instead of knowing the layout themselves.

mod adaptive;
mod pipeline;
mod schema;
mod stores;
#[cfg(test)]
mod tests;

pub use adaptive::{
    round_dirs, round_subdir, AdaptiveProgress, AdaptiveSection, RoundSummary, ROUNDS_FILE,
    ROUND_PREFIX,
};
pub use schema::{campaign_plan_to_toml, emit_campaign_plan, parse_campaign_plan};
pub use stores::{rebuild_report, RebuiltReport};

use crate::report::PlanReport;
use crate::scenario::{as_bool, as_str, as_uint, get};
use crate::toml::{emit_document, parse_document, Map, Toml};
use crate::PlanError;
use drivefi_fault::FaultSpace;
use drivefi_obs::Field;
use drivefi_sim::{SimConfig, Simulation};
use drivefi_world::spec::ScenarioSpec;
use drivefi_world::ScenarioSuite;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which campaign a plan runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignKind {
    /// The random baseline: `runs` faults sampled uniformly from the
    /// fault space × scenario suite.
    Random {
        /// Number of injection runs.
        runs: usize,
    },
    /// The exhaustive ground truth (golden traces → candidate enumeration
    /// → inject every candidate the miner would screen into `dir/sweep/`;
    /// nothing is fitted), against which a mined set's precision and
    /// recall are measured.
    Exhaustive {
        /// Evaluate every `scene_stride`-th eligible scene.
        scene_stride: usize,
    },
    /// Golden-trace collection: every suite scenario driven fault-free,
    /// its trace persisted beside the outcome — the plan-driven form of
    /// [`drivefi_core::collect_golden_traces`], so baseline runs ship as
    /// plan files too.
    Golden,
    /// The paper's full Bayesian pipeline (§III-B), store-backed and
    /// resumable at every stage: golden runs persist their traces to
    /// `dir/golden/`, the 3-TBN fits **from the persisted traces**
    /// ([`drivefi_core::BayesianMiner::fit_from_store`]), the mined
    /// `F_crit` validates by real injection into `dir/validate/`, and
    /// the final report aggregates the validation records.
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
    /// closed into a loop.
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
    /// into `dir/golden/` before enumerating and injecting (mine,
    /// exhaustive, adaptive).
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
/// Sweep-stage sub-store of a `kind = "exhaustive"` output directory.
pub const SWEEP_SUBDIR: &str = "sweep";

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
/// [`PlanReport`]. [`run_plan`] resumes automatically when the store
/// already exists; without the section it runs on a throwaway store.
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
    /// (`assert = false` downgrades the failed control to a recorded
    /// verdict).
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
    pub fn load(dir: &Path) -> Result<Option<ControlVerdict>, PlanError> {
        let path = dir.join(CONTROL_FILE);
        match std::fs::read_to_string(&path) {
            Ok(src) => Self::parse(&src)
                .map(Some)
                .map_err(|e| PlanError::new(format!("{}: {e}", path.display()))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PlanError::new(format!("reading {}: {e}", path.display()))),
        }
    }

    fn save(&self, dir: &Path) -> Result<(), PlanError> {
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
/// dir, so resumed and daemon-sliced campaigns never re-pay the control
/// job; it is also emitted as a `control_verdict` event when
/// observability is on.
///
/// Returns an error when the control job is not survivable and the plan
/// asserts it (`[control] assert`, default true).
fn run_control_point(
    plan: &CampaignPlan,
    sim: &SimConfig,
    suite: &ScenarioSuite,
    dir: &Path,
) -> Result<Option<ControlVerdict>, PlanError> {
    let verdict = match ControlVerdict::load(dir)? {
        Some(verdict) => verdict,
        None => {
            let Some(scenario) = suite.scenarios.first() else {
                return Ok(None); // An empty suite has nothing to control.
            };
            let control_sim = SimConfig { record_trace: false, ..*sim };
            let report = Simulation::new(control_sim, scenario).run();
            let verdict = ControlVerdict {
                scenario_id: scenario.id,
                scenario_name: scenario.name.clone(),
                outcome: report.outcome.to_string(),
                survivable: report.outcome.is_safe(),
            };
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
            verdict
        }
    };
    if plan.control.assert_survivable && !verdict.survivable {
        return Err(PlanError::new(format!(
            "control job failed: the unfaulted run of scenario {} (`{}`) ended in {} — the \
             baseline is not survivable, so injected hazards would be unattributable. Fix the \
             scenario, or set `[control] assert = false` in the plan to record the verdict and \
             proceed",
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
    /// `None` = a throwaway store, removed once its report is read.
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

/// What [`run_plan`] produced: the report over the campaign's final
/// records, as saved next to its store (`report.toml` + `jobs.csv`).
///
/// One variant, kept an enum because the campaign benchmark package
/// matches on it; it becomes a plain [`PlanReport`] when that package
/// next changes.
#[derive(Debug, Clone)]
pub enum PlanResult {
    /// The round-trip report over the campaign's store.
    Persisted(PlanReport),
}

/// Executes a plan through the campaign engine and the store-backed
/// pipeline. Deterministic: the same plan always produces the same
/// result, regardless of worker count and of how often the campaign was
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
    if let Some(output) = &plan.output {
        return run_on_store(plan, output, budget);
    }
    if budget.is_some() {
        return Err(PlanError::new("a job budget needs an [output] store to resume from".into()));
    }
    let scratch = EphemeralStore::create()?;
    run_on_store(plan, &scratch.output()?, None)
}

/// Runs a plan into the store at `output`: the control point first
/// (it gates every injecting kind before the store opens, so a failed
/// control never creates one), then the store-backed pipeline.
fn run_on_store(
    plan: &CampaignPlan,
    output: &OutputSpec,
    budget: Option<u64>,
) -> Result<PlanResult, PlanError> {
    let sim = plan.sim.sim_config();
    let suite = plan.scenarios.build_suite();
    let workers = plan.workers.unwrap_or_else(drivefi_sim::default_workers);
    if matches!(
        plan.kind,
        CampaignKind::Random { .. } | CampaignKind::Mine { .. } | CampaignKind::Adaptive { .. }
    ) {
        run_control_point(plan, &sim, &suite, Path::new(&output.dir))?;
    }
    pipeline::run_persisted(plan, output, sim, &suite, workers, budget)
}

/// The throwaway store a plan without `[output]` runs on: a fresh
/// directory under [`std::env::temp_dir`], named from the pid and a
/// process-wide counter. It is made with `create_dir`, so it never
/// adopts an existing store, and dropping it removes it — once the
/// report is read, on success and on error alike.
struct EphemeralStore(PathBuf);

impl EphemeralStore {
    fn create() -> Result<EphemeralStore, PlanError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("drivefi-plan-{}-{n}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(EphemeralStore(dir)),
                // Left behind by an earlier process with this pid: not
                // ours to adopt or remove, so take the next name.
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(PlanError::new(format!("creating {}: {e}", dir.display()))),
            }
        }
    }

    fn output(&self) -> Result<OutputSpec, PlanError> {
        let dir = self.0.to_str().ok_or_else(|| {
            PlanError::new(format!("temp dir {} is not valid UTF-8", self.0.display()))
        })?;
        Ok(OutputSpec::new(dir))
    }
}

impl Drop for EphemeralStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

impl CampaignPlan {
    /// Loads a plan from a `.toml` file, resolving `source = "files"`
    /// scenario-spec paths relative to the plan file's directory.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<CampaignPlan, PlanError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path)
            .map_err(|e| PlanError::new(format!("reading {}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        schema::campaign_plan_from_toml(&parse_document(&src)?, Some(base))
            .map_err(|e| PlanError::new(format!("{}: {e}", path.display())))
    }

    /// Saves the plan as a `.toml` file.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PlanError> {
        let path = path.as_ref();
        std::fs::write(path, emit_campaign_plan(self))
            .map_err(|e| PlanError::new(format!("writing {}: {e}", path.display())))
    }
}
