//! The staged-campaign engine: a [`Stage`] is one resumable store-backed
//! batch of jobs; a [`Pipeline`] runs stages in sequence, owning the
//! concerns every staged campaign shares — sub-store resolution under
//! the `[output]` dir, cross-stage budget accounting, checkpointed
//! resume (only jobs without a persisted record run), and the
//! `drivefi-obs` campaign/stage events with their transition-only
//! finish semantics.
//!
//! [`run_persisted`] is the execution path for every plan kind:
//! single-stage campaigns (random, golden) run one `"main"` stage whose
//! store *is* the output dir; `kind = "mine"` (golden → fit → mine →
//! validate) and `kind = "exhaustive"` (golden → enumerate → inject) run
//! through [`run_two_stage`]; and
//! `kind = "adaptive"` layers its acquisition loop on the same engine
//! in [`super::adaptive`].

use super::{
    campaign_fingerprint, CampaignKind, CampaignPlan, OutputSpec, PlanResult, GOLDEN_SUBDIR,
    SWEEP_SUBDIR, VALIDATE_SUBDIR,
};
use crate::report::PlanReport;
use crate::PlanError;
use drivefi_core::{
    candidate_record_metas, candidate_specs_from_store, golden_record_metas, random_fault_picks,
    BayesianMiner, MinerConfig, RandomCampaignConfig,
};
use drivefi_fault::FaultSpec;
use drivefi_obs::{EventLog, Field};
use drivefi_sim::{CampaignEngine, CampaignJob, RunningStats, SimConfig, Tee};
use drivefi_store::{
    open_store, open_store_with_traces, read_store, CampaignRecord, RecordMeta, StoreSink,
};
use drivefi_world::{ScenarioConfig, ScenarioSuite};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn store_err(e: drivefi_store::StoreError) -> PlanError {
    PlanError::new(format!("[output] store: {e}"))
}

/// One resumable batch of jobs backed by its own sub-store: the name it
/// reports under, where its records persist, how its jobs simulate, and
/// what those jobs are. Job ids are `0..metas.len()` and index `metas`
/// — the store's merge key, stable across interruptions.
pub(super) struct Stage {
    /// Stage name in obs events (for pipeline stages, also the
    /// sub-store's directory name under the output root).
    pub name: String,
    /// The stage's store directory.
    pub dir: PathBuf,
    /// Persist full traces alongside outcomes (golden stages).
    pub traces: bool,
    /// Simulator configuration for this stage's jobs.
    pub sim: SimConfig,
    /// Per-job record metadata, in job-id order.
    pub metas: Vec<RecordMeta>,
    /// The jobs themselves, ids `0..metas.len()`.
    pub jobs: Vec<CampaignJob>,
    /// Identity the stage's store is locked to (the plan fingerprint).
    pub fingerprint: u64,
}

impl Stage {
    /// Total job count of the stage.
    pub fn total(&self) -> u64 {
        self.metas.len() as u64
    }
}

/// What running a stage left behind: resume accounting plus the stage
/// store's full record set (sorted by job id).
pub(super) struct StageRun {
    /// Records already persisted when the stage opened.
    pub done_before: u64,
    /// The stage's total job count.
    pub total: u64,
    /// Whether the stage's store now holds every job.
    pub complete: bool,
    /// Every persisted record of the stage, sorted by job id.
    pub records: Vec<CampaignRecord>,
}

impl StageRun {
    /// True when the stage started from an empty store (no resume).
    pub fn fresh(&self) -> bool {
        self.done_before == 0
    }
}

/// The driver a staged campaign runs on. Owns the shared cross-stage
/// state: the plan identity (fingerprint), the remaining job budget
/// (debited as stages run), and the campaign-level event log.
pub(super) struct Pipeline<'a> {
    plan: &'a CampaignPlan,
    output: &'a OutputSpec,
    root: PathBuf,
    /// The plan fingerprint every stage store is locked to.
    pub fingerprint: u64,
    workers: usize,
    budget: Option<u64>,
    events: EventLog,
}

impl<'a> Pipeline<'a> {
    /// Opens the pipeline on a plan's output root and emits
    /// `campaign_start`. Single-stage campaigns announce their total
    /// job count up front (`announce_total`); multi-stage pipelines
    /// don't know theirs until the golden stage ends, and announce per
    /// stage.
    pub fn begin(
        plan: &'a CampaignPlan,
        output: &'a OutputSpec,
        workers: usize,
        budget: Option<u64>,
        announce_total: Option<u64>,
    ) -> Pipeline<'a> {
        let root = PathBuf::from(&output.dir);
        let fingerprint = campaign_fingerprint(plan);
        let mut events = open_campaign_log(&root);
        let mut fields = vec![
            ("name", Field::Str(plan.name.clone())),
            ("campaign_kind", Field::Str(plan.kind.name().into())),
            ("fingerprint", Field::Str(format!("{fingerprint:016x}"))),
        ];
        if let Some(total) = announce_total {
            fields.push(("total_jobs", Field::Int(total as i64)));
        }
        events.emit("campaign_start", &fields);
        Pipeline { plan, output, root, fingerprint, workers, budget, events }
    }

    /// The pipeline's output root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A stage whose store lives directly under the output root at the
    /// stage's own name.
    pub fn stage_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Runs a stage with the remaining budget: open-or-recover its
    /// store (refusing a fingerprint mismatch), emit `stage_start` for
    /// pending work, run only the jobs without a persisted record, then
    /// debit the budget and hand back the merged records. `running`
    /// optionally tees the streamed results into in-memory tallies for
    /// a caller's end-to-end cross-check.
    pub fn run_stage(
        &mut self,
        stage: Stage,
        running: Option<&mut RunningStats>,
    ) -> Result<StageRun, PlanError> {
        let total = stage.total();
        let open = if stage.traces { open_store_with_traces } else { open_store };
        let (mut writer, state) = open(
            &stage.dir,
            stage.fingerprint,
            total,
            self.output.shards,
            self.output.checkpoint_every,
        )
        .map_err(store_err)?;
        let done_before = state.records();
        if done_before < total {
            self.events.emit(
                "stage_start",
                &[
                    ("stage", Field::Str(stage.name.clone())),
                    ("pending", Field::Int((total - done_before) as i64)),
                ],
            );
        }
        let engine = CampaignEngine::new(stage.sim).with_workers(self.workers);
        let mut sink = StoreSink::new(&mut writer, &stage.metas);
        let ran = match running {
            Some(running) => engine.run_skipping_budget(
                stage.jobs,
                |id| state.is_done(id),
                self.budget,
                &mut Tee(&mut sink, running),
            ),
            None => engine.run_skipping_budget(
                stage.jobs,
                |id| state.is_done(id),
                self.budget,
                &mut sink,
            ),
        };
        sink.finish().map_err(store_err)?;
        let meta = writer.finish().map_err(store_err)?;
        self.budget = self.budget.map(|b| b.saturating_sub(ran));
        // Only the sink read the metas: free them before the read-back
        // allocates the records, so the two are never held together.
        drop(stage.metas);
        let (_, records) = read_store(&stage.dir).map_err(store_err)?;
        Ok(StageRun { done_before, total, complete: meta.complete, records })
    }

    /// Emits a stage's `stage_finish` exactly on the invocation that
    /// *transitioned* it to complete (`done_before < total` on entry,
    /// complete on exit) — so interrupt/resume cycles never duplicate a
    /// stage's finish event.
    pub fn finish_stage(&mut self, name: &str, run: &StageRun) {
        if run.complete && run.done_before < run.total {
            self.events.emit(
                "stage_finish",
                &[("stage", Field::Str(name.into())), ("records", Field::Int(run.total as i64))],
            );
        }
    }

    /// Emits the end-of-invocation campaign event keyed to the final
    /// stage: `campaign_finish` on the invocation that completed it,
    /// `campaign_pause` when it ended with work left, nothing for a
    /// re-run of an already-complete campaign.
    pub fn end(&mut self, run: &StageRun) {
        self.end_with(run.done_before < run.total, run.complete, run.total);
    }

    /// [`Self::end`] with the transition told apart explicitly — for
    /// pipelines (like the adaptive loop) whose "did this invocation do
    /// new work" spans several stages rather than one.
    pub fn end_with(&mut self, ran_new_work: bool, complete: bool, total: u64) {
        if complete && ran_new_work {
            self.events.emit("campaign_finish", &[("complete", Field::Bool(true))]);
        } else if !complete {
            self.events.emit("campaign_pause", &[("total", Field::Int(total as i64))]);
        }
    }
}

/// Opens the campaign-level event log at `dir`, creating the directory
/// first so a fresh campaign's `campaign_start` isn't dropped for lack
/// of one. Inert (no directory touched) while observability is off.
fn open_campaign_log(dir: &Path) -> EventLog {
    if drivefi_obs::enabled() {
        std::fs::create_dir_all(dir).ok();
        EventLog::open(dir)
    } else {
        EventLog::disabled()
    }
}

/// The golden-collection stage every pipeline kind starts with: all
/// suite scenarios fault-free, whole-scenario surveys, traces persisted
/// — so the sub-store at `dir/golden/` is a miner training set on disk.
pub(super) fn golden_stage(
    dir: PathBuf,
    fingerprint: u64,
    suite: &ScenarioSuite,
    shared: &[Arc<ScenarioConfig>],
    sim: SimConfig,
) -> Stage {
    Stage {
        name: GOLDEN_SUBDIR.into(),
        dir,
        traces: true,
        sim: SimConfig { record_trace: true, stop_on_collision: false, ..sim },
        metas: golden_record_metas(suite),
        jobs: shared
            .iter()
            .enumerate()
            .map(|(id, scenario)| CampaignJob {
                id: id as u64,
                scenario: Arc::clone(scenario),
                faults: Vec::new(),
            })
            .collect(),
        fingerprint,
    }
}

/// An injection-sweep stage over an explicit candidate list: job `i`
/// injects `candidates[i]` into its scenario. The candidate order is
/// the caller's contract — it must be a pure function of persisted
/// state so job index `i` means the same fault on every resume.
pub(super) fn sweep_stage(
    name: String,
    dir: PathBuf,
    fingerprint: u64,
    suite: &ScenarioSuite,
    shared: &[Arc<ScenarioConfig>],
    candidates: Vec<(u32, FaultSpec)>,
    sim: SimConfig,
) -> Stage {
    Stage {
        name,
        dir,
        traces: false,
        sim,
        metas: candidate_record_metas(suite, &candidates),
        jobs: candidates
            .into_iter()
            .enumerate()
            .map(|(id, (scenario_id, spec))| CampaignJob {
                id: id as u64,
                scenario: Arc::clone(&shared[scenario_id as usize]),
                faults: vec![spec.compile()],
            })
            .collect(),
        fingerprint,
    }
}

/// Runs a pipeline's golden stage and keeps its sub-store report fresh:
/// the golden sub-store always carries its own progress report — kept
/// current on every pass, so a report written by an earlier mid-golden
/// interruption never goes stale once the stage completes. (The root
/// report only ever describes the terminal stage.) Returns the stage
/// run plus the saved golden report for the mid-golden bail-out path.
pub(super) fn run_golden_stage(
    pipeline: &mut Pipeline,
    suite: &ScenarioSuite,
    shared: &[Arc<ScenarioConfig>],
    sim: SimConfig,
) -> Result<(StageRun, PlanReport), PlanError> {
    let golden_dir = pipeline.stage_dir(GOLDEN_SUBDIR);
    let stage = golden_stage(golden_dir.clone(), pipeline.fingerprint, suite, shared, sim);
    let mut run = pipeline.run_stage(stage, None)?;
    let report = PlanReport::new(
        pipeline.plan.name.clone(),
        pipeline.plan.kind.name(),
        pipeline.fingerprint,
        run.total,
        std::mem::take(&mut run.records),
    );
    report.save(&golden_dir)?;
    pipeline.finish_stage(GOLDEN_SUBDIR, &run);
    Ok((run, report))
}

/// The store-backed execution path: open-or-recover the store, run only
/// the jobs without a persisted record, and rebuild the report from the
/// merged shards — which is what makes an interrupted-and-resumed
/// campaign's report byte-identical to an uninterrupted run's.
pub(super) fn run_persisted(
    plan: &CampaignPlan,
    output: &OutputSpec,
    sim: SimConfig,
    suite: &ScenarioSuite,
    workers: usize,
    budget: Option<u64>,
) -> Result<PlanResult, PlanError> {
    // The staged pipeline kinds run through their own drivers.
    match plan.kind {
        CampaignKind::Mine { .. } | CampaignKind::Exhaustive { .. } => {
            return run_two_stage(plan, output, sim, suite, workers, budget)
        }
        CampaignKind::Adaptive { .. } => {
            return super::adaptive::run_adaptive(plan, output, sim, suite, workers, budget)
        }
        CampaignKind::Random { .. } | CampaignKind::Golden => {}
    }

    // A single-stage campaign is one `"main"` stage whose store is the
    // output root, built as its pipeline counterpart is: a golden run of
    // the suite, or a sweep of the random picks. Plan suites number their
    // scenarios by index, so a pick's index is its scenario id.
    let shared = suite.shared();
    let root = PathBuf::from(&output.dir);
    let fingerprint = campaign_fingerprint(plan);
    let stage = match plan.kind {
        CampaignKind::Random { runs } => {
            let config = RandomCampaignConfig { runs, seed: plan.seed, workers };
            let picks = random_fault_picks(suite, &plan.faults, &config)
                .into_iter()
                .map(|(index, spec)| (index as u32, spec))
                .collect();
            sweep_stage("main".into(), root, fingerprint, suite, &shared, picks, sim)
        }
        CampaignKind::Golden => {
            Stage { name: "main".into(), ..golden_stage(root, fingerprint, suite, &shared, sim) }
        }
        _ => unreachable!("pipeline kinds dispatched above"),
    };
    let total = stage.total();
    let mut pipeline = Pipeline::begin(plan, output, workers, budget, Some(total));
    // Tee the stream: records go to disk, tallies stay in memory for the
    // end-to-end cross-check below.
    let mut running = RunningStats::new();
    let mut run = pipeline.run_stage(stage, Some(&mut running))?;
    let report = PlanReport::new(
        plan.name.clone(),
        plan.kind.name(),
        pipeline.fingerprint,
        total,
        std::mem::take(&mut run.records),
    );
    // A fresh uninterrupted pass saw every record twice: streamed off the
    // engine and re-read from disk. The tallies must agree — a cheap
    // whole-path guard on the encode → CRC frame → decode round trip.
    if run.fresh() && budget.is_none() {
        let streamed =
            (running.runs, running.safe, running.collisions, running.effective_injections);
        let stored = (
            report.jobs.len(),
            report.safe() as usize,
            report.collisions() as usize,
            report.effective_injections() as usize,
        );
        if streamed != stored {
            return Err(PlanError::new(format!(
                "store round-trip mismatch: streamed (runs, safe, collisions, effective) = \
                 {streamed:?} but the persisted records aggregate to {stored:?}"
            )));
        }
    }
    report.save(pipeline.root())?;
    pipeline.finish_stage("main", &run);
    pipeline.end(&run);
    Ok(PlanResult::Persisted(report))
}

/// The two-stage pipelines: `kind = "mine"` (the paper's golden → fit →
/// mine → validate loop) and `kind = "exhaustive"` (golden → enumerate →
/// inject every candidate, with no fit). Stage layout under the
/// `[output]` dir:
///
/// ```text
/// dir/golden/     trace-logging store of the golden runs
/// dir/validate/   outcome store of the mined-set validation   (mine)
/// dir/sweep/      outcome store of the full candidate sweep   (exhaustive)
/// dir/report.toml + jobs.csv — final report over the sweep stage
/// ```
///
/// Every stage resumes from disk: pending golden jobs are the only
/// golden simulations run, the 3-TBN re-fits (mine) or the candidates
/// are re-enumerated (exhaustive) **from the persisted traces**
/// (CPU-only — no re-simulation), both are pure functions of those
/// traces (so sweep job indices are stable across interruptions), and
/// the sweep store skips its persisted jobs.
/// A `budget` caps the *simulated* jobs of this invocation across both
/// stages; an invocation that exhausts it mid-golden leaves a progress
/// report inside `dir/golden/` and returns it.
fn run_two_stage(
    plan: &CampaignPlan,
    output: &OutputSpec,
    sim: SimConfig,
    suite: &ScenarioSuite,
    workers: usize,
    budget: Option<u64>,
) -> Result<PlanResult, PlanError> {
    let shared = suite.shared();
    let mut pipeline = Pipeline::begin(plan, output, workers, budget, None);

    // Stage 1: golden collection, traces persisted alongside outcomes.
    let (golden_run, golden_report) = run_golden_stage(&mut pipeline, suite, &shared, sim)?;
    if !golden_run.complete {
        // Budget exhausted mid-golden: hand back how far the stage got.
        pipeline.end(&golden_run);
        return Ok(PlanResult::Persisted(golden_report));
    }

    // Stage 2: enumerate the sweep from the persisted traces (resumable
    // by construction: deterministic CPU work over what stage 1 left on
    // disk). The candidate order is a pure function of the traces, so
    // job index i means the same fault on every resume. `mine` fits the
    // 3-TBN and mines; `exhaustive` injects every candidate, so it only
    // scans the store for each scene's eligibility and fits nothing.
    let golden_dir = pipeline.stage_dir(GOLDEN_SUBDIR);
    let (candidates, subdir) = match plan.kind {
        CampaignKind::Mine { scene_stride } => {
            // The golden corpus and the miner live only until the mined
            // set exists: the injection stage below needs neither.
            let config = MinerConfig { scene_stride, ..MinerConfig::default() };
            let (miner, corpus) =
                BayesianMiner::fit_from_store(golden_dir, config).map_err(store_err)?;
            // Mining stays on this thread; only the injection stages fan
            // out over `workers`. With compiled queries the mine stage is
            // a fraction of the validation sweep, and running it on two
            // threads as well made campaign wall times far less
            // repeatable on a shared 2-vCPU VM (campaignbench paper_mine:
            // the spread of the fastest runs ~5x wider) for a ~15%
            // shorter median.
            let mined = miner.mine_corpus(&corpus);
            (mined.iter().map(|c| (c.scenario_id, c.fault_spec())).collect(), VALIDATE_SUBDIR)
        }
        CampaignKind::Exhaustive { scene_stride } => {
            (candidate_specs_from_store(golden_dir, scene_stride).map_err(store_err)?, SWEEP_SUBDIR)
        }
        _ => unreachable!("run_two_stage only handles two-stage pipeline kinds"),
    };

    // Stage 3: the injection sweep, store-backed and resumable. The
    // stage takes the candidate list over, so it does not outlive the
    // jobs built from it.
    let stage = sweep_stage(
        subdir.into(),
        pipeline.stage_dir(subdir),
        pipeline.fingerprint,
        suite,
        &shared,
        candidates,
        sim,
    );
    let total = stage.total();
    let mut run = pipeline.run_stage(stage, None)?;

    // The final report aggregates the sweep store, at the pipeline root.
    let report = PlanReport::new(
        plan.name.clone(),
        plan.kind.name(),
        pipeline.fingerprint,
        total,
        std::mem::take(&mut run.records),
    );
    report.save(pipeline.root())?;
    pipeline.finish_stage(subdir, &run);
    pipeline.end(&run);
    Ok(PlanResult::Persisted(report))
}
