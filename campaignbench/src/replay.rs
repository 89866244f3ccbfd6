//! The traced repetition: the same stages `run_plan_budget` and `serve`
//! run, replayed as timed calls into each layer's public functions. Its
//! reports must be byte-identical to the untraced run's — the digest
//! check is what proves the replay did the same work.

use crate::plans::{scene_stride, Plans, Workload, SERVE_ROOT};
use crate::tracer::Tracer;
use crate::untraced::fresh_dir;
use drivefi_core::{
    candidate_record_metas, candidate_specs, golden_record_metas, pick_record_metas,
    random_fault_picks, AcquisitionConfig, BayesianMiner, CandidateScorer, MinerConfig,
    RandomCampaignConfig,
};
use drivefi_fault::FaultSpec;
use drivefi_plan::{
    campaign_fingerprint, round_dirs, round_subdir, AdaptiveProgress, CampaignKind, CampaignPlan,
    ControlVerdict, OutputSpec, PlanReport, RoundSummary, CONTROL_FILE, GOLDEN_SUBDIR, ROUNDS_FILE,
    SWEEP_SUBDIR, VALIDATE_SUBDIR,
};
use drivefi_serve::{
    claim_submissions, submit_plan, CampaignState, CampaignStatus, PLAN_FILE, SPOOL_DIR,
};
use drivefi_sim::{
    CampaignEngine, CampaignJob, CampaignResult, CampaignSink, RunningStats, SimConfig, Simulation,
};
use drivefi_store::{
    compact_store, open_store, open_store_with_traces, read_manifest, read_store, read_traces,
    CampaignRecord, RecordMeta, StoreSink, MANIFEST_FILE,
};
use drivefi_world::{ScenarioConfig, ScenarioSuite};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Replays one repetition of the workload in `run_dir`; returns its wall
/// time, measured over the same interval as the untraced `wall_s`.
pub fn rep(plans: &Plans, run_dir: &Path, t: &mut Tracer) -> Result<f64, String> {
    fresh_dir(run_dir)?;
    let serve_root = run_dir.join(SERVE_ROOT);
    // The untraced set-up, call by call.
    let parsed = t.span("setup", |t| {
        let mut parsed = Vec::new();
        for file in &plans.files {
            let plan = t.span("plan.parse", |_| CampaignPlan::load(&file.path)).map_err(err)?;
            t.span("world.build_suite", |_| std::hint::black_box(plan.scenarios.build_suite()));
            parsed.push(plan);
        }
        if plans.workload == Workload::ServedMixed {
            for file in &plans.files {
                t.span("serve.submit", |_| submit_plan(&serve_root, &file.path)).map_err(err)?;
            }
        }
        Ok::<_, String>(parsed)
    })?;
    let start = Instant::now();
    match plans.workload {
        Workload::ServedMixed => t.span("serve.run", |t| serve(&serve_root, plans.slice, t))?,
        _ => {
            t.count("serve.slices", 1);
            t.span("serve.slice", |t| run_plan_budget(&parsed[0], None, t))?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `run_plan_budget`, stage by stage.
fn run_plan_budget(
    plan: &CampaignPlan,
    budget: Option<u64>,
    t: &mut Tracer,
) -> Result<PlanReport, String> {
    let sim = plan.sim.sim_config();
    let suite = t.span("world.build_suite", |_| plan.scenarios.build_suite());
    let workers = plan.workers.unwrap_or_else(drivefi_sim::default_workers);
    let output = plan.output.as_ref().ok_or("the benchmark's plans all have [output]")?;
    let root = PathBuf::from(&output.dir);
    if matches!(
        plan.kind,
        CampaignKind::Random { .. } | CampaignKind::Mine { .. } | CampaignKind::Adaptive { .. }
    ) {
        t.span("sim.control", |_| control_point(plan, &sim, &suite, &root))?;
    }
    let mut pipeline = Pipeline {
        plan,
        output,
        fingerprint: campaign_fingerprint(plan),
        root,
        workers,
        budget,
        shared: suite.shared(),
        suite: &suite,
        sim,
    };
    match plan.kind {
        CampaignKind::Random { runs } => pipeline.single_stage(runs, t),
        CampaignKind::Mine { .. } | CampaignKind::Exhaustive { .. } => pipeline.two_stage(t),
        CampaignKind::Adaptive { .. } if budget.is_none() => pipeline.adaptive(t),
        _ => Err(format!("the benchmark does not replay `{}` plans", plan.kind.name())),
    }
}

/// The unfaulted control job, recalled from `control.toml` when a
/// previous slice already ran it.
fn control_point(
    plan: &CampaignPlan,
    sim: &SimConfig,
    suite: &ScenarioSuite,
    dir: &Path,
) -> Result<(), String> {
    let verdict = match ControlVerdict::load(dir).map_err(err)? {
        Some(verdict) => verdict,
        None => {
            let Some(scenario) = suite.scenarios.first() else { return Ok(()) };
            let report = Simulation::new(SimConfig { record_trace: false, ..*sim }, scenario).run();
            let verdict = ControlVerdict {
                scenario_id: scenario.id,
                scenario_name: scenario.name.clone(),
                outcome: report.outcome.to_string(),
                survivable: report.outcome.is_safe(),
            };
            std::fs::create_dir_all(dir).map_err(err)?;
            let tmp = dir.join(format!(".{CONTROL_FILE}.tmp.{}", std::process::id()));
            std::fs::write(&tmp, verdict.to_toml()).map_err(err)?;
            std::fs::rename(&tmp, dir.join(CONTROL_FILE)).map_err(err)?;
            verdict
        }
    };
    if plan.control.assert_survivable && !verdict.survivable {
        return Err(format!(
            "control job failed: scenario {} ended {}",
            verdict.scenario_id, verdict.outcome
        ));
    }
    Ok(())
}

/// One stage: its store, how its jobs simulate, and which sim layer
/// its engine run is timed as.
struct Stage {
    dir: PathBuf,
    traces: bool,
    sim: SimConfig,
    metas: Vec<RecordMeta>,
    jobs: Vec<CampaignJob>,
    layer: &'static str,
}

struct StageRun {
    total: u64,
    complete: bool,
    records: Vec<CampaignRecord>,
}

/// [`StoreSink`] with every `accept` timed; an accept that appends the
/// `checkpoint_every`-th record since the store opened also carries a
/// checkpoint.
struct TimedSink<'a> {
    inner: StoreSink<'a>,
    running: Option<RunningStats>,
    checkpoint_every: u64,
    accepts: Vec<f64>,
    checkpoints: Vec<f64>,
}

impl CampaignSink for TimedSink<'_> {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        let running = self.running.as_mut().map(|r| (r, result.clone()));
        let start = Instant::now();
        self.inner.accept(index, result);
        let took = start.elapsed().as_secs_f64();
        self.accepts.push(took);
        if (self.accepts.len() as u64).is_multiple_of(self.checkpoint_every) {
            self.checkpoints.push(took);
        }
        if let Some((running, result)) = running {
            running.accept(index, result);
        }
    }
}

struct Pipeline<'a> {
    plan: &'a CampaignPlan,
    output: &'a OutputSpec,
    fingerprint: u64,
    root: PathBuf,
    workers: usize,
    budget: Option<u64>,
    suite: &'a ScenarioSuite,
    shared: Vec<Arc<ScenarioConfig>>,
    sim: SimConfig,
}

impl Pipeline<'_> {
    /// Opens or recovers the stage store, runs its pending jobs within
    /// the budget, seals it and reads it back.
    fn run_stage(
        &mut self,
        stage: Stage,
        running: Option<&mut RunningStats>,
        t: &mut Tracer,
    ) -> Result<StageRun, String> {
        let total = stage.metas.len() as u64;
        let open = if stage.traces { open_store_with_traces } else { open_store };
        let opened = t.span("store.open", |_| {
            open(
                &stage.dir,
                self.fingerprint,
                total,
                self.output.shards,
                self.output.checkpoint_every,
            )
        });
        let (mut writer, state) = opened.map_err(err)?;
        t.count("store.checkpoints", 1);
        let engine = CampaignEngine::new(stage.sim).with_workers(self.workers);
        let mut sink = TimedSink {
            inner: StoreSink::new(&mut writer, &stage.metas),
            running: running.as_ref().map(|_| RunningStats::new()),
            checkpoint_every: self.output.checkpoint_every,
            accepts: Vec::new(),
            checkpoints: Vec::new(),
        };
        let budget = self.budget;
        let ran = t.span(stage.layer, |t| {
            let ran =
                engine.run_skipping_budget(stage.jobs, |id| state.is_done(id), budget, &mut sink);
            t.calls("store.accept", &sink.accepts);
            ran
        });
        let TimedSink { inner, running: streamed, checkpoints, .. } = sink;
        if let (Some(running), Some(streamed)) = (running, streamed) {
            *running = streamed;
        }
        t.count("store.checkpoints", checkpoints.len() as u64 + 2);
        // Both finishes checkpoint: the sink's flush, then the seal.
        t.samples("store.checkpoint", &checkpoints);
        let start = Instant::now();
        t.span("store.finish", |_| inner.finish()).map_err(err)?;
        let sink_finished = start.elapsed().as_secs_f64();
        let meta = t.span("store.finish", |_| writer.finish()).map_err(err)?;
        t.samples(
            "store.checkpoint",
            &[sink_finished, start.elapsed().as_secs_f64() - sink_finished],
        );
        self.budget = self.budget.map(|b| b.saturating_sub(ran));
        t.count(
            if stage.layer == "sim.golden" { "sim.golden_jobs" } else { "sim.inject_jobs" },
            ran,
        );
        let (_, records) = t.span("store.read", |_| read_store(&stage.dir)).map_err(err)?;
        Ok(StageRun { total, complete: meta.complete, records })
    }

    fn report(
        &self,
        total: u64,
        records: Vec<CampaignRecord>,
        dir: &Path,
        t: &mut Tracer,
    ) -> Result<PlanReport, String> {
        t.span("plan.report", |_| {
            let report = PlanReport::new(
                self.plan.name.clone(),
                self.plan.kind.name(),
                self.fingerprint,
                total,
                records,
            );
            report.save(dir).map(|()| report)
        })
        .map_err(err)
    }

    fn injection_stage(&self, dir: PathBuf, candidates: &[(u32, FaultSpec)]) -> Stage {
        Stage {
            dir,
            traces: false,
            sim: self.sim,
            metas: candidate_record_metas(self.suite, candidates),
            jobs: candidates
                .iter()
                .enumerate()
                .map(|(id, &(scenario_id, spec))| CampaignJob {
                    id: id as u64,
                    scenario: Arc::clone(&self.shared[scenario_id as usize]),
                    faults: vec![spec.compile()],
                })
                .collect(),
            layer: "sim.inject",
        }
    }

    /// The golden stage every staged kind starts with, and its progress
    /// report inside the golden store.
    fn golden(&mut self, t: &mut Tracer) -> Result<(StageRun, PlanReport), String> {
        let dir = self.root.join(GOLDEN_SUBDIR);
        let stage = Stage {
            dir: dir.clone(),
            traces: true,
            sim: SimConfig { record_trace: true, stop_on_collision: false, ..self.sim },
            metas: golden_record_metas(self.suite),
            jobs: self
                .shared
                .iter()
                .enumerate()
                .map(|(id, scenario)| CampaignJob {
                    id: id as u64,
                    scenario: Arc::clone(scenario),
                    faults: Vec::new(),
                })
                .collect(),
            layer: "sim.golden",
        };
        let mut run = self.run_stage(stage, None, t)?;
        let report = self.report(run.total, std::mem::take(&mut run.records), &dir, t)?;
        Ok((run, report))
    }

    /// The miner fitted from the persisted golden traces.
    fn fit(&self, t: &mut Tracer) -> Result<(BayesianMiner, Vec<drivefi_sim::Trace>), String> {
        let dir = self.root.join(GOLDEN_SUBDIR);
        let (_, traces) = t.span("store.read_traces", |_| read_traces(&dir)).map_err(err)?;
        let config =
            MinerConfig { scene_stride: scene_stride(self.plan), ..MinerConfig::default() };
        let miner = t.span("core.fit", |_| BayesianMiner::fit(&traces, config)).map_err(err)?;
        Ok((miner, traces))
    }

    fn single_stage(&mut self, runs: usize, t: &mut Tracer) -> Result<PlanReport, String> {
        let config = RandomCampaignConfig { runs, seed: self.plan.seed, workers: self.workers };
        let picks = random_fault_picks(self.suite, &self.plan.faults, &config);
        let stage = Stage {
            dir: self.root.clone(),
            traces: false,
            sim: self.sim,
            metas: pick_record_metas(self.suite, &picks),
            jobs: picks
                .iter()
                .enumerate()
                .map(|(id, &(index, spec))| CampaignJob {
                    id: id as u64,
                    scenario: Arc::clone(&self.shared[index]),
                    faults: vec![spec.compile()],
                })
                .collect(),
            layer: "sim.inject",
        };
        let mut running = RunningStats::new();
        let mut run = self.run_stage(stage, Some(&mut running), t)?;
        let root = self.root.clone();
        let report = self.report(run.total, std::mem::take(&mut run.records), &root, t)?;
        if self.budget.is_none() && running.runs != report.jobs.len() {
            return Err("streamed and persisted record counts differ".into());
        }
        Ok(report)
    }

    fn two_stage(&mut self, t: &mut Tracer) -> Result<PlanReport, String> {
        let (golden, golden_report) = self.golden(t)?;
        if !golden.complete {
            return Ok(golden_report);
        }
        let (miner, traces) = self.fit(t)?;
        let (candidates, subdir): (Vec<(u32, FaultSpec)>, _) = match self.plan.kind {
            CampaignKind::Mine { .. } => {
                t.count("core.inference_calls", 1);
                let mined = t.span("core.mine", |_| miner.mine(&traces));
                t.set_count("core.mined", mined.len() as u64);
                (mined.iter().map(|c| (c.scenario_id, c.fault_spec())).collect(), VALIDATE_SUBDIR)
            }
            _ => (t.span("core.candidates", |_| candidate_specs(&miner, &traces)), SWEEP_SUBDIR),
        };
        let stage = self.injection_stage(self.root.join(subdir), &candidates);
        let mut run = self.run_stage(stage, None, t)?;
        let root = self.root.clone();
        self.report(run.total, std::mem::take(&mut run.records), &root, t)
    }

    /// The acquisition loop, unbudgeted.
    fn adaptive(&mut self, t: &mut Tracer) -> Result<PlanReport, String> {
        let CampaignKind::Adaptive { adaptive, .. } = self.plan.kind else {
            unreachable!("dispatched on the kind")
        };
        let (golden, _) = self.golden(t)?;
        if !golden.complete {
            return Err("an unbudgeted golden stage always completes".into());
        }
        let (miner, traces) = self.fit(t)?;
        t.count("core.inference_calls", 1);
        let predictions = t.span("core.predict", |_| miner.predict_deltas(&traces));
        let candidates: Vec<(u32, FaultSpec)> =
            predictions.iter().map(|p| (p.scenario_id, p.fault_spec())).collect();
        let mut scorer = t.span("core.score", |_| {
            CandidateScorer::new(&predictions, AcquisitionConfig::default())
        });
        let mut explored = vec![false; candidates.len()];
        let mut explored_hazards: Vec<usize> = Vec::new();
        let mut all_records: Vec<CampaignRecord> = Vec::new();
        let mut rounds: Vec<RoundSummary> = Vec::new();
        let (mut base, mut cumulative_hazards) = (0u64, 0u64);
        let (mut converged, mut exhausted) = (false, false);
        let mut select_s = Vec::new();
        for round in 0..adaptive.max_rounds {
            let start = Instant::now();
            let (picks, top_score, means_before) = t.span("core.select", |_| {
                let picks = scorer.select(&explored, adaptive.batch);
                let top = picks.first().map(|&top| scorer.score(top));
                (picks, top, scorer.posterior_means())
            });
            let selected = start.elapsed().as_secs_f64();
            let Some(top_score) = top_score else {
                exhausted = true;
                break;
            };
            let batch: Vec<(u32, FaultSpec)> = picks.iter().map(|&i| candidates[i]).collect();
            let stage = self.injection_stage(self.root.join(round_subdir(round)), &batch);
            let run = self.run_stage(stage, None, t)?;
            if !run.complete {
                return Err("an unbudgeted round always completes".into());
            }
            let start = Instant::now();
            let (hazards, max_shift) = t.span("core.select", |_| {
                let mut hazards = 0u64;
                for record in &run.records {
                    let index = picks[record.job as usize];
                    let hazardous = record.outcome.is_hazardous();
                    scorer.observe(index, hazardous);
                    explored[index] = true;
                    if hazardous {
                        hazards += 1;
                        explored_hazards.push(index);
                    }
                    let mut renumbered = *record;
                    renumbered.job += base;
                    all_records.push(renumbered);
                }
                let max_shift = means_before
                    .iter()
                    .zip(scorer.posterior_means())
                    .map(|(before, after)| (before - after).abs())
                    .fold(0.0, f64::max);
                (hazards, max_shift)
            });
            select_s.push(selected + start.elapsed().as_secs_f64());
            cumulative_hazards += hazards;
            rounds.push(RoundSummary {
                round,
                jobs: run.total,
                hazards,
                cumulative_hazards,
                top_score,
                max_shift,
            });
            base += run.total;
            if max_shift <= adaptive.converge_eps {
                converged = true;
                break;
            }
        }
        t.samples("core.select_round", &select_s);
        let progress = AdaptiveProgress {
            rounds,
            candidates: candidates.len() as u64,
            converged,
            exhausted,
            jobs_to_first_hazard: all_records
                .iter()
                .find(|r| r.outcome.is_hazardous())
                .map(|r| r.job + 1),
            exhaustive_upper_bound: explored_hazards.iter().min().map(|&i| i as u64 + 1),
            random_estimate: (candidates.len() as u64 + 1) as f64 / (cumulative_hazards + 1) as f64,
        };
        let root = self.root.clone();
        let report = self.report(base, all_records, &root, t)?;
        t.span("plan.report", |_| {
            let tmp = root.join(format!(".{ROUNDS_FILE}.tmp.{}", std::process::id()));
            std::fs::write(&tmp, progress.to_toml())?;
            std::fs::rename(&tmp, root.join(ROUNDS_FILE))
        })
        .map_err(err)?;
        Ok(report)
    }
}

/// One admitted serve campaign.
struct Admitted {
    dir: PathBuf,
    plan: CampaignPlan,
    status: CampaignStatus,
}

/// The serve daemon's drain loop: claim, one weighted slice per active
/// campaign per round, at most one compaction between rounds.
fn serve(root: &Path, slice: u64, t: &mut Tracer) -> Result<(), String> {
    for dir in [SPOOL_DIR, drivefi_serve::CAMPAIGNS_DIR] {
        std::fs::create_dir_all(root.join(dir)).map_err(err)?;
    }
    let mut campaigns: Vec<Admitted> = Vec::new();
    loop {
        for dir in t.span("serve.claim", |_| claim_submissions(root)).map_err(err)? {
            let admitted = t.span("serve.admit", |_| admit(dir))?;
            campaigns.push(admitted);
        }
        let mut sliced = false;
        for campaign in &mut campaigns {
            if !matches!(campaign.status.state, CampaignState::Queued | CampaignState::Running) {
                continue;
            }
            let budget = slice.saturating_mul(u64::from(campaign.plan.submit.weight)).max(1);
            campaign.status.slices += 1;
            t.count("serve.slices", 1);
            let report =
                t.span("serve.slice", |t| run_plan_budget(&campaign.plan, Some(budget), t))?;
            let status = &mut campaign.status;
            status.done = report.jobs.len() as u64;
            status.total = report.total_jobs;
            status.safe = report.safe();
            status.hazards = report.hazards();
            status.collisions = report.collisions();
            status.state =
                if report.complete() { CampaignState::Done } else { CampaignState::Running };
            t.span("serve.status", |_| status.save(&campaign.dir)).map_err(err)?;
            sliced = true;
        }
        let compacted = t.span("serve.compact", |_| compact_one(&campaigns))?;
        let spool_empty = std::fs::read_dir(root.join(SPOOL_DIR))
            .map_err(err)?
            .filter_map(Result::ok)
            .all(|e| e.file_name().to_string_lossy().starts_with('.'));
        if !sliced && !compacted && spool_empty {
            return Ok(());
        }
    }
}

fn admit(dir: PathBuf) -> Result<Admitted, String> {
    let mut plan = CampaignPlan::load(dir.join(PLAN_FILE)).map_err(err)?;
    let store = dir.join(drivefi_serve::scheduler::STORE_DIR);
    let spec = plan.output.take().unwrap_or_else(|| OutputSpec::new(""));
    plan.output = Some(OutputSpec { dir: store.display().to_string(), ..spec });
    let status = CampaignStatus::queued(plan.name.clone(), plan.kind.name());
    status.save(&dir).map_err(err)?;
    Ok(Admitted { dir, plan, status })
}

/// Compacts at most one sealed, not yet compacted stage store.
fn compact_one(campaigns: &[Admitted]) -> Result<bool, String> {
    const MARKER: &str = ".compacted";
    for campaign in campaigns {
        let root =
            PathBuf::from(&campaign.plan.output.as_ref().expect("admitted plans have output").dir);
        let dirs: Vec<PathBuf> = match campaign.plan.kind.store_subdir() {
            Some(subdir) => vec![root.join(GOLDEN_SUBDIR), root.join(subdir)],
            None if campaign.plan.kind.is_staged() => {
                std::iter::once(root.join(GOLDEN_SUBDIR)).chain(round_dirs(&root)).collect()
            }
            None => vec![root],
        };
        for dir in dirs {
            if !dir.join(MANIFEST_FILE).is_file() || dir.join(MARKER).is_file() {
                continue;
            }
            if !read_manifest(&dir).is_ok_and(|meta| meta.complete) {
                continue;
            }
            compact_store(&dir).map_err(err)?;
            std::fs::write(dir.join(MARKER), b"").map_err(err)?;
            return Ok(true);
        }
    }
    Ok(false)
}
