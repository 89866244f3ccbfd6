//! `kind = "adaptive"`: the posterior-guided acquisition loop.
//!
//! The pipeline opens like `kind = "mine"` — golden traces into
//! `golden/`, the 3-TBN fitted from the persisted store — but instead of
//! injecting one fixed candidate set, it closes the loop the paper
//! gestures at: the fitted network *scores* every unexplored candidate
//! by expected hazard-information gain
//! ([`drivefi_core::CandidateScorer`]), the top-`batch` candidates
//! inject into a per-round sub-store (`round-000/`, `round-001/`, …),
//! their outcomes update the posterior, and the next round re-scores.
//! The loop stops when the posterior converges (no group's hazard mean
//! moved more than `converge_eps` in a round), when `max_rounds` is
//! reached, or when the candidate space is exhausted.
//!
//! # Resumability
//!
//! Every decision is a pure function of persisted state, in round
//! order: the candidate enumeration comes from the golden traces, the
//! scorer's posterior is replayed from each complete round's records,
//! and batch selection is deterministic (sorted scores, index
//! tiebreak). An invocation that dies mid-round therefore re-selects
//! exactly the batch whose partial store it finds on disk, runs only
//! the missing jobs, and continues — byte-identical reports, same as
//! every other kind.

use super::pipeline::{run_golden_stage, sweep_stage, Pipeline};
use super::{CampaignKind, CampaignPlan, OutputSpec, PlanResult, GOLDEN_SUBDIR};
use crate::report::PlanReport;
use crate::scenario::{as_array, as_bool, as_float, as_table, as_uint, expect_keys, get};
use crate::toml::{emit_document, parse_document, Map, Toml};
use crate::PlanError;
use drivefi_core::{AcquisitionConfig, BayesianMiner, CandidateScorer, MinerConfig};
use drivefi_fault::FaultSpec;
use drivefi_sim::SimConfig;
use drivefi_store::CampaignRecord;
use drivefi_world::ScenarioSuite;
use std::path::{Path, PathBuf};

/// The `[adaptive]` plan section: the acquisition loop's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSection {
    /// Candidates injected per round. Part of the campaign fingerprint:
    /// the batch size shapes which outcomes each round's selection saw,
    /// so changing it changes every round after the first.
    pub batch: usize,
    /// Hard round cap. A rerun-safe stop criterion (excluded from the
    /// fingerprint): raising it extends a finished campaign.
    pub max_rounds: u32,
    /// Convergence threshold: stop once no posterior group's hazard
    /// mean moved more than this in a round. Rerun-safe like
    /// `max_rounds`.
    pub converge_eps: f64,
}

impl Default for AdaptiveSection {
    fn default() -> Self {
        AdaptiveSection { batch: 8, max_rounds: 16, converge_eps: 0.05 }
    }
}

/// Prefix of per-round sub-store directory names under the output root.
pub const ROUND_PREFIX: &str = "round-";

/// File the adaptive progress summary persists to, inside the
/// `[output]` dir.
pub const ROUNDS_FILE: &str = "rounds.toml";

/// Sub-store directory name of acquisition round `round`
/// (`"round-000"`, `"round-001"`, …).
pub fn round_subdir(round: u32) -> String {
    format!("{ROUND_PREFIX}{round:03}")
}

/// The per-round sub-store directories present under an adaptive
/// campaign's output root, in round order — for render, serve, and
/// diff tooling that aggregates a partially-run campaign.
pub fn round_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| {
            name.strip_prefix(ROUND_PREFIX)
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect();
    names.sort();
    names.into_iter().map(|name| root.join(name)).collect()
}

/// One acquisition round's summary line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Round index (0-based; sub-store `round-{round:03}/`).
    pub round: u32,
    /// Jobs injected this round.
    pub jobs: u64,
    /// Hazardous outcomes among them.
    pub hazards: u64,
    /// Hazardous outcomes across all rounds so far.
    pub cumulative_hazards: u64,
    /// Acquisition score of the round's top pick (before its outcome).
    pub top_score: f64,
    /// Largest posterior-mean shift any group saw from this round's
    /// outcomes — the convergence signal.
    pub max_shift: f64,
}

impl RoundSummary {
    fn to_toml(self) -> Toml {
        Toml::Table(Map::from([
            ("round".into(), Toml::Int(i64::from(self.round))),
            ("jobs".into(), Toml::Int(self.jobs as i64)),
            ("hazards".into(), Toml::Int(self.hazards as i64)),
            ("cumulative_hazards".into(), Toml::Int(self.cumulative_hazards as i64)),
            ("top_score".into(), Toml::Float(self.top_score)),
            ("max_shift".into(), Toml::Float(self.max_shift)),
        ]))
    }

    fn from_toml(value: &Toml) -> Result<RoundSummary, PlanError> {
        let table = as_table(value, "each `rounds` entry")?;
        let what = "a rounds entry";
        expect_keys(
            table,
            what,
            &["round", "jobs", "hazards", "cumulative_hazards", "top_score", "max_shift"],
        )?;
        Ok(RoundSummary {
            round: as_uint(get(table, what, "round")?, "`round`")? as u32,
            jobs: as_uint(get(table, what, "jobs")?, "`jobs`")?,
            hazards: as_uint(get(table, what, "hazards")?, "`hazards`")?,
            cumulative_hazards: as_uint(
                get(table, what, "cumulative_hazards")?,
                "`cumulative_hazards`",
            )?,
            top_score: as_float(get(table, what, "top_score")?, "`top_score`")?,
            max_shift: as_float(get(table, what, "max_shift")?, "`max_shift`")?,
        })
    }
}

/// The adaptive campaign's progress summary, persisted as
/// [`ROUNDS_FILE`] in the output dir and rendered as the per-round
/// table in reports. Rewritten after every completed round (and on a
/// mid-round budget stop), so a paused campaign's report still shows
/// how far acquisition got.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveProgress {
    /// Every completed round, in order.
    pub rounds: Vec<RoundSummary>,
    /// Size of the scored candidate space.
    pub candidates: u64,
    /// Whether the loop stopped on posterior convergence.
    pub converged: bool,
    /// Whether the loop stopped because every candidate was explored.
    pub exhausted: bool,
    /// 1-based campaign job number of the first hazardous injection,
    /// if any round found one — the "jobs to first `F_crit`" headline.
    pub jobs_to_first_hazard: Option<u64>,
    /// What an exhaustive sweep in candidate order would have paid *at
    /// most* to reach a hazard this campaign found: the smallest
    /// candidate index among explored hazards, 1-based. (Exhaustive
    /// might find an earlier hazard at an unexplored index, hence
    /// "upper bound".)
    pub exhaustive_upper_bound: Option<u64>,
    /// Expected jobs for uniform random sampling of the candidate
    /// space to hit a hazard, estimated from the explored outcomes as
    /// `(N + 1) / (H + 1)`.
    pub random_estimate: f64,
}

impl AdaptiveProgress {
    /// The progress summary as a TOML document string.
    pub fn to_toml(&self) -> String {
        let mut doc = Map::from([
            ("candidates".into(), Toml::Int(self.candidates as i64)),
            ("converged".into(), Toml::Bool(self.converged)),
            ("exhausted".into(), Toml::Bool(self.exhausted)),
            ("random_estimate".into(), Toml::Float(self.random_estimate)),
            ("rounds".into(), Toml::Array(self.rounds.iter().map(|r| r.to_toml()).collect())),
        ]);
        if let Some(n) = self.jobs_to_first_hazard {
            doc.insert("jobs_to_first_hazard".into(), Toml::Int(n as i64));
        }
        if let Some(n) = self.exhaustive_upper_bound {
            doc.insert("exhaustive_upper_bound".into(), Toml::Int(n as i64));
        }
        emit_document(&doc)
    }

    /// Parses a progress document produced by [`Self::to_toml`].
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] on malformed TOML, missing keys, or
    /// unknown keys.
    pub fn parse(src: &str) -> Result<AdaptiveProgress, PlanError> {
        let doc = parse_document(src)?;
        let what = "adaptive progress";
        expect_keys(
            &doc,
            what,
            &[
                "candidates",
                "converged",
                "exhausted",
                "jobs_to_first_hazard",
                "exhaustive_upper_bound",
                "random_estimate",
                "rounds",
            ],
        )?;
        let rounds = as_array(get(&doc, what, "rounds")?, "`rounds`")?
            .iter()
            .map(RoundSummary::from_toml)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AdaptiveProgress {
            rounds,
            candidates: as_uint(get(&doc, what, "candidates")?, "`candidates`")?,
            converged: as_bool(get(&doc, what, "converged")?, "`converged`")?,
            exhausted: as_bool(get(&doc, what, "exhausted")?, "`exhausted`")?,
            jobs_to_first_hazard: doc
                .get("jobs_to_first_hazard")
                .map(|v| as_uint(v, "`jobs_to_first_hazard`"))
                .transpose()?,
            exhaustive_upper_bound: doc
                .get("exhaustive_upper_bound")
                .map(|v| as_uint(v, "`exhaustive_upper_bound`"))
                .transpose()?,
            random_estimate: as_float(get(&doc, what, "random_estimate")?, "`random_estimate`")?,
        })
    }

    /// Loads the progress summary persisted in output directory `dir`,
    /// if any.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the file exists but is malformed.
    pub fn load(dir: &Path) -> Result<Option<AdaptiveProgress>, PlanError> {
        let path = dir.join(ROUNDS_FILE);
        match std::fs::read_to_string(&path) {
            Ok(src) => Self::parse(&src)
                .map(Some)
                .map_err(|e| PlanError::new(format!("{}: {e}", path.display()))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PlanError::new(format!("reading {}: {e}", path.display()))),
        }
    }

    fn save(&self, dir: &Path) -> Result<(), PlanError> {
        let path = dir.join(ROUNDS_FILE);
        let tmp = dir.join(format!(".{ROUNDS_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.to_toml())
            .map_err(|e| PlanError::new(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| PlanError::new(format!("replacing {}: {e}", path.display())))
    }
}

/// Baseline comparisons derived from the explored outcomes: the
/// first-hazard job number, the exhaustive-order upper bound, and the
/// uniform-random estimate.
fn baselines(
    all_records: &[CampaignRecord],
    explored_hazard_indices: &[usize],
    candidates: u64,
    explored_hazards: u64,
) -> (Option<u64>, Option<u64>, f64) {
    let jobs_to_first_hazard =
        all_records.iter().find(|r| r.outcome.is_hazardous()).map(|r| r.job + 1);
    let exhaustive_upper_bound = explored_hazard_indices.iter().min().map(|&i| i as u64 + 1);
    let random_estimate = (candidates + 1) as f64 / (explored_hazards + 1) as f64;
    (jobs_to_first_hazard, exhaustive_upper_bound, random_estimate)
}

/// The adaptive acquisition driver (see the module docs for the loop
/// and its resumability argument). Stage layout under the `[output]`
/// dir:
///
/// ```text
/// dir/golden/      trace-logging store of the golden runs
/// dir/round-000/   outcome store of acquisition round 0
/// dir/round-001/   …one per round, top-`batch` candidates each
/// dir/rounds.toml  per-round acquisition summary + baselines
/// dir/report.toml + jobs.csv — final report over every round store
/// ```
pub(super) fn run_adaptive(
    plan: &CampaignPlan,
    output: &OutputSpec,
    sim: SimConfig,
    suite: &ScenarioSuite,
    workers: usize,
    budget: Option<u64>,
) -> Result<PlanResult, PlanError> {
    let CampaignKind::Adaptive { scene_stride, adaptive } = plan.kind else {
        unreachable!("run_adaptive only handles adaptive plans")
    };
    let shared = suite.shared();
    let mut pipeline = Pipeline::begin(plan, output, workers, budget, None);

    // Stage 1: golden collection, shared with every pipeline kind.
    let (golden_run, golden_report) = run_golden_stage(&mut pipeline, suite, &shared, sim)?;
    let mut ran_any = golden_run.done_before < golden_run.total;
    if !golden_run.complete {
        pipeline.end(&golden_run);
        return Ok(PlanResult::Persisted(golden_report));
    }

    // Fit from the persisted traces and enumerate + score the candidate
    // space. `predict_deltas` keeps `candidate_specs` order, so a
    // candidate index means the same fault on every resume.
    let config = MinerConfig { scene_stride, ..MinerConfig::default() };
    let (miner, traces) = BayesianMiner::fit_from_store(pipeline.stage_dir(GOLDEN_SUBDIR), config)
        .map_err(|e| PlanError::new(format!("[output] store: {e}")))?;
    let predictions = miner.predict_deltas(&traces);
    let candidates: Vec<(u32, FaultSpec)> =
        predictions.iter().map(|p| (p.scenario_id, p.fault_spec())).collect();
    let mut scorer = CandidateScorer::new(&predictions, AcquisitionConfig::default());
    let mut explored = vec![false; candidates.len()];
    let mut explored_hazard_indices: Vec<usize> = Vec::new();

    let mut all_records: Vec<CampaignRecord> = Vec::new();
    let mut rounds: Vec<RoundSummary> = Vec::new();
    let mut base: u64 = 0;
    let mut cumulative_hazards: u64 = 0;
    let mut converged = false;
    let mut exhausted = false;

    for round in 0..adaptive.max_rounds {
        // Selection is a pure function of the posterior, which is a pure
        // function of the complete rounds replayed so far — so a resumed
        // invocation re-selects exactly the batch it finds on disk.
        let picks = scorer.select(&explored, adaptive.batch);
        let Some(&top) = picks.first() else {
            exhausted = true;
            break;
        };
        let top_score = scorer.score(top);
        let batch: Vec<(u32, FaultSpec)> = picks.iter().map(|&i| candidates[i]).collect();
        let name = round_subdir(round);
        let stage = sweep_stage(
            name.clone(),
            pipeline.stage_dir(&name),
            pipeline.fingerprint,
            suite,
            &shared,
            &batch,
            sim,
        );
        let means_before = scorer.posterior_means();
        let run = pipeline.run_stage(stage, None)?;
        ran_any |= run.done_before < run.total;

        let mut hazards = 0u64;
        for record in &run.records {
            let index = picks[record.job as usize];
            let hazardous = record.outcome.is_hazardous();
            scorer.observe(index, hazardous);
            explored[index] = true;
            if hazardous {
                hazards += 1;
                explored_hazard_indices.push(index);
            }
            // Renumber into the campaign-wide job sequence: rounds
            // concatenate, `base` is the jobs of all earlier rounds.
            let mut renumbered = *record;
            renumbered.job += base;
            all_records.push(renumbered);
        }
        cumulative_hazards += hazards;
        pipeline.finish_stage(&name, &run);

        if !run.complete {
            // Budget exhausted mid-round: persist a progress report over
            // everything on disk and stop cleanly. The next invocation
            // replays to this exact posterior and finishes the round.
            let (first, upper, random) = baselines(
                &all_records,
                &explored_hazard_indices,
                candidates.len() as u64,
                cumulative_hazards,
            );
            let report = PlanReport::new(
                plan.name.clone(),
                plan.kind.name(),
                pipeline.fingerprint,
                base + run.total,
                all_records,
            );
            report.save(pipeline.root())?;
            AdaptiveProgress {
                rounds,
                candidates: candidates.len() as u64,
                converged: false,
                exhausted: false,
                jobs_to_first_hazard: first,
                exhaustive_upper_bound: upper,
                random_estimate: random,
            }
            .save(pipeline.root())?;
            pipeline.end(&run);
            return Ok(PlanResult::Persisted(report));
        }

        let max_shift = means_before
            .iter()
            .zip(scorer.posterior_means())
            .map(|(before, after)| (before - after).abs())
            .fold(0.0, f64::max);
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

    // The final report concatenates every round store, at the root.
    let (first, upper, random) = baselines(
        &all_records,
        &explored_hazard_indices,
        candidates.len() as u64,
        cumulative_hazards,
    );
    let report = PlanReport::new(
        plan.name.clone(),
        plan.kind.name(),
        pipeline.fingerprint,
        base,
        all_records,
    );
    report.save(pipeline.root())?;
    AdaptiveProgress {
        rounds,
        candidates: candidates.len() as u64,
        converged,
        exhausted,
        jobs_to_first_hazard: first,
        exhaustive_upper_bound: upper,
        random_estimate: random,
    }
    .save(pipeline.root())?;
    pipeline.end_with(ran_any, true, base);
    Ok(PlanResult::Persisted(report))
}
