//! Layer calls timed off the campaign's path, on the workload's own
//! fitted model and job lists: one BN query per distinct key (how
//! `bayes.query_us` is defined), the inference calls a workload's
//! campaign does not make itself, and its injection stages rerun at one
//! worker and at the plan's worker count.

use crate::plans::{scene_stride, stage_dirs, Plans, Workload};
use crate::stats::median;
use drivefi_ads::Signal;
use drivefi_core::{
    AcquisitionConfig, BayesianMiner, CandidateScorer, MinerConfig, SceneObs, TbnVar,
};
use drivefi_fault::{FaultKey, ScalarFaultModel};
use drivefi_sim::{CampaignEngine, CampaignJob, FrameRecord, RunningStats, Trace};
use drivefi_store::{read_store, read_traces};
use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The memo key `BayesianMiner::mine` caches forecasts under.
type QueryKey = (SceneObs, SceneObs, usize, usize);

/// Rounds of the off-path acquisition probe.
const PROBE_ROUNDS: usize = 32;
/// Candidates selected per probe round.
const PROBE_BATCH: usize = 8;

/// What the probes measured. Times are seconds.
#[derive(Debug, Default)]
pub struct Probe {
    /// `|F|`: every candidate the miner considers.
    pub candidates: u64,
    /// Scenes with at least one candidate.
    pub scenes_evaluated: u64,
    /// Candidates that ask the memo for a forecast (the rest are no-ops).
    pub asked: u64,
    /// Distinct memo keys: the BN queries one mine call makes.
    pub distinct: u64,
    /// One `forecast` per distinct key.
    pub query_s: Vec<f64>,
    /// Off-path `mine` when the campaign does not mine: its time, the
    /// size of the mined set, and the set as `(scenario, fault)`.
    pub mine_s: Option<f64>,
    pub mined: Option<u64>,
    pub mined_set: BTreeSet<(u32, FaultKey)>,
    /// Off-path `predict_deltas`, `CandidateScorer::new`, and per-round
    /// `select` + `observe`, when the campaign does not run them.
    pub predict_s: Option<f64>,
    pub score_s: Option<f64>,
    pub select_s: Vec<f64>,
    /// Injection jobs rerun, and their engine time at 1 and N workers.
    pub inject_jobs: u64,
    pub inject_w1_s: f64,
    pub inject_wn_s: f64,
    pub workers: usize,
}

/// The miner the run's inference campaign fitted, refitted from its
/// golden store, and the traces it was fitted on.
fn fitted(plans: &Plans, run_dir: &Path) -> Result<(BayesianMiner, Vec<Trace>), String> {
    let (plan, root) = plans.inference(run_dir);
    let (_, traces) =
        read_traces(root.join(drivefi_plan::GOLDEN_SUBDIR)).map_err(|e| e.to_string())?;
    let config = MinerConfig { scene_stride: scene_stride(plan), ..MinerConfig::default() };
    let miner = BayesianMiner::fit(&traces, config).map_err(|e| e.to_string())?;
    Ok((miner, traces))
}

/// `|F|` of the run's inference campaign.
pub fn candidate_count(plans: &Plans, run_dir: &Path) -> Result<u64, String> {
    let (miner, traces) = fitted(plans, run_dir)?;
    Ok(miner.candidate_count(&traces) as u64)
}

/// Runs every probe on the stores a finished run left in `run_dir`.
pub fn run(plans: &Plans, run_dir: &Path) -> Result<Probe, String> {
    let (miner, traces) = fitted(plans, run_dir)?;
    let mut probe = Probe::default();
    let keys = query_keys(&miner, &traces, &mut probe);
    probe.distinct = keys.len() as u64;
    for (obs0, obs1, var, category) in &keys {
        let start = Instant::now();
        black_box(miner.forecast(obs0, obs1, TbnVar::ALL[*var], *category))
            .map_err(|e| e.to_string())?;
        probe.query_s.push(start.elapsed().as_secs_f64());
    }

    if !matches!(plans.workload, Workload::PaperMine | Workload::ServedMixed) {
        let start = Instant::now();
        let mined = black_box(miner.mine(&traces));
        probe.mine_s = Some(start.elapsed().as_secs_f64());
        probe.mined = Some(mined.len() as u64);
        probe.mined_set = mined.iter().map(|c| (c.scenario_id, c.fault_spec().key())).collect();
    }

    if plans.workload != Workload::AdaptiveRounds {
        let start = Instant::now();
        let predictions = black_box(miner.predict_deltas(&traces));
        probe.predict_s = Some(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut scorer = CandidateScorer::new(&predictions, AcquisitionConfig::default());
        probe.score_s = Some(start.elapsed().as_secs_f64());
        // Stand-in outcomes: the model's own verdict on each pick.
        let mut explored = vec![false; predictions.len()];
        for _ in 0..PROBE_ROUNDS {
            let start = Instant::now();
            let picks = scorer.select(&explored, PROBE_BATCH);
            if picks.is_empty() {
                break;
            }
            for &i in &picks {
                scorer.observe(i, predictions[i].predicted_delta <= 0.0);
                explored[i] = true;
            }
            black_box(scorer.posterior_means());
            probe.select_s.push(start.elapsed().as_secs_f64());
        }
    }

    worker_scaling(plans, run_dir, &mut probe)?;
    Ok(probe)
}

/// The memo keys `mine` would look up, enumerated from outside with the
/// miner's public candidate and discretization calls.
fn query_keys(miner: &BayesianMiner, traces: &[Trace], probe: &mut Probe) -> Vec<QueryKey> {
    let model = miner.model();
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    for trace in traces {
        let mut last_scene = None;
        for (k, signal, var, fault) in miner.candidates(trace) {
            probe.candidates += 1;
            if last_scene.replace(k) != Some(k) {
                probe.scenes_evaluated += 1;
            }
            let value = match fault {
                ScalarFaultModel::StuckMin => signal.range().min,
                ScalarFaultModel::StuckMax => signal.range().max,
                _ => continue,
            };
            let category = model.category_of(var, value);
            let obs0 = model.observe(&trace.frames[k - 1]);
            let obs1 = model.observe(&trace.frames[k]);
            let noop = match recorded_exact(&trace.frames[k], signal) {
                Some(recorded) => recorded.is_some_and(|r| (r - value).abs() < 1e-9),
                None => model.obs_category(var, &obs1) == category,
            };
            if noop {
                continue;
            }
            probe.asked += 1;
            let key = (obs0, obs1, var.index(), category);
            if seen.insert(key) {
                keys.push(key);
            }
        }
    }
    keys
}

/// For the signals whose injected value the miner applies exactly, the
/// recorded value (`Some(None)` when the trace lacks it); `None` for the
/// signals it compares by bin.
fn recorded_exact(frame: &FrameRecord, signal: Signal) -> Option<Option<f64>> {
    match signal {
        Signal::FinalThrottle => Some(Some(frame.final_cmd.throttle)),
        Signal::FinalBrake => Some(Some(frame.final_cmd.brake)),
        Signal::FinalSteering => Some(Some(frame.final_cmd.steering)),
        Signal::RawSteering => Some(Some(frame.raw_cmd.steering)),
        _ => None,
    }
}

/// Reruns every injection stage of the run, job for job and stage by
/// stage, at one worker and at the plan's worker count, with a tally
/// sink instead of a store. Up to three alternating pairs; medians.
fn worker_scaling(plans: &Plans, run_dir: &Path, probe: &mut Probe) -> Result<(), String> {
    let mut stages = Vec::new();
    for (file, root) in plans.files.iter().zip(plans.store_roots(run_dir)) {
        let plan = &file.plan;
        let shared: Vec<Arc<drivefi_world::ScenarioConfig>> = plan.scenarios.build_suite().shared();
        let workers = plan.workers.unwrap_or_else(drivefi_sim::default_workers);
        probe.workers = probe.workers.max(workers);
        for (dir, injection) in stage_dirs(plan, &root) {
            if injection {
                let (_, records) = read_store(&dir).map_err(|e| e.to_string())?;
                probe.inject_jobs += records.len() as u64;
                stages.push((plan.sim.sim_config(), shared.clone(), records, workers));
            }
        }
    }
    let run_all = |one_worker: bool| {
        let start = Instant::now();
        for (sim, shared, records, workers) in &stages {
            let jobs = records.iter().map(|r| CampaignJob {
                id: r.job,
                scenario: Arc::clone(&shared[r.scenario_id as usize]),
                faults: r.fault.map(|f| f.compile()).into_iter().collect(),
            });
            let workers = if one_worker { 1 } else { *workers };
            CampaignEngine::new(*sim).with_workers(workers).run(jobs, &mut RunningStats::new());
        }
        start.elapsed().as_secs_f64()
    };
    let (mut w1, mut wn) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while w1.len() < 3 && (w1.is_empty() || start.elapsed().as_secs_f64() < 6.0) {
        w1.push(run_all(true));
        wn.push(run_all(false));
    }
    probe.inject_w1_s = median(&w1);
    probe.inject_wn_s = median(&wn);
    Ok(())
}
