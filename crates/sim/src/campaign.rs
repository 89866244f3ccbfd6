//! Parallel fault-injection campaigns.
//!
//! A campaign is a stream of (scenario × fault) jobs executed on a
//! worker pool. The [`CampaignEngine`] collects the pending jobs from a
//! [`JobSource`], groups them into one task per scenario, and runs each
//! task on one worker: every job on its own [`crate::Simulation`],
//! forked from the task's golden pilot so the scenario's fault-free
//! prefix is simulated once, and results stream into a
//! [`CampaignSink`] as tasks complete. Every job is fully deterministic
//! (scenario seed + sensor seed) and a forked job is bit-identical to
//! `Simulation::run_with` of the same job, so campaign results are
//! reproducible regardless of scheduling or worker count.

use crate::batch::ScenarioTask;
use crate::engine::{default_workers, stream_map, IndexedSlots};
use crate::outcome::RunReport;
use crate::simulation::SimConfig;
use crate::trace::Trace;
use drivefi_fault::Fault;
use drivefi_world::ScenarioConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One campaign job: a scenario plus the faults to arm.
///
/// The scenario rides behind an [`Arc`]: a scenario × fault cross-product
/// shares **one** allocation per scenario across all its jobs (an
/// exhaustive sweep over a 40 s scenario spawns hundreds of jobs; deep-
/// cloning road + actor storage per job dominated dispatch cost).
/// Cloning a job is therefore cheap — a pointer bump plus the fault list.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// Caller-chosen identifier carried through to the result.
    pub id: u64,
    /// The scenario to drive, shared across jobs.
    pub scenario: Arc<ScenarioConfig>,
    /// The faults to arm (empty = golden run).
    pub faults: Vec<Fault>,
}

impl CampaignJob {
    /// A job over an owned scenario (wraps it in a fresh [`Arc`]). For
    /// many jobs over one scenario, build the `Arc` once and share it.
    pub fn new(id: u64, scenario: ScenarioConfig, faults: Vec<Fault>) -> Self {
        CampaignJob { id, scenario: Arc::new(scenario), faults }
    }
}

/// The result of one campaign job.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The job identifier.
    pub id: u64,
    /// The run report.
    pub report: RunReport,
}

/// A source of campaign jobs. Iterator-backed: anything that can be
/// turned into a `Send` iterator of [`CampaignJob`]s qualifies. The
/// engine collects the pending jobs before dispatch, so a sweep's job
/// list is held in memory (jobs share their scenario's allocation).
pub trait JobSource {
    /// The job iterator type.
    type Iter: Iterator<Item = CampaignJob> + Send;
    /// Converts the source into its job stream.
    fn into_jobs(self) -> Self::Iter;
}

impl<I> JobSource for I
where
    I: IntoIterator<Item = CampaignJob>,
    I::IntoIter: Send,
{
    type Iter = I::IntoIter;
    fn into_jobs(self) -> Self::Iter {
        self.into_iter()
    }
}

/// A consumer of streamed campaign results. `index` is the job's
/// submission order (0-based), which sinks use to restore determinism
/// when completion order varies with scheduling.
pub trait CampaignSink {
    /// Accepts the result of the `index`-th submitted job.
    fn accept(&mut self, index: u64, result: CampaignResult);
}

impl<F: FnMut(u64, CampaignResult)> CampaignSink for F {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        self(index, result)
    }
}

/// Fans one result stream into two sinks — e.g. a persistent store plus
/// in-memory running statistics in a single engine pass. Nest `Tee`s for
/// more than two consumers.
#[derive(Debug)]
pub struct Tee<'a, A: ?Sized, B: ?Sized>(pub &'a mut A, pub &'a mut B);

impl<A, B> CampaignSink for Tee<'_, A, B>
where
    A: CampaignSink + ?Sized,
    B: CampaignSink + ?Sized,
{
    fn accept(&mut self, index: u64, result: CampaignResult) {
        self.0.accept(index, result.clone());
        self.1.accept(index, result);
    }
}

/// Order-restoring collector: buffers streamed results and yields them
/// in submission order.
#[derive(Debug, Default)]
pub struct Collector {
    slots: IndexedSlots<CampaignResult>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// The collected results, in job-submission order.
    ///
    /// # Panics
    ///
    /// Panics if an index gap is found (a job produced no result), which
    /// cannot happen for results streamed by [`CampaignEngine::run`].
    pub fn into_results(self) -> Vec<CampaignResult> {
        self.slots.into_vec("every job produces a result")
    }
}

impl CampaignSink for Collector {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        self.slots.put(index, result);
    }
}

/// Running-statistics sink for hazard-rate campaigns: constant-memory
/// outcome counters plus the (submission-ordered) set of hazardous jobs.
#[derive(Debug, Default, Clone)]
pub struct RunningStats {
    /// Jobs seen.
    pub runs: usize,
    /// Jobs ending safe.
    pub safe: usize,
    /// Jobs with δ ≤ 0 but no collision.
    pub hazards: usize,
    /// Jobs with a collision.
    pub collisions: usize,
    /// Jobs in which the injector corrupted at least one live value.
    pub effective_injections: usize,
    /// Submission indices of hazardous jobs (BTreeSet: deterministic
    /// iteration order regardless of completion order).
    pub hazardous_indices: BTreeSet<u64>,
}

impl RunningStats {
    /// An empty sink.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Fraction of runs that violated safety.
    pub fn hazard_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            (self.hazards + self.collisions) as f64 / self.runs as f64
        }
    }
}

impl CampaignSink for RunningStats {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        self.runs += 1;
        if result.report.injections > 0 {
            self.effective_injections += 1;
        }
        if result.report.outcome.is_hazardous() {
            self.hazardous_indices.insert(index);
            if result.report.outcome.is_collision() {
                self.collisions += 1;
            } else {
                self.hazards += 1;
            }
        } else {
            self.safe += 1;
        }
    }
}

/// Trace sink for golden-run collection: keeps only each job's recorded
/// [`Trace`], in submission order.
#[derive(Debug, Default)]
pub struct TraceSink {
    slots: IndexedSlots<Trace>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// The collected traces, in job-submission order.
    ///
    /// # Panics
    ///
    /// Panics if a job did not record a trace (run the campaign with
    /// [`SimConfig::record_trace`] set).
    pub fn into_traces(self) -> Vec<Trace> {
        self.slots.into_vec("campaign job recorded a trace")
    }
}

impl CampaignSink for TraceSink {
    fn accept(&mut self, index: u64, result: CampaignResult) {
        self.slots.set(index, result.report.trace);
    }
}

/// The campaign runner: a [`SimConfig`] plus a worker-count policy.
///
/// ```
/// use drivefi_sim::{CampaignEngine, CampaignJob, SimConfig};
/// use drivefi_world::ScenarioConfig;
/// use std::sync::Arc;
///
/// let engine = CampaignEngine::new(SimConfig::default()).with_workers(2);
/// // One allocation, shared by every job over the scenario.
/// let scenario = Arc::new(ScenarioConfig::lead_vehicle_cruise(7));
/// let jobs = (0..3).map(|i| CampaignJob {
///     id: i,
///     scenario: Arc::clone(&scenario),
///     faults: vec![],
/// });
/// let results = engine.collect(jobs);
/// assert_eq!(results.len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CampaignEngine {
    config: SimConfig,
    workers: usize,
}

impl CampaignEngine {
    /// An engine with [`default_workers`] worker threads.
    pub fn new(config: SimConfig) -> Self {
        CampaignEngine { config, workers: default_workers() }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The simulator configuration campaigns run under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job from `jobs`, streaming each result into `sink` on
    /// the calling thread as tasks complete. The engine first collects
    /// the jobs, tagging each with its submission index (job `i` keeps
    /// index `i`), then groups them into one task per scenario, sorted by
    /// first divergent frame and split only when a scenario holds more
    /// than ceil(jobs ÷ workers) of them. Idle workers take the next
    /// task, and a task's jobs share one golden pilot.
    ///
    /// # Panics
    ///
    /// Propagates worker panics.
    pub fn run<S, K>(&self, jobs: S, sink: &mut K)
    where
        S: JobSource,
        K: CampaignSink + ?Sized,
    {
        let config = self.config;
        stream_map(
            ScenarioTask::group(jobs.into_jobs(), self.workers),
            self.workers,
            || (),
            |(), task| task.run(config),
            |_, results| {
                for (index, result) in results {
                    sink.accept(index, result);
                }
            },
        );
    }

    /// The resume hook: runs only the jobs for which `done(job.id)` is
    /// false, skipping the rest without scheduling them, and at most
    /// `budget` of those pending jobs (`None` means unbounded); then the
    /// stream stops cleanly — the "interrupt via budget cap" a resumable
    /// store-backed campaign uses. A persistent store resumes an
    /// interrupted campaign by passing its set of already-persisted job
    /// ids; submission indices renumber over the pending jobs, so sinks
    /// that need a stable identity should key on `CampaignResult::id`
    /// (the skipped ids never reappear). Returns the number of jobs
    /// actually executed.
    pub fn run_skipping_budget<S, K, P>(
        &self,
        jobs: S,
        done: P,
        budget: Option<u64>,
        sink: &mut K,
    ) -> u64
    where
        S: JobSource,
        K: CampaignSink + ?Sized,
        P: Fn(u64) -> bool + Send,
    {
        let mut ran = 0u64;
        let pending = jobs.into_jobs().filter(move |job| !done(job.id));
        let cap = budget.map_or(usize::MAX, |n| n as usize);
        self.run(pending.take(cap), &mut |index: u64, result| {
            ran = ran.max(index + 1);
            sink.accept(index, result);
        });
        ran
    }

    /// Convenience: runs the jobs and returns the results in submission
    /// order.
    pub fn collect<S: JobSource>(&self, jobs: S) -> Vec<CampaignResult> {
        let mut collector = Collector::new();
        self.run(jobs, &mut collector);
        collector.into_results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use drivefi_ads::Signal;
    use drivefi_fault::{FaultKind, FaultWindow, Injector, ScalarFaultModel};

    /// The results of `jobs` on `workers` threads, in job order.
    fn run_jobs(jobs: &[CampaignJob], workers: usize) -> Vec<CampaignResult> {
        CampaignEngine::new(SimConfig::default()).with_workers(workers).collect(jobs.to_vec())
    }

    fn golden_job(id: u64, seed: u64) -> CampaignJob {
        CampaignJob::new(id, ScenarioConfig::lead_vehicle_cruise(seed), vec![])
    }

    fn faulted_job(id: u64, seed: u64, scene: u64) -> CampaignJob {
        let fault = Fault {
            kind: FaultKind::Scalar {
                signal: Signal::RawThrottle,
                model: ScalarFaultModel::StuckMax,
            },
            window: FaultWindow::scene(scene),
        };
        CampaignJob::new(id, ScenarioConfig::lead_vehicle_cruise(seed), vec![fault])
    }

    #[test]
    fn campaign_preserves_job_order_and_ids() {
        let jobs: Vec<_> = (0..6).map(|i| golden_job(100 + i, i)).collect();
        let results = run_jobs(&jobs, 3);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, 100 + i as u64);
            assert!(r.report.outcome.is_safe());
        }
    }

    #[test]
    fn parallel_equals_serial() {
        // Golden jobs and jobs with armed faults must produce bitwise
        // identical reports across worker counts 1/2/8: every job runs on
        // its own simulation, so scheduling cannot leak state.
        let mut jobs: Vec<_> = (0..4).map(|i| golden_job(i, i * 7)).collect();
        jobs.extend((0..4).map(|i| faulted_job(100 + i, i * 3 + 1, 20 + 5 * i)));
        let serial = run_jobs(&jobs, 1);
        for workers in [2, 8] {
            let parallel = run_jobs(&jobs, workers);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.id, p.id);
                assert_eq!(s.report.outcome, p.report.outcome);
                assert_eq!(s.report.min_delta_lon, p.report.min_delta_lon);
                assert_eq!(s.report.min_delta_lat, p.report.min_delta_lat);
                assert_eq!(s.report.injections, p.report.injections);
            }
        }
    }

    #[test]
    fn arena_reuse_matches_fresh_construction() {
        // One worker runs every job in turn; each result must match a
        // freshly constructed Simulation's.
        let jobs: Vec<_> = (0..3)
            .map(|i| faulted_job(i, 5, 30))
            .chain((0..2).map(|i| golden_job(10 + i, 2)))
            .collect();
        let reused = run_jobs(&jobs, 1);
        for (job, result) in jobs.iter().zip(&reused) {
            let mut sim = Simulation::new(SimConfig::default(), &job.scenario);
            let mut injector = Injector::new(job.faults.clone());
            let mut fresh = sim.run_with(&mut injector);
            fresh.injections = injector.injection_count();
            assert_eq!(fresh.outcome, result.report.outcome);
            assert_eq!(fresh.min_delta_lon, result.report.min_delta_lon);
            assert_eq!(fresh.injections, result.report.injections);
        }
    }

    #[test]
    fn faulted_jobs_report_injections() {
        let scenario = ScenarioConfig::lead_vehicle_cruise(2);
        let fault = Fault {
            kind: FaultKind::Scalar { signal: Signal::RawBrake, model: ScalarFaultModel::StuckMax },
            window: FaultWindow::scene(10),
        };
        let jobs = vec![CampaignJob::new(0, scenario, vec![fault])];
        let results = run_jobs(&jobs, 2);
        assert!(results[0].report.injections > 0);
    }

    #[test]
    fn engine_streams_from_a_lazy_source() {
        // The job source is an iterator — nothing is materialized, and
        // the sink sees every submission index exactly once.
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(4);
        let mut seen = BTreeSet::new();
        let jobs = (0..6u64).map(|i| golden_job(i, i));
        engine.run(jobs, &mut |index: u64, result: CampaignResult| {
            assert_eq!(index, result.id);
            assert!(seen.insert(index));
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn jobs_share_one_scenario_allocation() {
        // The zero-clone contract: a cross-product of jobs over one
        // scenario holds one allocation, and cloning a job (the
        // `run_jobs` slice path) bumps a refcount instead of deep-cloning
        // road + actor storage.
        let scenario = Arc::new(ScenarioConfig::lead_vehicle_cruise(3));
        let jobs: Vec<_> = (0..8u64)
            .map(|id| CampaignJob { id, scenario: Arc::clone(&scenario), faults: vec![] })
            .collect();
        for job in &jobs {
            assert!(Arc::ptr_eq(&job.scenario, &scenario));
        }
        let cloned = jobs[0].clone();
        assert!(Arc::ptr_eq(&cloned.scenario, &scenario));
        let results = run_jobs(&jobs, 4);
        assert_eq!(results.len(), 8);
    }

    #[test]
    fn running_stats_sink_counts_outcomes() {
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(4);
        let mut stats = RunningStats::new();
        let jobs = (0..4u64).map(|i| faulted_job(i, i, 20));
        engine.run(jobs, &mut stats);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.safe + stats.hazards + stats.collisions, 4);
        assert!(stats.effective_injections > 0);
        assert!(stats.hazard_rate() >= 0.0 && stats.hazard_rate() <= 1.0);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(2);
        let mut stats = RunningStats::new();
        let mut collector = Collector::new();
        let jobs: Vec<_> = (0..4u64).map(|i| golden_job(i, i)).collect();
        engine.run(jobs, &mut Tee(&mut stats, &mut collector));
        assert_eq!(stats.runs, 4);
        assert_eq!(collector.into_results().len(), 4);
    }

    #[test]
    fn run_skipping_only_executes_pending_jobs() {
        // Jobs 0, 2, 4 are "already persisted": the engine must execute
        // exactly the other three, renumbering submission indices over
        // the pending stream while job ids stay stable.
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(2);
        let jobs: Vec<_> = (0..6u64).map(|i| golden_job(i, i)).collect();
        let mut seen = Vec::new();
        let ran = engine.run_skipping_budget(
            jobs,
            |id| id % 2 == 0,
            None,
            &mut |index: u64, result: CampaignResult| seen.push((index, result.id)),
        );
        assert_eq!(ran, 3);
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 1), (1, 3), (2, 5)]);
    }

    #[test]
    fn run_skipping_budget_caps_pending_jobs_only() {
        // Jobs 0 and 3 are done; a budget of 2 must execute exactly two
        // of the remaining four and report how many ran.
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(2);
        let jobs: Vec<_> = (0..6u64).map(|i| golden_job(i, i)).collect();
        let mut seen = Vec::new();
        let ran = engine.run_skipping_budget(
            jobs.clone(),
            |id| id == 0 || id == 3,
            Some(2),
            &mut |_: u64, result: CampaignResult| seen.push(result.id),
        );
        assert_eq!(ran, 2);
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
        // Budget zero runs nothing; no budget runs all pending.
        let ran = engine.run_skipping_budget(jobs.clone(), |_| false, Some(0), &mut |_, _| {
            panic!("budget 0 must execute nothing")
        });
        assert_eq!(ran, 0);
        let mut count = 0u64;
        let ran = engine.run_skipping_budget(
            jobs,
            |id| id == 0 || id == 3,
            None,
            &mut |_: u64, _: CampaignResult| count += 1,
        );
        assert_eq!((ran, count), (4, 4));
    }

    #[test]
    fn budget_slices_compose_to_the_full_run() {
        // The fair-share scheduling primitive: repeatedly granting the
        // engine small budget slices over a growing done-set must
        // execute every job exactly once and, per job, produce the same
        // report as one unbounded pass — regardless of slice size. This
        // is what lets a daemon interleave many campaigns' slices
        // without perturbing any campaign's results.
        let engine = CampaignEngine::new(SimConfig::default()).with_workers(2);
        let jobs: Vec<_> = (0..7u64)
            .map(|i| if i % 2 == 0 { golden_job(i, i) } else { faulted_job(i, i, 25) })
            .collect();
        let mut reference = Vec::new();
        engine.run_skipping_budget(jobs.clone(), |_| false, None, &mut |_, r: CampaignResult| {
            reference.push((r.id, r.report.outcome, r.report.min_delta_lon))
        });
        reference.sort_by_key(|&(id, ..)| id);

        for slice in [1u64, 2, 3, 5] {
            let mut done = BTreeSet::new();
            let mut sliced = Vec::new();
            loop {
                let mut executed = Vec::new();
                let ran = {
                    let done = &done;
                    engine.run_skipping_budget(
                        jobs.clone(),
                        |id| done.contains(&id),
                        Some(slice),
                        &mut |_, r: CampaignResult| {
                            executed.push((r.id, r.report.outcome, r.report.min_delta_lon))
                        },
                    )
                };
                assert_eq!(ran, executed.len() as u64);
                assert!(ran <= slice);
                for &(id, ..) in &executed {
                    assert!(done.insert(id), "slice {slice}: job {id} executed twice");
                }
                sliced.extend(executed);
                if ran == 0 {
                    break;
                }
            }
            sliced.sort_by_key(|&(id, ..)| id);
            assert_eq!(sliced, reference, "slice {slice} diverged from the unbounded pass");
        }
    }

    #[test]
    fn trace_sink_collects_in_order() {
        let config =
            SimConfig { record_trace: true, stop_on_collision: false, ..SimConfig::default() };
        let engine = CampaignEngine::new(config).with_workers(3);
        let mut sink = TraceSink::new();
        let scenarios: Vec<_> =
            (0..3u64).map(|i| Arc::new(ScenarioConfig::lead_vehicle_cruise(i))).collect();
        let jobs = scenarios.iter().map(|s| CampaignJob {
            id: u64::from(s.id),
            scenario: Arc::clone(s),
            faults: vec![],
        });
        engine.run(jobs, &mut sink);
        let traces = sink.into_traces();
        assert_eq!(traces.len(), 3);
        for (t, s) in traces.iter().zip(&scenarios) {
            assert_eq!(t.scenario_id, s.id);
            assert_eq!(t.frames.len(), s.scene_count());
        }
    }
}
