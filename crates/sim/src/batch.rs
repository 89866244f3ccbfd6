//! Scenario-major campaign execution with golden-prefix sharing.
//!
//! A faulted job is bitwise identical to the golden (fault-free) run of
//! its scenario until the injector first acts — and the injector is a
//! strict no-op before `start_frame − 1` (the Freeze/Hang capture
//! lookahead). The engine therefore dispatches one [`ScenarioTask`] per
//! scenario: its jobs, ascending by first divergent frame, run against
//! one golden *pilot* that only moves forward. Each faulted job clones
//! the pilot at its fork scene and runs on its own `Simulation` through
//! the scene step `Simulation::run_with` uses. Three kinds of job take
//! the pilot's final result instead, so the pilot runs to the scenario
//! end only when one of them exists:
//!
//! * golden jobs, and jobs whose faults cannot act before the scenario
//!   ends;
//! * jobs whose fork scene lies past the pilot's stop point (a collision
//!   under `stop_on_collision`): their faults never get to act;
//! * forked jobs whose fault windows closed without changing a bus bit
//!   (`Injector::changed_bus`): from there on they are the pilot's run,
//!   so they keep only their own injection count.
//!
//! Running one scenario's jobs back to back on one thread is also what
//! lets the sensor noise memo (`drivefi_sensors::noise`) serve later
//! jobs the normals earlier ones drew.

use crate::outcome::RunReport;
use crate::simulation::{RunState, SimConfig, Simulation, BASE_TICKS_PER_SCENE};
use crate::{CampaignJob, CampaignResult};
use drivefi_ads::NullInterceptor;
use drivefi_fault::{Fault, Injector};
use drivefi_world::ScenarioConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// The first frame at which a job's execution can diverge from the
/// golden run: the injector is a strict no-op before
/// `start_frame − 1` (Freeze/Hang snapshot their stage one frame ahead
/// of the window). `None` for golden jobs (never diverge).
fn first_divergent_frame(faults: &[Fault]) -> Option<u64> {
    faults.iter().map(|f| f.window.start_frame.saturating_sub(1)).min()
}

/// One dispatch unit: jobs over one scenario, each with its submission
/// index, ascending by first divergent frame (golden jobs last).
pub(crate) struct ScenarioTask {
    scenario: Arc<ScenarioConfig>,
    jobs: Vec<(u64, CampaignJob)>,
}

impl ScenarioTask {
    /// Groups `jobs` (submission index = position in the stream) into
    /// one task per scenario — `Arc` identity, in order of first
    /// appearance — sorted by first divergent frame, submission order
    /// among equals. A group larger than ceil(jobs ÷ workers) is split
    /// into consecutive runs of that size, so a stage over few scenarios
    /// still spreads over every worker.
    pub(crate) fn group(jobs: impl Iterator<Item = CampaignJob>, workers: usize) -> Vec<Self> {
        let mut groups: Vec<ScenarioTask> = Vec::new();
        let mut slot_of: HashMap<*const ScenarioConfig, usize> = HashMap::new();
        let mut pending = 0usize;
        for (index, job) in jobs.enumerate() {
            pending += 1;
            let slot = *slot_of.entry(Arc::as_ptr(&job.scenario)).or_insert_with(|| {
                groups.push(ScenarioTask { scenario: Arc::clone(&job.scenario), jobs: Vec::new() });
                groups.len() - 1
            });
            groups[slot].jobs.push((index as u64, job));
        }
        let most = pending.div_ceil(workers.max(1));
        let mut tasks = Vec::with_capacity(groups.len());
        for mut group in groups {
            group
                .jobs
                .sort_by_key(|(_, job)| first_divergent_frame(&job.faults).unwrap_or(u64::MAX));
            let mut jobs = group.jobs.into_iter().peekable();
            while jobs.peek().is_some() {
                tasks.push(ScenarioTask {
                    scenario: Arc::clone(&group.scenario),
                    jobs: jobs.by_ref().take(most).collect(),
                });
            }
        }
        tasks
    }

    /// Runs every job of the task; returns each result with its
    /// submission index.
    pub(crate) fn run(self, config: SimConfig) -> Vec<(u64, CampaignResult)> {
        let total_frames = self.scenario.scene_count() as u64 * BASE_TICKS_PER_SCENE;
        let mut pilot = Pilot::new(config, &self.scenario);
        let mut results = Vec::with_capacity(self.jobs.len());
        // (index, id, injections) of the jobs that take the pilot's
        // final result.
        let mut verbatim = Vec::new();
        for (index, job) in self.jobs {
            let fork = first_divergent_frame(&job.faults)
                .filter(|&f0| f0 < total_frames)
                .and_then(|f0| pilot.fork_at(f0 / BASE_TICKS_PER_SCENE));
            // No fork: the job cannot diverge before the pilot's end, so
            // its run is the pilot's run, bit for bit, with no injection
            // (it stops before any fault window opens).
            let Some((sim, state)) = fork else {
                verbatim.push((index, job.id, 0));
                continue;
            };
            let mut injector = Injector::new(job.faults);
            match run_fork(sim, state, &mut injector) {
                Some(mut report) => {
                    report.injections = injector.injection_count();
                    results.push((index, CampaignResult { id: job.id, report }));
                }
                None => verbatim.push((index, job.id, injector.injection_count())),
            }
        }
        if !verbatim.is_empty() {
            let report = pilot.finish();
            for (index, id, injections) in verbatim {
                let report = RunReport { injections, ..report.clone() };
                results.push((index, CampaignResult { id, report }));
            }
        }
        results
    }
}

/// Runs a forked job to its end (or stop point). `None` when its faults
/// went quiet without changing a bus bit: from there on it is the
/// pilot's run.
fn run_fork(
    mut sim: Simulation,
    mut state: RunState,
    injector: &mut Injector,
) -> Option<RunReport> {
    let quiet = injector.quiet_from();
    while !sim.done() {
        if sim.frame() >= quiet && !injector.changed_bus() {
            return None;
        }
        if sim.step_scene(&mut state, injector) {
            break;
        }
    }
    Some(state.into_report(&sim))
}

/// A task's golden pilot: the unfaulted run of its scenario, advanced
/// only forward.
struct Pilot {
    sim: Simulation,
    state: RunState,
    /// Set once the pilot hit its stop point.
    stopped: bool,
}

impl Pilot {
    fn new(config: SimConfig, scenario: &ScenarioConfig) -> Self {
        let sim = Simulation::new(config, scenario);
        let state = RunState::new(&sim);
        Pilot { sim, state, stopped: false }
    }

    /// Advances the pilot to the start of `scene` (never backwards) and
    /// clones the run there; `None` when the pilot stopped first.
    fn fork_at(&mut self, scene: u64) -> Option<(Simulation, RunState)> {
        while !self.stopped && !self.sim.done() && self.sim.scene() < scene {
            self.stopped = self.sim.step_scene(&mut self.state, &mut NullInterceptor);
        }
        debug_assert!(self.stopped || self.sim.scene() == scene, "forks must ascend");
        (!self.stopped).then(|| (self.sim.clone(), self.state.clone()))
    }

    /// The pilot's final result: what a run of the golden job returns.
    fn finish(self) -> RunReport {
        let Pilot { mut sim, state, stopped } = self;
        if stopped {
            state.into_report(&sim)
        } else {
            sim.run_from(state, &mut NullInterceptor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignEngine;
    use drivefi_ads::Signal;
    use drivefi_fault::{FaultKind, FaultWindow, ScalarFaultModel};

    fn scalar(signal: Signal, model: ScalarFaultModel, window: FaultWindow) -> Fault {
        Fault { kind: FaultKind::Scalar { signal, model }, window }
    }

    fn throttle_fault(scene: u64) -> Fault {
        scalar(Signal::RawThrottle, ScalarFaultModel::StuckMax, FaultWindow::scene(scene))
    }

    fn job(id: u64, scenario: &Arc<ScenarioConfig>, faults: Vec<Fault>) -> CampaignJob {
        CampaignJob { id, scenario: Arc::clone(scenario), faults }
    }

    /// A fresh `Simulation::run_with` of the job.
    fn fresh_run(config: SimConfig, job: &CampaignJob) -> CampaignResult {
        let mut sim = Simulation::new(config, &job.scenario);
        let mut injector = Injector::new(job.faults.clone());
        let mut report = sim.run_with(&mut injector);
        report.injections = injector.injection_count();
        CampaignResult { id: job.id, report }
    }

    fn assert_results_identical(a: &CampaignResult, b: &CampaignResult) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.report.outcome, b.report.outcome, "job {}", a.id);
        assert_eq!(a.report.min_delta_lon.to_bits(), b.report.min_delta_lon.to_bits());
        assert_eq!(a.report.min_delta_lat.to_bits(), b.report.min_delta_lat.to_bits());
        assert_eq!(a.report.scenes, b.report.scenes, "job {}", a.id);
        assert_eq!(a.report.injections, b.report.injections, "job {}", a.id);
        assert_eq!(a.report.trace, b.report.trace);
    }

    /// Runs `jobs` through the engine on each worker count and checks
    /// every result against a fresh run of its job.
    fn assert_engine_matches_fresh_runs(
        config: SimConfig,
        jobs: &[CampaignJob],
        workers: &[usize],
    ) {
        for &w in workers {
            let results = CampaignEngine::new(config).with_workers(w).collect(jobs.to_vec());
            assert_eq!(results.len(), jobs.len());
            for (job, result) in jobs.iter().zip(&results) {
                assert_results_identical(&fresh_run(config, job), result);
            }
        }
    }

    #[test]
    fn chunk_runner_matches_scalar_path() {
        // Golden, early / mid / late transients, a permanent fault, and a
        // second scenario group, with and without traces.
        let scenario = Arc::new(ScenarioConfig::lead_vehicle_cruise(7));
        let other = Arc::new(ScenarioConfig::cut_in(3));
        let mut jobs = vec![job(0, &scenario, vec![])];
        for (i, scene) in [0, 1, 7, 20, 28].into_iter().enumerate() {
            jobs.push(job(1 + i as u64, &scenario, vec![throttle_fault(scene)]));
        }
        let brake_off =
            scalar(Signal::FinalBrake, ScalarFaultModel::StuckMin, FaultWindow::permanent(40));
        jobs.push(job(10, &other, vec![brake_off]));
        jobs.push(job(11, &other, vec![]));
        for record_trace in [false, true] {
            let config = SimConfig { record_trace, ..SimConfig::default() };
            assert_engine_matches_fresh_runs(config, &jobs, &[1, 2]);
        }
    }

    #[test]
    fn pilot_cache_survives_chunks_and_window_edges() {
        // Fault windows at frame 0, straddling the scenario end, at the
        // end and beyond it: the last two take the pilot's full run.
        // Then a golden job submitted before faulted ones: the pilot
        // still forks them on its way to its final result.
        let scenario = Arc::new(ScenarioConfig::lead_brake(5));
        let frames = scenario.scene_count() as u64 * BASE_TICKS_PER_SCENE;
        let windows = [
            FaultWindow { start_frame: 0, frames: 2 },
            FaultWindow { start_frame: frames - 1, frames: 10 },
            FaultWindow { start_frame: frames, frames: 4 },
            FaultWindow { start_frame: frames + 100, frames: u64::MAX },
        ];
        let edges: Vec<_> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                job(
                    i as u64,
                    &scenario,
                    vec![scalar(Signal::RawThrottle, ScalarFaultModel::StuckMax, *w)],
                )
            })
            .collect();
        let cruise = Arc::new(ScenarioConfig::lead_vehicle_cruise(4));
        let golden_first = vec![
            job(0, &cruise, vec![]),
            job(1, &cruise, vec![throttle_fault(17)]),
            job(2, &cruise, vec![throttle_fault(3)]),
        ];
        for jobs in [edges, golden_first] {
            assert_engine_matches_fresh_runs(SimConfig::default(), &jobs, &[1, 3]);
        }
    }

    #[test]
    fn tasks_group_by_scenario_and_split_past_their_share() {
        // 18 jobs over one scenario on 4 workers: runs of at most
        // ceil(18 / 4) = 5 jobs, one ascending fork order, every job
        // once.
        let scenario = Arc::new(ScenarioConfig::lead_brake(2));
        let jobs = (0..18u64).map(|i| match i {
            0 | 9 => job(i, &scenario, vec![]),
            _ => job(i, &scenario, vec![throttle_fault((i * 7) % 40)]),
        });
        let tasks = ScenarioTask::group(jobs, 4);
        assert_eq!(tasks.iter().map(|t| t.jobs.len()).collect::<Vec<_>>(), [5, 5, 5, 3]);
        let forks: Vec<_> = tasks
            .iter()
            .flat_map(|t| &t.jobs)
            .map(|(_, j)| first_divergent_frame(&j.faults).unwrap_or(u64::MAX))
            .collect();
        assert!(forks.is_sorted(), "runs split one ascending order: {forks:?}");
        let mut indices: Vec<_> = tasks.iter().flat_map(|t| &t.jobs).map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..18).collect::<Vec<_>>());
        // A group within its share stays whole, and scenarios keep their
        // order of first appearance.
        let other = Arc::new(ScenarioConfig::cut_in(1));
        let mixed = [job(0, &other, vec![]), job(1, &scenario, vec![]), job(2, &other, vec![])];
        let tasks = ScenarioTask::group(mixed.into_iter(), 2);
        assert_eq!(tasks.len(), 2);
        assert!(Arc::ptr_eq(&tasks[0].scenario, &other));
        assert_eq!(tasks[0].jobs.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 2]);
    }
}
