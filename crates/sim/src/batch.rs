//! Chunked campaign execution with golden-prefix sharing.
//!
//! A faulted job is bitwise identical to the golden (fault-free) run of
//! its scenario until the injector first acts — and the injector is a
//! strict no-op before `start_frame − 1` (the Freeze/Hang capture
//! lookahead). `ChunkRunner` exploits this: per scenario it drives one
//! golden *pilot*, snapshots the simulation at the scene boundaries where
//! jobs diverge, and forks each job from its snapshot instead of
//! re-simulating the shared prefix. Each forked job then runs to
//! completion on its own `Simulation`, through the scene loop
//! `Simulation::run_with` uses. Golden jobs take the pilot's result
//! verbatim; if the pilot stops at a collision in scene c, any job whose
//! faults cannot act before frame 4c is provably identical and also takes
//! the result verbatim. The pilot is cached across a worker's chunks
//! (keyed by the scenario `Arc`), so scenario-major job streams pay the
//! golden prefix once.

use crate::outcome::RunReport;
use crate::simulation::{RunState, SimConfig, Simulation, BASE_TICKS_PER_SCENE};
use crate::{CampaignJob, CampaignResult};
use drivefi_ads::NullInterceptor;
use drivefi_fault::{Fault, Injector};
use drivefi_world::ScenarioConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Accounting snapshot taken alongside a pilot simulation snapshot.
struct SceneMark {
    scene: u64,
    sim: Simulation,
    state: RunState,
}

/// A worker's cached golden pilot for one scenario.
struct PilotCache {
    scenario: Arc<ScenarioConfig>,
    /// Live pilot head, extended on demand.
    sim: Simulation,
    state: RunState,
    /// Snapshots at requested fork-scene boundaries, ascending by scene.
    marks: Vec<SceneMark>,
    /// Set once the pilot hit its stop point (collision under
    /// `stop_on_collision`).
    broke: bool,
}

impl PilotCache {
    fn new(config: SimConfig, scenario: &Arc<ScenarioConfig>) -> Self {
        let sim = Simulation::new(config, scenario);
        let state = RunState::new(&sim);
        PilotCache { scenario: Arc::clone(scenario), sim, state, marks: Vec::new(), broke: false }
    }

    /// The scene index the pilot has completed through.
    fn progress(&self) -> u64 {
        self.sim.scene()
    }

    /// True when the pilot cannot advance further (scenario exhausted or
    /// stop point reached).
    fn ended(&self) -> bool {
        self.broke || self.sim.done()
    }

    /// Drives the pilot forward until it has passed every scene in
    /// `needs` (snapshotting each as it is reached) and, if `full`, to
    /// the end of the scenario. Stops early at the stop point.
    fn ensure(&mut self, needs: &BTreeSet<u64>, full: bool) {
        let target = needs.iter().next_back().copied();
        loop {
            let here = self.progress();
            if needs.contains(&here) && !self.marks.iter().any(|m| m.scene == here) {
                self.marks.push(SceneMark {
                    scene: here,
                    sim: self.sim.clone(),
                    state: self.state.clone(),
                });
            }
            if self.ended() {
                return;
            }
            let past_needs = target.is_none_or(|t| here >= t);
            if past_needs && !full {
                return;
            }
            for _ in 0..BASE_TICKS_PER_SCENE {
                self.sim.step_tick(&mut NullInterceptor);
            }
            if self.sim.eval_scene(&mut self.state) {
                self.broke = true;
            }
        }
    }

    /// The pilot's own result — what a run of the golden job (or
    /// of any job whose faults cannot act before the pilot's stop point)
    /// returns.
    fn verbatim(&self) -> RunReport {
        self.state.clone().into_report(&self.sim)
    }

    /// Clones the fork snapshot at `scene`, if one was taken. A cached
    /// pilot reused across chunks may already be past a scene it never
    /// snapshotted — the caller falls back to a fresh run then.
    fn fork(&self, scene: u64) -> Option<(Simulation, RunState)> {
        let mark = self.marks.iter().find(|m| m.scene == scene)?;
        Some((mark.sim.clone(), mark.state.clone()))
    }
}

/// The first frame at which a job's execution can diverge from the
/// golden run: the injector is a strict no-op before
/// `start_frame − 1` (Freeze/Hang snapshot their stage one frame ahead
/// of the window). `None` for golden jobs (never diverge).
fn first_divergent_frame(faults: &[Fault]) -> Option<u64> {
    faults.iter().map(|f| f.window.start_frame.saturating_sub(1)).min()
}

/// A worker's chunk executor: groups a chunk's jobs by scenario, shares
/// golden prefixes through a cached pilot, and runs each job to
/// completion from its fork.
pub(crate) struct ChunkRunner {
    config: SimConfig,
    cache: Option<PilotCache>,
}

impl ChunkRunner {
    pub(crate) fn new(config: SimConfig) -> Self {
        ChunkRunner { config, cache: None }
    }

    /// Executes every job in `chunk`, returning results in chunk order.
    pub(crate) fn run_chunk(&mut self, chunk: Vec<CampaignJob>) -> Vec<CampaignResult> {
        // Group chunk positions by scenario identity (jobs over one
        // scenario share the `Arc`).
        let mut groups: Vec<(Arc<ScenarioConfig>, Vec<usize>)> = Vec::new();
        for (pos, job) in chunk.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &job.scenario)) {
                Some((_, positions)) => positions.push(pos),
                None => groups.push((Arc::clone(&job.scenario), vec![pos])),
            }
        }

        let mut results: Vec<Option<CampaignResult>> = (0..chunk.len()).map(|_| None).collect();
        for (scenario, positions) in groups {
            let total_frames = scenario.scene_count() as u64 * BASE_TICKS_PER_SCENE;

            // Reuse the cached pilot when the scenario is the same
            // allocation (same dynamics by construction: the sensor seed
            // derives from config ⊕ scenario).
            let reusable = matches!(&self.cache, Some(c) if Arc::ptr_eq(&c.scenario, &scenario));
            if !reusable {
                self.cache = Some(PilotCache::new(self.config, &scenario));
            }
            let cache = self.cache.as_mut().expect("pilot cache just populated");

            // Fork scenes needed by this group's faulted jobs, and
            // whether any job needs the pilot run to full length.
            let mut needs = BTreeSet::new();
            let mut full = false;
            for &pos in &positions {
                match first_divergent_frame(&chunk[pos].faults) {
                    Some(f0) if f0 < total_frames => {
                        needs.insert(f0 / BASE_TICKS_PER_SCENE);
                    }
                    // Golden, or faults that can never act in-window:
                    // the job takes the pilot's full result verbatim.
                    _ => full = true,
                }
            }
            cache.ensure(&needs, full);

            for &pos in &positions {
                let job = &chunk[pos];
                let fork_scene = first_divergent_frame(&job.faults)
                    .filter(|f0| *f0 < total_frames)
                    .map(|f0| f0 / BASE_TICKS_PER_SCENE);
                let report = match fork_scene {
                    // The job cannot diverge before the pilot's end:
                    // its run is the pilot's run, bit for bit.
                    // (`verbatim` reports zero injections, which is right:
                    // the run stops before any fault window opens.)
                    None => cache.verbatim(),
                    // Pilot stopped at a collision in an earlier scene, so
                    // this job's faults never get to act.
                    Some(scene) if cache.ended() && scene >= cache.progress() => cache.verbatim(),
                    Some(scene) => {
                        // The cached pilot may have passed this scene in an
                        // earlier chunk without snapshotting it: run the
                        // whole job fresh then (prefix sharing is only an
                        // optimization).
                        let (mut sim, state) = cache.fork(scene).unwrap_or_else(|| {
                            let sim = Simulation::new(self.config, &job.scenario);
                            let state = RunState::new(&sim);
                            (sim, state)
                        });
                        let mut injector = Injector::new(job.faults.clone());
                        let mut report = sim.run_from(state, &mut injector, None);
                        report.injections = injector.injection_count();
                        report
                    }
                };
                results[pos] = Some(CampaignResult { id: job.id, report });
            }
        }
        results.into_iter().map(|r| r.expect("every chunk job produced a result")).collect()
    }
}

/// Chunks a job stream into `Vec`s of at most `size` jobs, preserving
/// order (all chunks are full except possibly the last).
pub(crate) struct Chunks<I> {
    inner: I,
    size: usize,
}

impl<I: Iterator> Chunks<I> {
    pub(crate) fn new(inner: I, size: usize) -> Self {
        Chunks { inner, size: size.max(1) }
    }
}

impl<I: Iterator> Iterator for Chunks<I> {
    type Item = Vec<I::Item>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut chunk = Vec::with_capacity(self.size);
        for item in self.inner.by_ref() {
            chunk.push(item);
            if chunk.len() == self.size {
                break;
            }
        }
        (!chunk.is_empty()).then_some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_ads::Signal;
    use drivefi_fault::{FaultKind, FaultWindow, ScalarFaultModel};

    fn throttle_fault(scene: u64) -> Fault {
        Fault {
            kind: FaultKind::Scalar {
                signal: Signal::RawThrottle,
                model: ScalarFaultModel::StuckMax,
            },
            window: FaultWindow::scene(scene),
        }
    }

    fn scalar_reference(config: SimConfig, job: &CampaignJob) -> CampaignResult {
        let mut sim = Simulation::new(config, &job.scenario);
        let mut injector = Injector::new(job.faults.clone());
        let mut report = sim.run_with(&mut injector);
        report.injections = injector.injection_count();
        CampaignResult { id: job.id, report }
    }

    fn assert_results_identical(a: &CampaignResult, b: &CampaignResult) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.report.outcome, b.report.outcome);
        assert_eq!(a.report.min_delta_lon.to_bits(), b.report.min_delta_lon.to_bits());
        assert_eq!(a.report.min_delta_lat.to_bits(), b.report.min_delta_lat.to_bits());
        assert_eq!(a.report.scenes, b.report.scenes);
        assert_eq!(a.report.injections, b.report.injections);
        assert_eq!(a.report.trace, b.report.trace);
    }

    #[test]
    fn chunk_runner_matches_scalar_path() {
        let config = SimConfig::default();
        let scenario = Arc::new(ScenarioConfig::lead_vehicle_cruise(7));
        let other = Arc::new(ScenarioConfig::cut_in(3));
        let mut chunk = Vec::new();
        // Golden, early / mid / late transients, permanent, and a second
        // scenario group in one chunk.
        chunk.push(CampaignJob { id: 0, scenario: Arc::clone(&scenario), faults: vec![] });
        for (i, scene) in [0, 1, 7, 20, 28].into_iter().enumerate() {
            chunk.push(CampaignJob {
                id: 1 + i as u64,
                scenario: Arc::clone(&scenario),
                faults: vec![throttle_fault(scene)],
            });
        }
        chunk.push(CampaignJob {
            id: 10,
            scenario: Arc::clone(&other),
            faults: vec![Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::FinalBrake,
                    model: ScalarFaultModel::StuckMin,
                },
                window: FaultWindow::permanent(40),
            }],
        });
        chunk.push(CampaignJob { id: 11, scenario: Arc::clone(&other), faults: vec![] });

        let mut runner = ChunkRunner::new(config);
        let batched = runner.run_chunk(chunk.clone());
        assert_eq!(batched.len(), chunk.len());
        for (job, result) in chunk.iter().zip(&batched) {
            assert_results_identical(&scalar_reference(config, job), result);
        }
    }

    #[test]
    fn pilot_cache_survives_chunks_and_window_edges() {
        // Fault windows beyond the scenario end, at frame 0, and straddling
        // the end; the second chunk reuses the first chunk's pilot.
        // Then a golden job alone in its chunk drives a fresh pilot to the
        // end without a snapshot, so the next chunk's faulted jobs find
        // no fork point and must run fresh.
        let config = SimConfig::default();
        let scenario = Arc::new(ScenarioConfig::lead_brake(5));
        let frames = scenario.scene_count() as u64 * BASE_TICKS_PER_SCENE;
        let windows = [
            FaultWindow { start_frame: 0, frames: 2 },
            FaultWindow { start_frame: frames - 1, frames: 10 },
            FaultWindow { start_frame: frames, frames: 4 },
            FaultWindow { start_frame: frames + 100, frames: u64::MAX },
        ];
        let jobs: Vec<_> = windows
            .iter()
            .enumerate()
            .map(|(i, w)| CampaignJob {
                id: i as u64,
                scenario: Arc::clone(&scenario),
                faults: vec![Fault {
                    kind: FaultKind::Scalar {
                        signal: Signal::RawThrottle,
                        model: ScalarFaultModel::StuckMax,
                    },
                    window: *w,
                }],
            })
            .collect();
        let edges: Vec<Vec<CampaignJob>> = jobs.chunks(2).map(<[_]>::to_vec).collect();

        let cruise = Arc::new(ScenarioConfig::lead_vehicle_cruise(4));
        let job = |id, faults| CampaignJob { id, scenario: Arc::clone(&cruise), faults };
        let golden_first = vec![
            vec![job(0, vec![])],
            vec![job(1, vec![throttle_fault(3)]), job(2, vec![throttle_fault(17)])],
        ];

        for stream in [edges, golden_first] {
            let mut runner = ChunkRunner::new(config);
            for chunk in stream {
                for (job, result) in chunk.iter().zip(runner.run_chunk(chunk.clone())) {
                    assert_results_identical(&scalar_reference(config, job), &result);
                }
            }
        }
    }

    #[test]
    fn chunks_preserve_order_and_fill() {
        let chunks: Vec<_> = Chunks::new(0..7, 3).collect();
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
        assert_eq!(Chunks::new(0..0, 3).count(), 0);
    }
}
