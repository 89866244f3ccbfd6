//! The closed loop: world ↔ sensors ↔ ADS ↔ vehicle dynamics.

use crate::outcome::{Outcome, RunReport};
use crate::trace::{FrameRecord, Trace};
use drivefi_ads::profiler::{self, TickPhase};
use drivefi_ads::{AdsConfig, AdsStack, BusInterceptor, NullInterceptor, Signal};
use drivefi_kinematics::{BicycleModel, SafetyPotential, VehicleState};
use drivefi_sensors::SensorSuite;
use drivefi_world::{scenario::ScenarioConfig, ActorKind, World};

/// Base ticks (30 Hz) per scene (7.5 Hz) — the paper's discretization.
/// Aliases the fault layer's constant so scene-based fault windows
/// ([`drivefi_fault::WindowSpec`]) and the simulator's scene clock can
/// never disagree.
pub const BASE_TICKS_PER_SCENE: u64 = drivefi_fault::space::TICKS_PER_SCENE;

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// ADS configuration (including ablation switches).
    pub ads: AdsConfig,
    /// Seed for sensor noise (scenario seed is XOR-ed in).
    pub sensor_seed: u64,
    /// Record a per-scene trace.
    pub record_trace: bool,
    /// Stop the run at the first collision (campaigns) or keep going
    /// (trace collection).
    pub stop_on_collision: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            ads: AdsConfig::default(),
            sensor_seed: 0x0D21_4EF1,
            record_trace: false,
            stop_on_collision: true,
        }
    }
}

/// A closed-loop simulation of one scenario.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    world: World,
    sensors: SensorSuite,
    ads: AdsStack,
    vehicle: BicycleModel,
    ego: VehicleState,
    frame: u64,
    total_frames: u64,
    scenario_id: u32,
}

/// Per-run accounting (outcome, running min-δ, optional trace), kept
/// apart from the [`Simulation`] so a campaign job forked from a golden
/// pilot continues the pilot's accounting in the same scene loop.
#[derive(Debug, Clone)]
pub(crate) struct RunState {
    outcome: Outcome,
    min_lon: f64,
    min_lat: f64,
    trace: Option<Trace>,
}

impl RunState {
    /// Fresh accounting for a run of `sim`.
    pub(crate) fn new(sim: &Simulation) -> Self {
        RunState {
            outcome: Outcome::Safe,
            min_lon: f64::INFINITY,
            min_lat: f64::INFINITY,
            trace: sim.config.record_trace.then(|| Trace {
                scenario_id: sim.scenario_id,
                frames: Vec::with_capacity((sim.total_frames / BASE_TICKS_PER_SCENE) as usize),
            }),
        }
    }

    /// Finalizes into a report (injections are filled in by the caller).
    pub(crate) fn into_report(self, sim: &Simulation) -> RunReport {
        RunReport {
            outcome: self.outcome,
            min_delta_lon: self.min_lon,
            min_delta_lat: self.min_lat,
            scenes: sim.scene(),
            injections: 0,
            trace: self.trace,
        }
    }
}

impl Simulation {
    /// Builds the closed loop for a scenario.
    pub fn new(config: SimConfig, scenario: &ScenarioConfig) -> Self {
        let mut world = World::from_scenario(scenario);
        world.set_ego(scenario.ego_start, ActorKind::Car.dims());
        let sensors = SensorSuite::with_seed(config.sensor_seed ^ scenario.seed);
        let ads = AdsStack::with_road(config.ads, scenario.ego_set_speed, scenario.road.clone());
        Simulation {
            config,
            world,
            sensors,
            ads,
            vehicle: BicycleModel::new(config.ads.vehicle),
            ego: scenario.ego_start,
            frame: 0,
            total_frames: scenario.scene_count() as u64 * BASE_TICKS_PER_SCENE,
            scenario_id: scenario.id,
        }
    }

    /// Ground-truth ego state.
    pub fn ego(&self) -> &VehicleState {
        &self.ego
    }

    /// The world (for inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The ADS stack (for inspection).
    pub fn ads(&self) -> &AdsStack {
        &self.ads
    }

    /// Current scene index.
    pub fn scene(&self) -> u64 {
        self.frame / BASE_TICKS_PER_SCENE
    }

    /// The next base tick to step.
    pub(crate) fn frame(&self) -> u64 {
        self.frame
    }

    /// True once every frame of the scenario has been stepped.
    pub(crate) fn done(&self) -> bool {
        self.frame >= self.total_frames
    }

    /// Base tick duration \[s\].
    fn dt(&self) -> f64 {
        1.0 / self.config.ads.tick_hz
    }

    /// Steps one scene: [`BASE_TICKS_PER_SCENE`] base ticks with
    /// `interceptor` on the bus, then the scene-rate evaluation into
    /// `state`. Returns `true` when the run stops here (collision with
    /// `stop_on_collision` set) — the single definition of the stop
    /// point that golden pilots and forked jobs share.
    pub(crate) fn step_scene<I: BusInterceptor + ?Sized>(
        &mut self,
        state: &mut RunState,
        interceptor: &mut I,
    ) -> bool {
        for _ in 0..BASE_TICKS_PER_SCENE {
            self.step_tick(interceptor);
        }
        self.eval_scene(state)
    }

    /// Advances one 30 Hz base tick with the given interceptor.
    fn step_tick<I: BusInterceptor + ?Sized>(&mut self, interceptor: &mut I) {
        let dt = self.dt();
        // Sample straight into the bus frame: the same detection buffers
        // carry every tick of the run, so the sensing → ADS half of the
        // loop never touches the heap in the steady state.
        let probe = profiler::start();
        self.sensors.sample_into(&self.world, self.frame, &mut self.ads.bus.sensors);
        profiler::record(TickPhase::Sense, probe);
        let actuation = self.ads.tick_in_place(self.frame, interceptor);
        let probe = profiler::start();
        self.ego = self.vehicle.step(&self.ego, &actuation, dt);
        self.world.set_ego(self.ego, ActorKind::Car.dims());
        profiler::record(TickPhase::Vehicle, probe);
        let probe = profiler::start();
        self.world.step(dt);
        profiler::record(TickPhase::World, probe);
        self.frame += 1;
    }

    /// Scene-rate evaluation after [`BASE_TICKS_PER_SCENE`] base ticks:
    /// ground truth, running min-δ, outcome transitions, and the optional
    /// trace frame. Returns `true` when the run stops here.
    fn eval_scene(&mut self, state: &mut RunState) -> bool {
        let probe = profiler::start();
        let scene = self.scene() - 1;
        let gt = self.world.ground_truth();
        // Raw δ (Definition 3) — see `true_delta` for the margin
        // rationale.
        let envelope = gt.envelope.with_min_margin(0.0, 0.0);
        let delta = SafetyPotential::evaluate(&self.config.ads.vehicle, &self.ego, &envelope);
        state.min_lon = state.min_lon.min(delta.longitudinal);
        state.min_lat = state.min_lat.min(delta.lateral);

        if let Some(actor) = gt.collision {
            state.outcome = Outcome::Collision { scene, actor: actor.0 };
        } else if !delta.is_safe() && state.outcome == Outcome::Safe {
            state.outcome = Outcome::Hazard { scene };
        }

        if let Some(trace) = &mut state.trace {
            let bus = &self.ads.bus;
            trace.frames.push(FrameRecord {
                scene,
                time: self.world.time(),
                ego: self.ego,
                pose: bus.pose,
                imu_speed: bus.imu.speed,
                imu_accel: bus.imu.accel,
                lead_distance: Signal::LeadDistance.read(bus),
                lead_speed: Signal::LeadSpeed.read(bus),
                raw_cmd: bus.raw_cmd,
                final_cmd: bus.final_cmd,
                delta_perceived: bus.delta,
                delta_true: delta,
            });
        }

        profiler::record(TickPhase::Eval, probe);
        state.outcome.is_collision() && self.config.stop_on_collision
    }

    /// Evaluates the ground-truth safety potential right now.
    ///
    /// The hazard criterion is the paper's Definition 3: raw
    /// `δ = d_safe − d_stop`. The comfort margins (`d_safe,min`) belong
    /// to the *planner's* constraint, not to the safety judgment — a
    /// vehicle that eats into the comfort margin is uncomfortable, not
    /// yet unsafe.
    pub fn true_delta(&self) -> SafetyPotential {
        let gt = self.world.ground_truth();
        let envelope = gt.envelope.with_min_margin(0.0, 0.0);
        SafetyPotential::evaluate(&self.config.ads.vehicle, &self.ego, &envelope)
    }

    /// Runs the scenario to completion without faults.
    pub fn run(&mut self) -> RunReport {
        self.run_with(&mut NullInterceptor)
    }

    /// Runs the scenario to completion with `interceptor` (typically a
    /// [`drivefi_fault::Injector`]) attached to the bus.
    ///
    /// The hazard monitor evaluates ground truth at scene rate, matching
    /// the paper's per-scene accounting.
    pub fn run_with<I: BusInterceptor + ?Sized>(&mut self, interceptor: &mut I) -> RunReport {
        let state = RunState::new(self);
        self.run_from(state, interceptor)
    }

    /// The scene loop of a whole run: steps from the current frame to the
    /// end of the scenario, or to the first collision under
    /// `stop_on_collision`, continuing the accounting in `state` — fresh
    /// for a run from scene 0, or a campaign task's golden pilot's when
    /// the pilot runs on to its final result.
    pub(crate) fn run_from<I: BusInterceptor + ?Sized>(
        &mut self,
        mut state: RunState,
        interceptor: &mut I,
    ) -> RunReport {
        while !self.done() {
            if self.step_scene(&mut state, interceptor) {
                break;
            }
        }
        state.into_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_fault::{Fault, FaultKind, FaultWindow, Injector, ScalarFaultModel};

    #[test]
    fn golden_lead_cruise_is_safe() {
        let scenario = ScenarioConfig::lead_vehicle_cruise(3);
        let mut sim = Simulation::new(SimConfig::default(), &scenario);
        let report = sim.run();
        assert!(report.outcome.is_safe(), "golden run: {:?}", report.outcome);
        assert!(report.min_delta_lon > 0.0);
    }

    #[test]
    fn golden_cut_in_is_safe_but_tight() {
        let scenario = ScenarioConfig::cut_in(0);
        let mut sim = Simulation::new(SimConfig::default(), &scenario);
        let report = sim.run();
        assert!(report.outcome.is_safe(), "golden cut-in: {:?}", report.outcome);
        // The cut-in squeezes δ but the ADS recovers.
        assert!(report.min_delta_lon < 25.0, "min δ_lon = {}", report.min_delta_lon);
    }

    #[test]
    fn trace_records_scene_rate() {
        let scenario = ScenarioConfig::free_drive(1);
        let config = SimConfig { record_trace: true, ..SimConfig::default() };
        let mut sim = Simulation::new(config, &scenario);
        let report = sim.run();
        let trace = report.trace.unwrap();
        assert_eq!(trace.frames.len(), scenario.scene_count());
        assert_eq!(trace.frames[0].scene, 0);
        // Speed should approach the set speed over the run.
        let last = trace.frames.last().unwrap();
        assert!((last.ego.v - scenario.ego_set_speed).abs() < 2.0);
    }

    #[test]
    fn permanent_full_throttle_fault_causes_hazard() {
        // The crude end-to-end check: pin A_t to full throttle forever in
        // a car-following scenario → the ego must eventually violate δ.
        let scenario = ScenarioConfig::lead_vehicle_cruise(5);
        let mut sim = Simulation::new(SimConfig::default(), &scenario);
        let faults = vec![
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::FinalThrottle,
                    model: ScalarFaultModel::StuckMax,
                },
                window: FaultWindow::permanent(60),
            },
            Fault {
                kind: FaultKind::Scalar {
                    signal: Signal::FinalBrake,
                    model: ScalarFaultModel::StuckMin,
                },
                window: FaultWindow::permanent(60),
            },
        ];
        let mut injector = Injector::new(faults);
        let report = sim.run_with(&mut injector);
        assert!(
            report.outcome.is_hazardous(),
            "full-throttle runaway stayed safe: {:?}",
            report.outcome
        );
    }

    #[test]
    fn transient_throttle_fault_at_cruise_is_masked() {
        // One corrupted scene while cruising with a healthy margin — the
        // paper's natural-resilience result: recomputation + PID smooth
        // it away.
        let scenario = ScenarioConfig::lead_vehicle_cruise(3);
        let mut sim = Simulation::new(SimConfig::default(), &scenario);
        let fault = Fault {
            kind: FaultKind::Scalar {
                signal: Signal::RawThrottle,
                model: ScalarFaultModel::StuckMax,
            },
            window: FaultWindow::scene(20),
        };
        let mut injector = Injector::new(vec![fault]);
        let report = sim.run_with(&mut injector);
        assert!(report.outcome.is_safe(), "transient was not masked: {:?}", report.outcome);
    }

    #[test]
    fn watchdog_recovers_planner_hang() {
        // A permanent planner hang while following a braking lead. With
        // the watchdog the fallback stop keeps the run collision-free
        // (the paper's "backup systems" claim); without it the stale
        // cruise command is hazardous.
        let scenario = ScenarioConfig::lead_brake(3);
        let hang = Fault {
            kind: FaultKind::ModuleHang { stage: drivefi_ads::Stage::Planning },
            window: FaultWindow::permanent(90),
        };

        let mut with_dog = Simulation::new(SimConfig::default(), &scenario);
        let report = with_dog.run_with(&mut Injector::new(vec![hang]));
        assert!(
            with_dog.ads().watchdog().is_fallback(),
            "watchdog never engaged on a permanent planner hang"
        );
        assert!(
            !report.outcome.is_collision(),
            "fallback stop still collided: {:?}",
            report.outcome
        );
        // The fallback brings the ego to (or near) a halt.
        assert!(with_dog.ego().v < 3.0, "ego still moving at {}", with_dog.ego().v);

        let mut no_dog_cfg = SimConfig::default();
        no_dog_cfg.ads.watchdog = false;
        let mut without_dog = Simulation::new(no_dog_cfg, &scenario);
        let unprotected = without_dog.run_with(&mut Injector::new(vec![hang]));
        assert!(
            unprotected.outcome.is_hazardous(),
            "planner hang without watchdog stayed safe: {:?}",
            unprotected.outcome
        );
    }

    #[test]
    fn watchdog_stays_silent_on_golden_runs() {
        let scenario = ScenarioConfig::cut_in(5);
        let mut sim = Simulation::new(SimConfig::default(), &scenario);
        let report = sim.run();
        assert!(report.outcome.is_safe());
        assert!(!sim.ads().watchdog().is_fallback());
    }

    #[test]
    fn deterministic_given_seeds() {
        let scenario = ScenarioConfig::platoon(9);
        let mut a = Simulation::new(SimConfig::default(), &scenario);
        let mut b = Simulation::new(SimConfig::default(), &scenario);
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra.outcome, rb.outcome);
        assert_eq!(ra.min_delta_lon, rb.min_delta_lon);
        assert_eq!(a.ego().x, b.ego().x);
    }
}
