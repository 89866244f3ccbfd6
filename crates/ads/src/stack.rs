//! The assembled ADS stack with rate scheduling and injection hooks.

use crate::profiler::{self, TickPhase};
use crate::{Bus, Stage};
use drivefi_control::ActuationSmoother;
use drivefi_kinematics::{Actuation, Vec2, VehicleParams};
use drivefi_perception::{MultiObjectTracker, PoseEstimator, TrackId, TrackedObject};
use drivefi_planner::{Planner, PlannerConfig};
use drivefi_sensors::{Detection, SensorFrame};

/// Something that can observe and mutate the bus between pipeline stages
/// — the seam where DriveFI's injector attaches (paper Fig. 1: "DriveFI
/// Injector" arrows into `I_t`, `M_t`, `S_t`, `U_A,t`, `A_t`).
pub trait BusInterceptor {
    /// Called after `stage` has published its outputs for tick `frame`.
    fn intercept(&mut self, stage: Stage, frame: u64, bus: &mut Bus);
}

/// An interceptor that does nothing (golden runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullInterceptor;

impl BusInterceptor for NullInterceptor {
    fn intercept(&mut self, _stage: Stage, _frame: u64, _bus: &mut Bus) {}
}

/// Configuration of the ADS stack, including the ablation switches used
/// by experiment E7 (natural-resilience analysis).
#[derive(Debug, Clone, Copy)]
pub struct AdsConfig {
    /// Base tick rate \[Hz\].
    pub tick_hz: f64,
    /// Run the planner every `planner_divisor` ticks (1 = every tick).
    /// The paper credits high recompute rates for transient masking;
    /// raising this divisor ablates that mechanism.
    pub planner_divisor: u32,
    /// Use Kalman fusion for the world model. When `false`, perception
    /// republishes raw detections every tick (no filtering) — ablating
    /// the paper's "EKF masks transients" mechanism.
    pub kalman_fusion: bool,
    /// Smooth `U_A,t` with the PID controller. When `false`, `A_t` is the
    /// raw command — ablating the paper's "PID smoothing" mechanism.
    pub pid_smoothing: bool,
    /// Engage the module-health [`crate::Watchdog`]: heartbeat-stale or
    /// crashed modules trigger a fallback controlled stop (the paper's
    /// "backup/redundant systems that are present in AVs today").
    pub watchdog: bool,
    /// Vehicle parameters the planner assumes.
    pub vehicle: VehicleParams,
}

impl Default for AdsConfig {
    fn default() -> Self {
        AdsConfig {
            tick_hz: 30.0,
            planner_divisor: 1,
            kalman_fusion: true,
            pid_smoothing: true,
            watchdog: true,
            vehicle: VehicleParams::default(),
        }
    }
}

/// Plausibility gate on the published pose — the monitor layer every
/// production localization stack runs (Apollo's MSF status checks): a
/// pose that implies physically impossible motion between consecutive
/// ticks is rejected and replaced by constant-velocity dead reckoning
/// from the last accepted pose. This masks gross localization
/// corruptions (position teleports, heading snaps, speed jumps) exactly
/// the way the paper's "inherently resilient" ADS architectures do.
#[derive(Debug, Clone, Default)]
struct PoseGate {
    last: Option<drivefi_kinematics::VehicleState>,
    rejects: u32,
}

impl PoseGate {
    /// Maximum plausible position change per tick beyond dead reckoning
    /// \[m\]. Honest GPS-fusion steps move the estimate a few
    /// centimeters; 1.5 m is an order-of-magnitude margin.
    const POS_GATE: f64 = 1.5;
    /// Maximum plausible heading change per tick \[rad\]. The physical
    /// yaw-rate bound at speed is ~0.004 rad/tick; 0.03 is ~8x margin.
    const HEADING_GATE: f64 = 0.03;
    /// Maximum plausible speed change per tick \[m/s\] (max braking
    /// gives 0.27 m/s per tick).
    const SPEED_GATE: f64 = 1.0;
    /// After this many consecutive rejections the gate re-acquires: the
    /// divergence is evidently not a glitch, and flying blind on dead
    /// reckoning forever would be worse. 45 ticks (1.5 s) is long enough
    /// for the GPS fusion to heal a corrupted estimator before the gate
    /// gives up, so transient localization faults stay fully masked
    /// while genuinely persistent divergence eventually passes through.
    const REACQUIRE_AFTER: u32 = 45;

    /// True when the gate has rejected long enough that the stack should
    /// re-initialize localization from raw GNSS (Apollo MSF-style
    /// recovery).
    fn reacquire_due(&self) -> bool {
        self.rejects >= Self::REACQUIRE_AFTER
    }

    /// Re-anchors the gate after a filter re-initialization.
    fn reset_to(&mut self, pose: drivefi_kinematics::VehicleState) {
        self.last = Some(pose);
        self.rejects = 0;
    }

    fn filter(
        &mut self,
        proposed: drivefi_kinematics::VehicleState,
        imu: &drivefi_sensors::ImuSample,
        dt: f64,
        warmup: Option<&drivefi_sensors::GpsFix>,
    ) -> drivefi_kinematics::VehicleState {
        let accepted = match self.last {
            // During filter warm-up there is no trusted history yet, so
            // the gate validates against raw GNSS instead (the
            // consistency check production MSF stacks run while
            // initializing): a pose far from the fix, or with an
            // implausible heading, is replaced by the GNSS-anchored one.
            _ if warmup.is_some() => {
                let gps = warmup.expect("checked is_some");
                let jump =
                    Vec2::new(proposed.x - gps.position.x, proposed.y - gps.position.y).norm();
                let heading_err = (proposed.theta - gps.heading).abs();
                if proposed.is_finite() && jump <= 5.0 && heading_err <= 0.2 {
                    proposed
                } else {
                    drivefi_kinematics::VehicleState::new(
                        gps.position.x,
                        gps.position.y,
                        imu.speed.max(0.0),
                        gps.heading,
                        0.0,
                    )
                }
            }
            None => proposed,
            Some(prev) => {
                // Inertial dead reckoning from the last good pose: speed
                // and yaw rate come from the IMU (rate-limited so a
                // corrupted IMU cannot teleport the prediction either).
                let dv = (imu.speed - prev.v).clamp(-9.0 * dt, 9.0 * dt);
                let v = (prev.v + dv).max(0.0);
                let theta = prev.theta + imu.yaw_rate.clamp(-1.0, 1.0) * dt;
                let dir = Vec2::from_heading(theta);
                let pred = drivefi_kinematics::VehicleState {
                    x: prev.x + dir.x * v * dt,
                    y: prev.y + dir.y * v * dt,
                    v,
                    theta,
                    phi: prev.phi,
                };
                let jump = Vec2::new(proposed.x - pred.x, proposed.y - pred.y).norm();
                let plausible = proposed.is_finite()
                    && jump <= Self::POS_GATE
                    && (proposed.theta - pred.theta).abs() <= Self::HEADING_GATE
                    && (proposed.v - pred.v).abs() <= Self::SPEED_GATE;
                if plausible {
                    proposed
                } else {
                    self.rejects += 1;
                    self.last = Some(pred);
                    return pred;
                }
            }
        };
        self.rejects = 0;
        self.last = Some(accepted);
        accepted
    }
}

/// The full ADS stack: localization → perception → planning → control,
/// all signals flowing through the [`Bus`].
#[derive(Debug, Clone)]
pub struct AdsStack {
    config: AdsConfig,
    localization: PoseEstimator,
    tracker: MultiObjectTracker,
    planner: Planner,
    smoother: ActuationSmoother,
    pose_gate: PoseGate,
    last_gps: Option<drivefi_sensors::GpsFix>,
    road: drivefi_world::Road,
    set_speed: f64,
    watchdog: crate::Watchdog,
    /// The bus, public so tests and tools can inspect the latest tick.
    pub bus: Bus,
    raw_track_seq: u32,
    /// Per-tick scratch: detections lifted into the world frame for the
    /// tracker, reused across ticks so perception never allocates.
    det_scratch: Vec<(Detection, Vec2, Vec2)>,
}

impl AdsStack {
    /// Creates a stack driving toward `set_speed` on the default highway.
    pub fn new(config: AdsConfig, set_speed: f64) -> Self {
        Self::with_road(config, set_speed, drivefi_world::Road::default_highway())
    }

    /// Creates a stack for a specific road geometry.
    pub fn with_road(config: AdsConfig, set_speed: f64, road: drivefi_world::Road) -> Self {
        AdsStack {
            config,
            localization: PoseEstimator::new(),
            tracker: MultiObjectTracker::new(),
            planner: Planner::new(PlannerConfig::default(), config.vehicle),
            smoother: ActuationSmoother::default(),
            pose_gate: PoseGate::default(),
            last_gps: None,
            road,
            set_speed,
            watchdog: crate::Watchdog::new(crate::WatchdogConfig::default()),
            bus: Bus::default(),
            raw_track_seq: 0,
            det_scratch: Vec::new(),
        }
    }

    /// The module-health watchdog (for inspection).
    pub fn watchdog(&self) -> &crate::Watchdog {
        &self.watchdog
    }

    /// The stack configuration.
    pub fn config(&self) -> &AdsConfig {
        &self.config
    }

    /// The cruise set speed.
    pub fn set_speed(&self) -> f64 {
        self.set_speed
    }

    /// Executes one 30 Hz tick: consumes a sensor frame, runs the
    /// pipeline with `interceptor` invoked after every stage, and returns
    /// the final actuation `A_t`.
    ///
    /// Thin wrapper over [`AdsStack::tick_in_place`]; moving a frame in
    /// drops the previous tick's detection buffers. The hot path samples
    /// straight into `bus.sensors` instead and keeps those buffers alive.
    pub fn tick<I: BusInterceptor + ?Sized>(
        &mut self,
        sensors: SensorFrame,
        frame: u64,
        interceptor: &mut I,
    ) -> Actuation {
        self.bus.sensors = sensors;
        self.tick_in_place(frame, interceptor)
    }

    /// Executes one 30 Hz tick over the sensor frame already present in
    /// `bus.sensors`. This is the allocation-free path: the caller
    /// writes the frame in place (`SensorSuite::sample_into` into
    /// `bus.sensors`), perception lifts detections into a reused scratch
    /// buffer, and the tracker publishes into the bus world model
    /// without cloning — in the steady state no stage touches the heap.
    pub fn tick_in_place<I: BusInterceptor + ?Sized>(
        &mut self,
        frame: u64,
        interceptor: &mut I,
    ) -> Actuation {
        let dt = 1.0 / self.config.tick_hz;

        // --- Stage: sensors (I_t, M_t) --- (frame already on the bus)
        if let Some(imu) = self.bus.sensors.imu {
            self.bus.imu = imu;
        }
        self.bus.heartbeats[Stage::Sensors.index()] += 1;
        interceptor.intercept(Stage::Sensors, frame, &mut self.bus);

        // --- Stage: localization ---
        let probe = profiler::start();
        self.localization.predict(&self.bus.imu, dt);
        if let Some(gps) = self.bus.sensors.gps {
            self.localization.correct(&gps);
        }
        self.bus.pose = self.localization.pose();
        self.bus.heartbeats[Stage::Localization.index()] += 1;
        interceptor.intercept(Stage::Localization, frame, &mut self.bus);
        // Write any interceptor corruption back into module state so the
        // fault persists the way a corrupted variable would...
        self.localization.set_pose(self.bus.pose);
        // ...but downstream consumers read through the plausibility gate,
        // which rejects physically impossible pose jumps (production
        // localization monitors do exactly this). The first ticks pass
        // through ungated while localization converges.
        if let Some(gps) = self.bus.sensors.gps {
            self.last_gps = Some(gps);
        }
        let warmup_gps = if frame < 10 { self.last_gps.as_ref() } else { None };
        self.bus.pose = self.pose_gate.filter(self.bus.pose, &self.bus.imu, dt, warmup_gps);
        if self.pose_gate.reacquire_due() {
            // Persistent divergence: re-initialize the filter from raw
            // GNSS (the multi-source fallback production localization
            // performs) instead of ever trusting the diverged estimate.
            let reset = match self.last_gps {
                Some(gps) => drivefi_kinematics::VehicleState::new(
                    gps.position.x,
                    gps.position.y,
                    self.bus.imu.speed.max(0.0),
                    gps.heading,
                    0.0,
                ),
                None => self.bus.pose,
            };
            self.localization.set_pose(reset);
            self.pose_gate.reset_to(reset);
            self.bus.pose = reset;
        }
        profiler::record(TickPhase::Localization, probe);

        // --- Stage: perception (W_t) ---
        let probe = profiler::start();
        let pose = self.bus.pose;
        // One ego rotation serves every detection on the bus.
        let (pose_sin, pose_cos) = pose.theta.sin_cos();
        let pose_pos = pose.position();
        let pose_vel = pose.velocity();
        self.det_scratch.clear();
        self.det_scratch.extend(self.bus.sensors.detections().map(|d| {
            let world_pos = d.position.rotated_by(pose_sin, pose_cos) + pose_pos;
            let world_vel = d.rel_velocity.rotated_by(pose_sin, pose_cos) + pose_vel;
            (*d, world_pos, world_vel)
        }));
        if self.config.kalman_fusion {
            // Publish straight into the bus, reusing its object storage.
            // The bus owns the live `W_t` between ticks; interceptor
            // corruption persists tick-over-tick exactly as before (the
            // tracker never reads the published model back — fused state
            // lives in its tracks), so no write-back clone is needed, and
            // the `set_world_model` seam stays available to tools.
            self.tracker.step_into(&pose, &self.det_scratch, dt, &mut self.bus.world_model);
        } else {
            // Ablation: raw detections become the world model directly.
            if !self.det_scratch.is_empty() {
                let seq = &mut self.raw_track_seq;
                self.bus.world_model.objects.clear();
                self.bus.world_model.objects.extend(self.det_scratch.iter().map(|(d, wp, wv)| {
                    *seq = seq.wrapping_add(1);
                    TrackedObject {
                        id: TrackId(*seq),
                        position: *wp,
                        velocity: *wv,
                        extent: Vec2::new(d.extent.x, d.extent.y),
                        truth_id: d.truth_id,
                    }
                }));
            }
        }
        self.bus.heartbeats[Stage::Perception.index()] += 1;
        interceptor.intercept(Stage::Perception, frame, &mut self.bus);
        profiler::record(TickPhase::Perception, probe);

        // --- Stage: planning (U_A,t) ---
        let probe = profiler::start();
        if frame.is_multiple_of(u64::from(self.config.planner_divisor.max(1))) {
            let out = self.planner.plan(
                &self.bus.pose,
                &self.bus.world_model,
                &self.road,
                self.set_speed,
            );
            self.bus.raw_cmd = out.raw;
            self.bus.envelope = out.envelope;
            self.bus.delta = out.delta;
            self.bus.heartbeats[Stage::Planning.index()] += 1;
        }
        interceptor.intercept(Stage::Planning, frame, &mut self.bus);
        profiler::record(TickPhase::Planning, probe);

        // --- Stage: control (A_t) ---
        let probe = profiler::start();
        self.bus.final_cmd = if self.config.pid_smoothing {
            self.smoother.step(&self.bus.raw_cmd, dt)
        } else {
            self.bus.raw_cmd.clamped(&self.config.vehicle)
        };
        // Envelope protection: the controller never commands — nor
        // accumulates in its tracking state — steering beyond the
        // vehicle interface's speed-dependent lateral authority. Without
        // this, a corrupted raw steering command winds the smoother up to
        // full deflection and the unwind (slew-limited) keeps the
        // vehicle turning long after the corruption clears. Production
        // controllers clamp their output to the interface envelope for
        // exactly this reason.
        let steer_limit = drivefi_kinematics::BicycleModel::new(self.config.vehicle)
            .steer_limit(self.bus.pose.v.max(0.0));
        if self.bus.final_cmd.steering.abs() > steer_limit {
            self.bus.final_cmd.steering =
                self.bus.final_cmd.steering.clamp(-steer_limit, steer_limit);
            if self.config.pid_smoothing {
                self.smoother.set_last_output(self.bus.final_cmd);
            }
        }
        self.bus.heartbeats[Stage::Control.index()] += 1;
        interceptor.intercept(Stage::Control, frame, &mut self.bus);
        // Note: corruption of `A_t` affects the *published* command for
        // exactly the fault window; the smoother's internal state is a
        // separate variable (persistent controller-state corruption is
        // modeled with longer fault windows, not by poisoning the
        // tracker).

        // --- Backup path: the watchdog (outside the monitored pipeline,
        // like a drive-by-wire safety MCU). On a hang or crash it
        // overrides the published command with a controlled stop.
        if self.config.watchdog {
            self.watchdog.observe(frame, &self.bus);
            if self.watchdog.is_fallback() {
                self.bus.final_cmd = self.watchdog.command(self.bus.final_cmd);
            }
        }
        profiler::record(TickPhase::Control, probe);

        self.bus.final_cmd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_sensors::SensorSuite;
    use drivefi_world::{scenario::ScenarioConfig, ActorKind, World};

    fn run_stack(config: AdsConfig, frames: u64) -> (AdsStack, World) {
        let cfg = ScenarioConfig::lead_vehicle_cruise(11);
        let mut world = World::from_scenario(&cfg);
        world.set_ego(cfg.ego_start, ActorKind::Car.dims());
        let mut sensors = SensorSuite::with_seed(11);
        let mut ads = AdsStack::new(config, cfg.ego_set_speed);
        let mut ego = cfg.ego_start;
        let model = drivefi_kinematics::BicycleModel::new(config.vehicle);
        for f in 0..frames {
            let frame = sensors.sample(&world, f);
            let act = ads.tick(frame, f, &mut NullInterceptor);
            ego = model.step(&ego, &act, 1.0 / 30.0);
            world.set_ego(ego, ActorKind::Car.dims());
            world.step(1.0 / 30.0);
        }
        (ads, world)
    }

    #[test]
    fn stack_tracks_the_lead_vehicle() {
        let (ads, world) = run_stack(AdsConfig::default(), 60);
        assert!(!ads.bus.world_model.objects.is_empty(), "no tracks after 2 s");
        let lead_truth = world.actors()[0].state.x;
        let tracked = ads.bus.world_model.objects[0].position.x;
        assert!((tracked - lead_truth).abs() < 5.0, "track at {tracked}, truth {lead_truth}");
    }

    #[test]
    fn stack_drives_safely_for_ten_seconds() {
        let (ads, world) = run_stack(AdsConfig::default(), 300);
        assert!(ads.bus.delta.is_safe(), "delta = {:?}", ads.bus.delta);
        assert!(world.ground_truth().collision.is_none());
    }

    #[test]
    fn localization_converges_to_truth() {
        let (ads, world) = run_stack(AdsConfig::default(), 150);
        let (truth, _) = world.ego().unwrap();
        let est = ads.bus.pose;
        assert!((est.x - truth.x).abs() < 2.0, "x err = {}", (est.x - truth.x).abs());
        assert!((est.y - truth.y).abs() < 1.0);
        assert!((est.v - truth.v).abs() < 1.0);
    }

    #[test]
    fn ablated_stack_still_runs() {
        let config = AdsConfig {
            kalman_fusion: false,
            pid_smoothing: false,
            planner_divisor: 4,
            ..AdsConfig::default()
        };
        let (ads, _) = run_stack(config, 120);
        assert!(ads.bus.final_cmd.is_finite());
    }

    #[test]
    fn interceptor_sees_all_stages() {
        struct Recorder(Vec<Stage>);
        impl BusInterceptor for Recorder {
            fn intercept(&mut self, stage: Stage, _f: u64, _b: &mut Bus) {
                self.0.push(stage);
            }
        }
        let cfg = ScenarioConfig::free_drive(1);
        let mut world = World::from_scenario(&cfg);
        world.set_ego(cfg.ego_start, ActorKind::Car.dims());
        let mut sensors = SensorSuite::with_seed(1);
        let mut ads = AdsStack::new(AdsConfig::default(), cfg.ego_set_speed);
        let mut rec = Recorder(Vec::new());
        ads.tick(sensors.sample(&world, 0), 0, &mut rec);
        assert_eq!(rec.0, Stage::ALL.to_vec());
    }

    #[test]
    fn interceptor_corruption_reaches_actuators() {
        struct MaxThrottle;
        impl BusInterceptor for MaxThrottle {
            fn intercept(&mut self, stage: Stage, _f: u64, bus: &mut Bus) {
                if stage == Stage::Control {
                    bus.final_cmd.throttle = 1.0;
                    bus.final_cmd.brake = 0.0;
                }
            }
        }
        let cfg = ScenarioConfig::free_drive(1);
        let mut world = World::from_scenario(&cfg);
        world.set_ego(cfg.ego_start, ActorKind::Car.dims());
        let mut sensors = SensorSuite::with_seed(1);
        let mut ads = AdsStack::new(AdsConfig::default(), cfg.ego_set_speed);
        let act = ads.tick(sensors.sample(&world, 0), 0, &mut MaxThrottle);
        assert_eq!(act.throttle, 1.0);
    }
}
