//! The full sensor suite with per-sensor refresh scheduling.

use crate::{Detection, Gaussian, GpsFix, ImuSample, NoiseRng, ObjectSensor};
use drivefi_kinematics::Vec2;
use drivefi_world::World;
use rand::SeedableRng;

/// The base tick rate of the ADS loop \[Hz\]. All sensor rates divide it.
pub const ADS_TICK_HZ: f64 = 30.0;

/// One multi-sensor frame. A field is `None` when that sensor did not
/// refresh on this tick (its rate divides the 30 Hz base tick).
#[derive(Debug, Clone, Default)]
pub struct SensorFrame {
    /// Camera object list, if the camera ticked.
    pub camera: Option<Vec<Detection>>,
    /// LiDAR object list, if the LiDAR ticked.
    pub lidar: Option<Vec<Detection>>,
    /// RADAR object list, if the RADAR ticked.
    pub radar: Option<Vec<Detection>>,
    /// GNSS fix, if the receiver ticked.
    pub gps: Option<GpsFix>,
    /// Inertial sample, if the IMU ticked.
    pub imu: Option<ImuSample>,
}

impl SensorFrame {
    /// Iterates over all object detections present in this frame.
    pub fn detections(&self) -> impl Iterator<Item = &Detection> {
        self.camera.iter().chain(self.lidar.iter()).chain(self.radar.iter()).flatten()
    }
}

/// The complete sensor suite of the ego vehicle.
#[derive(Debug, Clone)]
pub struct SensorSuite {
    /// Forward camera.
    pub camera: ObjectSensor,
    /// 360° LiDAR (slowest sensor, 7.5 Hz).
    pub lidar: ObjectSensor,
    /// Forward RADAR.
    pub radar: ObjectSensor,
    /// GPS position noise σ \[m\].
    pub gps_noise: f64,
    /// IMU speed noise σ \[m/s\].
    pub imu_noise: f64,
    /// The noise stream; its normals are memoized per thread by
    /// `(seed, position)` (see [`crate::noise`]).
    rng: NoiseRng,
    last_speed: Option<f64>,
    /// Spare detection buffers, one per object channel (camera, lidar,
    /// radar). A channel's buffer parks here while its sensor skips
    /// ticks, so [`SensorSuite::sample_into`] never reallocates when the
    /// sensor comes back on its next scheduled frame.
    spares: [Vec<Detection>; 3],
}

impl SensorSuite {
    /// Creates the default suite with a deterministic RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        // Placeholder fields; `reseed` is the single source of truth for
        // the constructed state so the two paths can never diverge.
        let mut suite = SensorSuite {
            camera: ObjectSensor::camera(),
            lidar: ObjectSensor::lidar(),
            radar: ObjectSensor::radar(),
            gps_noise: 0.0,
            imu_noise: 0.0,
            rng: NoiseRng::seed_from_u64(0),
            last_speed: None,
            spares: [Vec::new(), Vec::new(), Vec::new()],
        };
        suite.reseed(seed);
        suite
    }

    /// Resets the suite in place to the state [`SensorSuite::with_seed`]
    /// constructs — sensor configurations, noise levels, RNG stream, and
    /// IMU differentiator history. The pooled detection buffers keep
    /// their capacity (they are cleared, not dropped).
    pub fn reseed(&mut self, seed: u64) {
        self.camera = ObjectSensor::camera();
        self.lidar = ObjectSensor::lidar();
        self.radar = ObjectSensor::radar();
        self.gps_noise = 0.15;
        self.imu_noise = 0.05;
        self.rng = NoiseRng::seed_from_u64(seed ^ 0x5E45_0125);
        self.last_speed = None;
        for spare in &mut self.spares {
            spare.clear();
        }
    }

    /// Whether a sensor with `rate_hz` refreshes on base-tick `frame`.
    fn ticks(rate_hz: f64, frame: u64) -> bool {
        let divisor = (ADS_TICK_HZ / rate_hz).round().max(1.0) as u64;
        frame.is_multiple_of(divisor)
    }

    /// Samples all sensors for base-tick `frame` (30 Hz ticks).
    ///
    /// Thin wrapper over [`SensorSuite::sample_into`] returning a fresh
    /// frame; the pooled path is what campaigns run on.
    ///
    /// # Panics
    ///
    /// Panics if the world has no registered ego pose.
    pub fn sample(&mut self, world: &World, frame: u64) -> SensorFrame {
        let mut out = SensorFrame::default();
        self.sample_into(world, frame, &mut out);
        out
    }

    /// Samples all sensors for base-tick `frame` into `out`, reusing its
    /// detection buffers (and the suite's spare pool) so steady-state
    /// sampling performs no heap allocation. Every field of `out` is
    /// overwritten — the result is independent of the frame's prior
    /// contents — and the RNG stream is identical to
    /// [`SensorSuite::sample`]: camera → lidar → radar → GPS → IMU.
    ///
    /// # Panics
    ///
    /// Panics if the world has no registered ego pose.
    pub fn sample_into(&mut self, world: &World, frame: u64, out: &mut SensorFrame) {
        let (ego, _) = world.ego().expect("sensors require a registered ego pose");

        let [camera_spare, lidar_spare, radar_spare] = &mut self.spares;
        Self::refresh_channel(
            &self.camera,
            Self::ticks(self.camera.rate_hz, frame),
            world,
            &mut self.rng,
            &mut out.camera,
            camera_spare,
        );
        Self::refresh_channel(
            &self.lidar,
            Self::ticks(self.lidar.rate_hz, frame),
            world,
            &mut self.rng,
            &mut out.lidar,
            lidar_spare,
        );
        Self::refresh_channel(
            &self.radar,
            Self::ticks(self.radar.rate_hz, frame),
            world,
            &mut self.rng,
            &mut out.radar,
            radar_spare,
        );
        out.gps = None;
        out.imu = None;
        if Self::ticks(7.5, frame) {
            let g = Gaussian::new(0.0, self.gps_noise);
            out.gps = Some(GpsFix {
                position: Vec2::new(
                    ego.x + g.sample(&mut self.rng),
                    ego.y + g.sample(&mut self.rng),
                ),
                heading: ego.theta + Gaussian::new(0.0, 0.004).sample(&mut self.rng),
            });
        }
        if Self::ticks(30.0, frame) {
            let g = Gaussian::new(0.0, self.imu_noise);
            let speed = ego.v + g.sample(&mut self.rng);
            let dt = 1.0 / ADS_TICK_HZ;
            let accel = self.last_speed.map_or(0.0, |prev| (speed - prev) / dt);
            self.last_speed = Some(speed);
            out.imu = Some(ImuSample { speed, accel, yaw_rate: ego.v * ego.phi.tan() / 2.8 });
        }
    }

    /// Refreshes one object channel in place. A ticking sensor fills the
    /// channel's existing buffer (or reclaims the pooled spare); a
    /// skipping sensor sets the channel to `None` and parks its buffer in
    /// the spare slot for the next scheduled frame.
    fn refresh_channel(
        sensor: &ObjectSensor,
        ticked: bool,
        world: &World,
        rng: &mut NoiseRng,
        channel: &mut Option<Vec<Detection>>,
        spare: &mut Vec<Detection>,
    ) {
        if ticked {
            let mut buf = channel.take().unwrap_or_else(|| std::mem::take(spare));
            sensor.sense_into(world, rng, &mut buf);
            *channel = Some(buf);
        } else if let Some(mut buf) = channel.take() {
            buf.clear();
            *spare = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_world::{scenario::ScenarioConfig, ActorKind, World};

    fn world() -> World {
        let cfg = ScenarioConfig::lead_vehicle_cruise(9);
        let mut w = World::from_scenario(&cfg);
        w.set_ego(cfg.ego_start, ActorKind::Car.dims());
        w
    }

    #[test]
    fn rates_divide_base_tick() {
        // 30 Hz camera ticks every frame; 7.5 Hz lidar every 4th.
        assert!(SensorSuite::ticks(30.0, 0));
        assert!(SensorSuite::ticks(30.0, 1));
        assert!(SensorSuite::ticks(7.5, 0));
        assert!(!SensorSuite::ticks(7.5, 1));
        assert!(!SensorSuite::ticks(7.5, 3));
        assert!(SensorSuite::ticks(7.5, 4));
        assert!(SensorSuite::ticks(15.0, 2));
        assert!(!SensorSuite::ticks(15.0, 3));
    }

    #[test]
    fn frame_population_follows_rates() {
        let w = world();
        let mut suite = SensorSuite::with_seed(1);
        let f0 = suite.sample(&w, 0);
        assert!(f0.camera.is_some() && f0.lidar.is_some() && f0.gps.is_some() && f0.imu.is_some());
        let f1 = suite.sample(&w, 1);
        assert!(f1.camera.is_some());
        assert!(f1.lidar.is_none() && f1.gps.is_none());
    }

    #[test]
    fn detections_iterator_merges_sensors() {
        let w = world();
        let mut suite = SensorSuite::with_seed(1);
        // Remove dropout for determinism.
        suite.camera.dropout = 0.0;
        suite.lidar.dropout = 0.0;
        suite.radar.dropout = 0.0;
        let f = suite.sample(&w, 0);
        // Lead car visible to camera, lidar, and radar.
        assert_eq!(f.detections().count(), 3);
    }

    #[test]
    fn imu_accel_tracks_speed_changes() {
        let w = world();
        let mut suite = SensorSuite::with_seed(1);
        suite.imu_noise = 0.0;
        let _ = suite.sample(&w, 0);
        let f = suite.sample(&w, 1);
        // Constant ego speed → near-zero measured acceleration.
        assert!(f.imu.unwrap().accel.abs() < 1e-9);
    }

    #[test]
    fn gps_fix_near_truth() {
        let w = world();
        let mut suite = SensorSuite::with_seed(1);
        let f = suite.sample(&w, 0);
        let fix = f.gps.unwrap();
        let (ego, _) = w.ego().unwrap();
        assert!((fix.position.x - ego.x).abs() < 3.0);
        assert!((fix.position.y - ego.y).abs() < 3.0);
    }

    #[test]
    fn reseeded_and_cloned_suites_replay_the_stream() {
        // A reseeded suite samples what a fresh one does, and a clone
        // taken mid-run samples what its source does, frame for frame.
        let w = world();
        let frames = |suite: &mut SensorSuite, from: u64| {
            (from..from + 60).map(|f| format!("{:?}", suite.sample(&w, f))).collect::<Vec<_>>()
        };
        let mut fresh = SensorSuite::with_seed(5);
        let reference = frames(&mut fresh, 0);
        let mut reused = SensorSuite::with_seed(6);
        frames(&mut reused, 0);
        reused.reseed(5);
        assert_eq!(frames(&mut reused, 0), reference);
        let mut clone = reused.clone();
        assert_eq!(frames(&mut clone, 60), frames(&mut reused, 60));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let w = world();
        let mut a = SensorSuite::with_seed(5);
        let mut b = SensorSuite::with_seed(5);
        let fa = a.sample(&w, 0);
        let fb = b.sample(&w, 0);
        assert_eq!(fa.camera.unwrap(), fb.camera.unwrap());
    }
}
