//! A generic object sensor: ground truth degraded by noise, dropout, and
//! range/field-of-view limits.

use crate::{Detection, Gaussian, NoiseRng, SensorKind};
use drivefi_kinematics::Vec2;
use drivefi_world::{segment_intersects_obb, World};
use rand::Rng;

/// Shrink factor applied to occluder bodies in the line-of-sight test:
/// sensors are mounted high and wide, so grazing geometry still sees
/// past a blocker.
const OCCLUDER_SHRINK: f64 = 0.85;

/// True when the straight line from `eye` to `target_center` is blocked
/// by any *other* actor's body. Paper Example 2 hinges on exactly this:
/// the lead vehicle hides the stopped traffic ahead of it.
fn occluded(world: &World, eye: Vec2, target_center: Vec2, target_id: u32) -> bool {
    world.actors().iter().any(|other| {
        if other.id.0 == target_id {
            return false;
        }
        let mut obb = other.obb();
        obb.half_length *= OCCLUDER_SHRINK;
        obb.half_width *= OCCLUDER_SHRINK;
        segment_intersects_obb(eye, target_center, &obb)
    })
}

/// Configuration and state of one object-detecting sensor (camera, LiDAR,
/// RADAR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectSensor {
    /// Which sensor this models.
    pub kind: SensorKind,
    /// Maximum detection range \[m\].
    pub range: f64,
    /// Half field-of-view \[rad\] (π for 360° LiDAR).
    pub half_fov: f64,
    /// Position noise σ \[m\].
    pub pos_noise: f64,
    /// Relative-velocity noise σ \[m/s\].
    pub vel_noise: f64,
    /// Probability of missing an in-range object entirely.
    pub dropout: f64,
    /// Refresh rate \[Hz\].
    pub rate_hz: f64,
}

impl ObjectSensor {
    /// A forward camera: 60° FOV, 150 m, accurate laterally, noisy in
    /// depth and velocity. Runs at 30 Hz.
    pub fn camera() -> Self {
        ObjectSensor {
            kind: SensorKind::Camera,
            range: 150.0,
            half_fov: 30f64.to_radians(),
            pos_noise: 0.6,
            vel_noise: 1.0,
            dropout: 0.03,
            rate_hz: 30.0,
        }
    }

    /// A 360° LiDAR: 120 m, very accurate position. Runs at 7.5 Hz — the
    /// slowest sensor, which sets the injector time base (paper §III-A).
    pub fn lidar() -> Self {
        ObjectSensor {
            kind: SensorKind::Lidar,
            range: 120.0,
            half_fov: std::f64::consts::PI,
            pos_noise: 0.1,
            vel_noise: 0.5,
            dropout: 0.01,
            rate_hz: 7.5,
        }
    }

    /// A forward RADAR: 200 m, 20° FOV, accurate radial velocity. 15 Hz.
    pub fn radar() -> Self {
        ObjectSensor {
            kind: SensorKind::Radar,
            range: 200.0,
            half_fov: 10f64.to_radians(),
            pos_noise: 0.8,
            vel_noise: 0.2,
            dropout: 0.02,
            rate_hz: 15.0,
        }
    }

    /// Senses every visible actor in `world` relative to the registered
    /// ego pose. Detections are in the ego frame.
    ///
    /// # Panics
    ///
    /// Panics if the world has no registered ego pose.
    pub fn sense(&self, world: &World, rng: &mut NoiseRng) -> Vec<Detection> {
        let mut out = Vec::new();
        self.sense_into(world, rng, &mut out);
        out
    }

    /// Like [`ObjectSensor::sense`], but writes into `out` (cleared
    /// first), reusing its capacity so steady-state sampling never
    /// allocates. The RNG draw sequence is identical to `sense`: one
    /// dropout draw per visible actor, then four noise draws per kept
    /// detection — draws never depend on the buffer.
    ///
    /// # Panics
    ///
    /// Panics if the world has no registered ego pose.
    pub fn sense_into(&self, world: &World, rng: &mut NoiseRng, out: &mut Vec<Detection>) {
        let (ego, _) = world.ego().expect("sensors require a registered ego pose");
        let ego_pos = ego.position();
        let ego_vel = ego.velocity();
        // One rotation into the ego frame serves both the position and the
        // relative velocity of every actor (`to_local` and `into_frame`
        // rotate by the same `-θ`; hoisting the sin/cos out of the loop
        // keeps the values bit-identical).
        let (frame_sin, frame_cos) = (-ego.theta).sin_cos();
        // A full-circle sensor sees every bearing: `atan2` stays within
        // ±π, so the field-of-view test cannot fail and is skipped.
        let check_fov = self.half_fov < std::f64::consts::PI;
        // Range gating compares squared distances: the norm itself is
        // never published, and `hypot` costs several times a multiply.
        let range_sq = self.range * self.range;
        let pos_noise = Gaussian::new(0.0, self.pos_noise);
        let vel_noise = Gaussian::new(0.0, self.vel_noise);

        out.clear();
        for actor in world.actors() {
            let actor_pos = Vec2::new(actor.state.x, actor.state.y);
            let local = (actor_pos - ego_pos).rotated_by(frame_sin, frame_cos);
            if local.norm_sq() > range_sq {
                continue;
            }
            if check_fov {
                let bearing = local.y.atan2(local.x);
                if bearing.abs() > self.half_fov {
                    continue;
                }
            }
            if occluded(world, ego_pos, actor_pos, actor.id.0) {
                continue;
            }
            if rng.random::<f64>() < self.dropout {
                continue;
            }
            let rel_vel_world = actor.velocity() - ego_vel;
            let rel_vel = rel_vel_world.rotated_by(frame_sin, frame_cos);
            let dims = actor.dims();
            out.push(Detection {
                sensor: self.kind,
                position: Vec2::new(
                    local.x + pos_noise.sample(rng),
                    local.y + pos_noise.sample(rng),
                ),
                rel_velocity: Vec2::new(
                    rel_vel.x + vel_noise.sample(rng),
                    rel_vel.y + vel_noise.sample(rng),
                ),
                extent: Vec2::new(dims.length, dims.width),
                truth_id: actor.id.0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_kinematics::VehicleState;
    use drivefi_world::{Actor, ActorId, ActorKind, Behavior, Road};
    use rand::SeedableRng;

    fn world_with_car_at(x: f64, y: f64) -> World {
        let mut w = World::new(Road::default_highway());
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            VehicleState::new(x, y, 10.0, 0.0, 0.0),
            Behavior::ConstantSpeed,
        ));
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ActorKind::Car.dims());
        w
    }

    #[test]
    fn detects_object_ahead() {
        let w = world_with_car_at(50.0, 0.0);
        let mut rng = NoiseRng::seed_from_u64(1);
        let dets = ObjectSensor::lidar().sense(&w, &mut rng);
        assert_eq!(dets.len(), 1);
        let d = dets[0];
        assert!((d.position.x - 50.0).abs() < 1.0);
        assert!((d.rel_velocity.x - (-10.0)).abs() < 2.0);
        assert_eq!(d.truth_id, 1);
    }

    #[test]
    fn out_of_range_is_invisible() {
        let w = world_with_car_at(500.0, 0.0);
        let mut rng = NoiseRng::seed_from_u64(1);
        assert!(ObjectSensor::lidar().sense(&w, &mut rng).is_empty());
        assert!(ObjectSensor::radar().sense(&w, &mut rng).is_empty());
    }

    #[test]
    fn narrow_fov_misses_side_objects() {
        // Object nearly perpendicular: visible to 360° lidar, not radar.
        let w = world_with_car_at(5.0, 20.0);
        let mut rng = NoiseRng::seed_from_u64(1);
        assert_eq!(ObjectSensor::lidar().sense(&w, &mut rng).len(), 1);
        assert!(ObjectSensor::radar().sense(&w, &mut rng).is_empty());
    }

    #[test]
    fn dropout_eventually_misses() {
        let w = world_with_car_at(50.0, 0.0);
        let mut rng = NoiseRng::seed_from_u64(1);
        let mut sensor = ObjectSensor::camera();
        sensor.dropout = 0.5;
        let misses = (0..200).filter(|_| sensor.sense(&w, &mut rng).is_empty()).count();
        assert!(misses > 50 && misses < 150, "misses = {misses}");
    }

    #[test]
    fn occluded_object_is_invisible_until_revealed() {
        let mut w = World::new(Road::default_highway());
        // Near car blocks the line of sight to the far car.
        w.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            VehicleState::new(40.0, 0.0, 10.0, 0.0, 0.0),
            Behavior::ConstantSpeed,
        ));
        w.add_actor(Actor::new(
            ActorId(2),
            ActorKind::Car,
            VehicleState::new(90.0, 0.0, 0.0, 0.0, 0.0),
            Behavior::Static,
        ));
        w.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ActorKind::Car.dims());
        let mut rng = NoiseRng::seed_from_u64(1);
        let mut sensor = ObjectSensor::lidar();
        sensor.dropout = 0.0;
        let ids: Vec<u32> = sensor.sense(&w, &mut rng).iter().map(|d| d.truth_id).collect();
        assert_eq!(ids, vec![1], "far car should be hidden: {ids:?}");

        // Move the blocker a lane over: the far car is revealed.
        let mut w2 = World::new(Road::default_highway());
        w2.add_actor(Actor::new(
            ActorId(1),
            ActorKind::Car,
            VehicleState::new(40.0, 3.7, 10.0, 0.0, 0.0),
            Behavior::ConstantSpeed,
        ));
        w2.add_actor(Actor::new(
            ActorId(2),
            ActorKind::Car,
            VehicleState::new(90.0, 0.0, 0.0, 0.0, 0.0),
            Behavior::Static,
        ));
        w2.set_ego(VehicleState::new(0.0, 0.0, 20.0, 0.0, 0.0), ActorKind::Car.dims());
        let mut ids: Vec<u32> = sensor.sense(&w2, &mut rng).iter().map(|d| d.truth_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "both cars visible: {ids:?}");
    }

    #[test]
    fn noise_statistics_match_spec() {
        let w = world_with_car_at(50.0, 0.0);
        let mut rng = NoiseRng::seed_from_u64(3);
        let s = ObjectSensor::camera();
        let n = 5000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let dets = s.sense(&w, &mut rng);
            if let Some(d) = dets.first() {
                let err = d.position.x - 50.0;
                sum += err;
                sum_sq += err * err;
            }
        }
        let mean = sum / n as f64;
        let std = (sum_sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.05, "bias = {mean}");
        assert!((std - s.pos_noise).abs() < 0.1, "std = {std}");
    }
}
