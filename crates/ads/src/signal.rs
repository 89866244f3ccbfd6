//! Enumerable injectable signals — the paper's instrumented ADS outputs.
//!
//! The paper's fault model *(b)* corrupts "ADS software module outputs
//! with min or max values", drawn from a compiled list of variables per
//! stack (§IV, Table I analog). [`Signal`] is that list for our stack:
//! every scalar an injector can read or overwrite on the [`Bus`], with
//! its physical range for min/max corruption.

use crate::Bus;
use drivefi_kinematics::Vec2;

/// A scalar signal on the bus that faults can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Localization: estimated x position (part of `S_t`).
    PoseX,
    /// Localization: estimated y position.
    PoseY,
    /// Localization: estimated speed.
    PoseSpeed,
    /// Localization: estimated heading.
    PoseHeading,
    /// Inertial measurement `M_t`: speed over ground.
    ImuSpeed,
    /// Inertial measurement `M_t`: longitudinal acceleration.
    ImuAccel,
    /// World model `W_t`: longitudinal distance of the lead object
    /// (ego-frame x of the nearest tracked object ahead).
    LeadDistance,
    /// World model `W_t`: lead object speed along the road.
    LeadSpeed,
    /// Planner `U_A,t`: raw throttle.
    RawThrottle,
    /// Planner `U_A,t`: raw brake.
    RawBrake,
    /// Planner `U_A,t`: raw steering.
    RawSteering,
    /// Control `A_t`: final throttle.
    FinalThrottle,
    /// Control `A_t`: final brake.
    FinalBrake,
    /// Control `A_t`: final steering.
    FinalSteering,
}

/// The physical range of a signal, used by min/max corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalRange {
    /// Minimum plausible value.
    pub min: f64,
    /// Maximum plausible value.
    pub max: f64,
}

impl Signal {
    /// Every injectable signal, in a stable order. The cross product of
    /// this list with `{min, max}` and the scene list forms the paper's
    /// candidate fault corpus (98 400 faults in their setup).
    pub const ALL: [Signal; 14] = [
        Signal::PoseX,
        Signal::PoseY,
        Signal::PoseSpeed,
        Signal::PoseHeading,
        Signal::ImuSpeed,
        Signal::ImuAccel,
        Signal::LeadDistance,
        Signal::LeadSpeed,
        Signal::RawThrottle,
        Signal::RawBrake,
        Signal::RawSteering,
        Signal::FinalThrottle,
        Signal::FinalBrake,
        Signal::FinalSteering,
    ];

    /// Position of this signal in [`Signal::ALL`] — a dense `u8` index
    /// for cheap `Copy` fault keys.
    pub fn index(self) -> u8 {
        Signal::ALL.iter().position(|s| *s == self).expect("signal listed in ALL") as u8
    }

    /// The inverse of [`Signal::name`], for deserialized fault specs.
    pub fn from_name(name: &str) -> Option<Signal> {
        Signal::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable short name (used in reports and CSV output).
    pub fn name(self) -> &'static str {
        match self {
            Signal::PoseX => "pose.x",
            Signal::PoseY => "pose.y",
            Signal::PoseSpeed => "pose.v",
            Signal::PoseHeading => "pose.theta",
            Signal::ImuSpeed => "imu.speed",
            Signal::ImuAccel => "imu.accel",
            Signal::LeadDistance => "world.lead_distance",
            Signal::LeadSpeed => "world.lead_speed",
            Signal::RawThrottle => "plan.throttle",
            Signal::RawBrake => "plan.brake",
            Signal::RawSteering => "plan.steering",
            Signal::FinalThrottle => "ctrl.throttle",
            Signal::FinalBrake => "ctrl.brake",
            Signal::FinalSteering => "ctrl.steering",
        }
    }

    /// The pipeline stage after which this signal becomes valid.
    pub fn stage(self) -> crate::Stage {
        match self {
            Signal::ImuSpeed | Signal::ImuAccel => crate::Stage::Sensors,
            Signal::PoseX | Signal::PoseY | Signal::PoseSpeed | Signal::PoseHeading => {
                crate::Stage::Localization
            }
            Signal::LeadDistance | Signal::LeadSpeed => crate::Stage::Perception,
            Signal::RawThrottle | Signal::RawBrake | Signal::RawSteering => crate::Stage::Planning,
            Signal::FinalThrottle | Signal::FinalBrake | Signal::FinalSteering => {
                crate::Stage::Control
            }
        }
    }

    /// Physical range for min/max corruption (paper fault model *b*).
    pub fn range(self) -> SignalRange {
        match self {
            Signal::PoseX => SignalRange { min: 0.0, max: 4000.0 },
            Signal::PoseY => SignalRange { min: -2.0, max: 10.0 },
            Signal::PoseSpeed | Signal::ImuSpeed => SignalRange { min: 0.0, max: 55.0 },
            Signal::PoseHeading => SignalRange { min: -0.8, max: 0.8 },
            Signal::ImuAccel => SignalRange { min: -8.0, max: 3.5 },
            Signal::LeadDistance => SignalRange { min: 0.0, max: 200.0 },
            Signal::LeadSpeed => SignalRange { min: 0.0, max: 55.0 },
            Signal::RawThrottle | Signal::FinalThrottle => SignalRange { min: 0.0, max: 1.0 },
            Signal::RawBrake | Signal::FinalBrake => SignalRange { min: 0.0, max: 1.0 },
            Signal::RawSteering | Signal::FinalSteering => SignalRange { min: -0.55, max: 0.55 },
        }
    }

    /// Index of the lead object (nearest tracked object ahead of the
    /// pose) in the bus world model.
    fn lead_index(bus: &Bus) -> Option<usize> {
        let pose = bus.pose;
        bus.world_model
            .objects
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                let local = pose.to_local(o.position);
                local.x > 0.0 && local.y.abs() < 2.0
            })
            .min_by(|(_, a), (_, b)| {
                let da = pose.to_local(a.position).x;
                let db = pose.to_local(b.position).x;
                da.partial_cmp(&db).expect("finite positions")
            })
            .map(|(i, _)| i)
    }

    /// Reads the signal's current value from the bus. Returns `None` when
    /// the signal has no value (e.g. no lead object exists).
    pub fn read(self, bus: &Bus) -> Option<f64> {
        match self {
            Signal::PoseX => Some(bus.pose.x),
            Signal::PoseY => Some(bus.pose.y),
            Signal::PoseSpeed => Some(bus.pose.v),
            Signal::PoseHeading => Some(bus.pose.theta),
            Signal::ImuSpeed => Some(bus.imu.speed),
            Signal::ImuAccel => Some(bus.imu.accel),
            Signal::LeadDistance => Self::lead_index(bus)
                .map(|i| bus.pose.to_local(bus.world_model.objects[i].position).x),
            Signal::LeadSpeed => {
                Self::lead_index(bus).map(|i| bus.world_model.objects[i].velocity.x)
            }
            Signal::RawThrottle => Some(bus.raw_cmd.throttle),
            Signal::RawBrake => Some(bus.raw_cmd.brake),
            Signal::RawSteering => Some(bus.raw_cmd.steering),
            Signal::FinalThrottle => Some(bus.final_cmd.throttle),
            Signal::FinalBrake => Some(bus.final_cmd.brake),
            Signal::FinalSteering => Some(bus.final_cmd.steering),
        }
    }

    /// Writes `value` into the bus and reports whether any stored bit
    /// changed. Writes to lead-object signals move the tracked object;
    /// writes to missing signals are no-ops (a fault in a variable that
    /// holds no live value cannot propagate).
    pub fn write(self, bus: &mut Bus, value: f64) -> bool {
        fn set(slot: &mut f64, value: f64) -> bool {
            let changed = slot.to_bits() != value.to_bits();
            *slot = value;
            changed
        }
        match self {
            Signal::PoseX => set(&mut bus.pose.x, value),
            Signal::PoseY => set(&mut bus.pose.y, value),
            Signal::PoseSpeed => set(&mut bus.pose.v, value),
            Signal::PoseHeading => set(&mut bus.pose.theta, value),
            Signal::ImuSpeed => set(&mut bus.imu.speed, value),
            Signal::ImuAccel => set(&mut bus.imu.accel, value),
            Signal::LeadDistance => Self::lead_index(bus).is_some_and(|i| {
                let local = bus.pose.to_local(bus.world_model.objects[i].position);
                let new_local = Vec2::new(value, local.y);
                let world = new_local.rotated(bus.pose.theta) + bus.pose.position();
                let position = &mut bus.world_model.objects[i].position;
                set(&mut position.x, world.x) | set(&mut position.y, world.y)
            }),
            Signal::LeadSpeed => Self::lead_index(bus)
                .is_some_and(|i| set(&mut bus.world_model.objects[i].velocity.x, value)),
            Signal::RawThrottle => set(&mut bus.raw_cmd.throttle, value),
            Signal::RawBrake => set(&mut bus.raw_cmd.brake, value),
            Signal::RawSteering => set(&mut bus.raw_cmd.steering, value),
            Signal::FinalThrottle => set(&mut bus.final_cmd.throttle, value),
            Signal::FinalBrake => set(&mut bus.final_cmd.brake, value),
            Signal::FinalSteering => set(&mut bus.final_cmd.steering, value),
        }
    }
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drivefi_perception::{TrackId, TrackedObject, WorldModel};

    fn bus_with_lead(x: f64) -> Bus {
        let mut bus = Bus::default();
        bus.pose.v = 30.0;
        bus.world_model = WorldModel {
            objects: vec![TrackedObject {
                id: TrackId(0),
                position: Vec2::new(x, 0.0),
                velocity: Vec2::new(20.0, 0.0),
                extent: Vec2::new(4.7, 1.9),
                truth_id: 1,
            }],
        };
        bus
    }

    #[test]
    fn scalar_round_trip_all_signals() {
        for sig in Signal::ALL {
            // Fresh bus per signal: writes to pose fields change the ego
            // frame, which would perturb later lead-relative reads.
            let mut bus = bus_with_lead(50.0);
            assert!(sig.write(&mut bus, 0.25), "{sig}: a new value changes bits");
            let v = sig.read(&bus).unwrap();
            assert!((v - 0.25).abs() < 1e-9, "{sig} round-trip failed: {v}");
            // Rewriting a field's own value changes nothing.
            let stored = sig.read(&bus).unwrap();
            if sig != Signal::LeadDistance {
                assert!(!sig.write(&mut bus, stored), "{sig}: same bits reported as a change");
            }
        }
    }

    #[test]
    fn lead_distance_moves_object() {
        let mut bus = bus_with_lead(50.0);
        Signal::LeadDistance.write(&mut bus, 150.0);
        assert_eq!(bus.world_model.objects[0].position.x, 150.0);
        assert_eq!(Signal::LeadDistance.read(&bus), Some(150.0));
    }

    #[test]
    fn lead_signals_none_without_objects() {
        let bus = Bus::default();
        assert_eq!(Signal::LeadDistance.read(&bus), None);
        assert_eq!(Signal::LeadSpeed.read(&bus), None);
        // Writing is a no-op, not a panic, and changes nothing.
        let mut bus = Bus::default();
        assert!(!Signal::LeadDistance.write(&mut bus, 10.0));
        assert!(!Signal::LeadSpeed.write(&mut bus, 10.0));
    }

    #[test]
    fn ranges_are_ordered() {
        for sig in Signal::ALL {
            let r = sig.range();
            assert!(r.min < r.max, "{sig} range inverted");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Signal::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Signal::ALL.len());
    }

    #[test]
    fn stages_cover_pipeline() {
        use crate::Stage;
        assert_eq!(Signal::ImuSpeed.stage(), Stage::Sensors);
        assert_eq!(Signal::PoseX.stage(), Stage::Localization);
        assert_eq!(Signal::LeadDistance.stage(), Stage::Perception);
        assert_eq!(Signal::RawThrottle.stage(), Stage::Planning);
        assert_eq!(Signal::FinalBrake.stage(), Stage::Control);
    }

    #[test]
    fn lead_index_ignores_objects_behind_and_offside() {
        let mut bus = bus_with_lead(50.0);
        bus.world_model.objects.push(TrackedObject {
            id: TrackId(1),
            position: Vec2::new(-20.0, 0.0),
            velocity: Vec2::ZERO,
            extent: Vec2::new(4.7, 1.9),
            truth_id: 2,
        });
        bus.world_model.objects.push(TrackedObject {
            id: TrackId(2),
            position: Vec2::new(30.0, 3.7),
            velocity: Vec2::ZERO,
            extent: Vec2::new(4.7, 1.9),
            truth_id: 3,
        });
        // Nearest *in-corridor ahead* object is still the one at 50 m.
        assert_eq!(Signal::LeadDistance.read(&bus), Some(50.0));
    }
}
