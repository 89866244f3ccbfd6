//! The typed message bus carrying all inter-module signals.

use drivefi_kinematics::{Actuation, SafetyEnvelope, SafetyPotential, VehicleState};
use drivefi_perception::WorldModel;
use drivefi_sensors::{ImuSample, SensorFrame};

/// A pipeline stage boundary. The fault injector is invoked after each
/// stage publishes to the bus — these are the paper's injection points
/// into `I_t`, `M_t`, `S_t`, `U_A,t` and `A_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Raw sensor data `I_t` and `M_t` just arrived.
    Sensors,
    /// Localization published the pose estimate (part of `S_t`).
    Localization,
    /// Perception published the world model `W_t`.
    Perception,
    /// The planner published the raw actuation `U_A,t`.
    Planning,
    /// The PID controller published the final actuation `A_t`.
    Control,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Sensors, Stage::Localization, Stage::Perception, Stage::Planning, Stage::Control];

    /// Dense index of the stage (pipeline order).
    pub fn index(self) -> usize {
        match self {
            Stage::Sensors => 0,
            Stage::Localization => 1,
            Stage::Perception => 2,
            Stage::Planning => 3,
            Stage::Control => 4,
        }
    }

    /// The inverse of [`Stage::name`], for deserialized fault specs.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Sensors => "sensors",
            Stage::Localization => "localization",
            Stage::Perception => "perception",
            Stage::Planning => "planning",
            Stage::Control => "control",
        }
    }
}

/// The bus: a snapshot of every signal flowing between ADS modules during
/// one tick. Modules write their outputs here; the next module reads its
/// inputs from here; the injector may mutate anything in between.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Sensor data for this tick (`I_t` + raw `M_t`).
    pub sensors: SensorFrame,
    /// Latest inertial measurement `M_t` (held between IMU ticks).
    pub imu: ImuSample,
    /// Localization output: estimated ego pose.
    pub pose: VehicleState,
    /// Perception output: the world model `W_t`.
    pub world_model: WorldModel,
    /// Planner output: raw actuation `U_A,t`.
    pub raw_cmd: Actuation,
    /// Planner output: perceived safety envelope.
    pub envelope: SafetyEnvelope,
    /// Planner output: perceived safety potential δ.
    pub delta: SafetyPotential,
    /// Control output: final actuation `A_t`.
    pub final_cmd: Actuation,
    /// Per-stage publication counters (indexed by [`Stage::index`]),
    /// bumped each time a module publishes its outputs. These are the
    /// heartbeats the [`crate::Watchdog`] monitors: a hung module stops
    /// bumping its counter the way a hung CyberRT node stops publishing
    /// on its channel.
    pub heartbeats: [u64; 5],
}

impl Default for Bus {
    fn default() -> Self {
        Bus {
            sensors: SensorFrame::default(),
            imu: ImuSample { speed: 0.0, accel: 0.0, yaw_rate: 0.0 },
            pose: VehicleState::default(),
            world_model: WorldModel::default(),
            raw_cmd: Actuation::default(),
            envelope: SafetyEnvelope::new(200.0, 0.9),
            delta: SafetyPotential { longitudinal: 200.0, lateral: 0.6 },
            final_cmd: Actuation::default(),
            heartbeats: [0; 5],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_ordered_pipeline_wise() {
        let all = Stage::ALL;
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn bus_default_is_sane() {
        let b = Bus::default();
        assert_eq!(b.world_model.objects.len(), 0);
        assert_eq!(b.raw_cmd.throttle, 0.0);
    }
}
