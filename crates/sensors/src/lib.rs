//! Sensor models for the simulated AV.
//!
//! The paper's ADS stacks consume camera, LiDAR, RADAR, GPS and IMU/CAN
//! data (`I_t` and `M_t` in Fig. 1). Here each sensor extracts ground
//! truth from the [`drivefi_world::World`] and degrades it with Gaussian
//! noise, dropouts, and range/field-of-view limits, at a per-sensor
//! refresh rate. The slowest sensor runs at **7.5 Hz**, which the paper
//! uses as the discrete time base of the injector (§III-A,
//! "Discretization").
//!
//! A suite draws all its noise from one seeded [`NoiseRng`] stream.
//! Runs of one scenario draw the same stream, so [`Gaussian::sample`]
//! memoizes each Box–Muller normal per thread by (seed, stream
//! position), in a fixed table of [`noise::MEMO_POSITIONS`] positions
//! at 8 bytes each, which a thread takes when it first re-draws a
//! stream; see [`noise`].
//!
//! # Example
//!
//! ```
//! use drivefi_sensors::SensorSuite;
//! use drivefi_world::{World, scenario::ScenarioConfig, ActorKind};
//!
//! let cfg = ScenarioConfig::lead_vehicle_cruise(3);
//! let mut world = World::from_scenario(&cfg);
//! world.set_ego(cfg.ego_start, ActorKind::Car.dims());
//! let mut suite = SensorSuite::with_seed(42);
//! let frame = suite.sample(&world, 0);
//! assert!(frame.imu.is_some()); // IMU ticks on frame 0
//! ```

pub mod detection;
pub mod noise;
pub mod object_sensor;
pub mod suite;

pub use detection::{Detection, GpsFix, ImuSample, SensorKind};
pub use noise::{Gaussian, NoiseRng};
pub use object_sensor::ObjectSensor;
pub use suite::{SensorFrame, SensorSuite};
