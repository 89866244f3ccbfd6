//! # DriveFI-rs
//!
//! A Rust reproduction of **DriveFI** — *"ML-based Fault Injection for
//! Autonomous Vehicles: A Case for Bayesian Fault Injection"* (Jha et al.,
//! DSN 2019). This facade crate re-exports every workspace crate so
//! examples and downstream users can depend on a single package.
//!
//! ## Architecture
//!
//! * [`kinematics`] — bicycle model, emergency stop, safety potential δ.
//! * [`world`] — 2-D highway world, target-vehicle behaviors, scenarios.
//! * [`sensors`] — camera/LiDAR/RADAR/GPS/IMU models with noise and rates.
//! * [`perception`] — EKF multi-object tracking and sensor fusion.
//! * [`planner`] — safety envelope + ACC / lane-keeping planner.
//! * [`control`] — PID smoothing of raw actuation commands.
//! * [`ads`] — message bus, module scheduler, fault-injectable variables.
//! * [`bayes`] — discrete Bayesian networks, inference, do-calculus.
//! * [`fault`] — fault models, injector, architectural soft-error VM.
//! * [`sim`] — closed-loop simulator, hazard monitor, parallel campaigns.
//! * [`core`] — the Bayesian fault-injection engine itself.
//! * [`plan`] — TOML campaign plans + scenario-spec files: run any
//!   campaign from a `.toml` file without recompiling.
//! * [`store`] — persistent campaign store: sharded CRC-framed result
//!   logs, checkpoint manifests, crash-tolerant resume, and the
//!   round-trip report artifacts behind the `drivefi` CLI.
//! * [`serve`] — the campaign daemon: a spool of submitted plans
//!   scheduled fair-share across a shared worker pool, with live
//!   `status.toml` progress and crash-equivalent restart.
//! * [`obs`] — campaign observability: the append-only `events.jsonl`
//!   lifecycle log, fingerprint-neutral by construction.
//! * [`genfi`] — the engine generalized to arbitrary safety-critical
//!   systems (with a surgical-robot instantiation).
//!
//! ## Quickstart
//!
//! ```
//! use drivefi::sim::{Simulation, SimConfig};
//! use drivefi::world::scenario::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::lead_vehicle_cruise(7);
//! let mut sim = Simulation::new(SimConfig::default(), &scenario);
//! let report = sim.run();
//! assert!(report.outcome.is_safe());
//! ```

pub use drivefi_ads as ads;
pub use drivefi_bayes as bayes;
pub use drivefi_control as control;
pub use drivefi_core as core;
pub use drivefi_fault as fault;
pub use drivefi_genfi as genfi;
pub use drivefi_kinematics as kinematics;
pub use drivefi_obs as obs;
pub use drivefi_perception as perception;
pub use drivefi_plan as plan;
pub use drivefi_planner as planner;
pub use drivefi_sensors as sensors;
pub use drivefi_serve as serve;
pub use drivefi_sim as sim;
pub use drivefi_store as store;
pub use drivefi_world as world;
