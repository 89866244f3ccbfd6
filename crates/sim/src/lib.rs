//! The closed-loop AV simulator and campaign runner.
//!
//! This crate stands in for the paper's DriveSim/LGSVL test bench: it
//! closes the loop between the [`drivefi_world::World`], the sensor
//! suite, the [`drivefi_ads::AdsStack`], and the ego vehicle dynamics,
//! while a **hazard monitor** (the paper's safety checker) evaluates the
//! *ground-truth* safety potential δ every frame and detects geometric
//! collisions.
//!
//! A [`Trace`] records one [`FrameRecord`] per **scene** (7.5 Hz camera
//! frame, the paper's unit of evaluation); traces of golden runs are the
//! training data for the Bayesian network in `drivefi-core`.
//!
//! The [`CampaignEngine`] executes many (scenario × fault) runs in
//! parallel with deterministic seeding. It collects the pending jobs
//! from a [`JobSource`] and dispatches one task per scenario (split only
//! when a scenario holds more than its share of the workers): each task
//! drives one golden pilot forward, each job runs on its own
//! [`Simulation`] forked from the pilot at the scene where it can first
//! diverge, and results stream into a [`CampaignSink`] ([`Collector`],
//! [`RunningStats`], [`TraceSink`]); [`CampaignEngine::collect`]
//! returns them in job order. This crate is also the only place in the
//! workspace that spawns worker threads ([`engine::stream_map`] /
//! [`engine::parallel_map`], with [`default_workers`] as the one
//! worker-count policy).
//!
//! # Example
//!
//! ```
//! use drivefi_sim::{Simulation, SimConfig};
//! use drivefi_world::scenario::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::lead_vehicle_cruise(7);
//! let mut sim = Simulation::new(SimConfig::default(), &scenario);
//! let report = sim.run();
//! assert!(report.outcome.is_safe());
//! ```

mod batch;
pub mod campaign;
pub mod engine;
pub mod outcome;
pub mod simulation;
pub mod trace;

pub use campaign::{
    CampaignEngine, CampaignJob, CampaignResult, CampaignSink, Collector, JobSource, RunningStats,
    Tee, TraceSink,
};
pub use engine::{default_workers, parallel_map, stream_map};
pub use outcome::{Outcome, RunReport};
pub use simulation::{SimConfig, Simulation, BASE_TICKS_PER_SCENE};
pub use trace::{FrameRecord, Trace};
