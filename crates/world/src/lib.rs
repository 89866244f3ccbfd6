//! A deterministic 2-D driving world.
//!
//! This crate is the stand-in for the proprietary simulators the paper
//! drives (NVIDIA DriveSim and LGSVL): a multi-lane straight highway,
//! target vehicles (TVs) with car-following (IDM) and lane-change
//! behaviors, pedestrians and static obstacles, plus oriented-bounding-box
//! collision detection and ground-truth free-distance queries used by the
//! hazard monitor.
//!
//! What matters for the reproduction is preserved: a **closed loop** in
//! which corrupted actuation changes the ego vehicle's safety potential δ
//! and can cause real (geometric) collisions, and a **scene suite** of
//! 7 200 camera frames with a small hazardous tail, mirroring the paper's
//! evaluation corpus.
//!
//! # Example
//!
//! ```
//! use drivefi_world::scenario::ScenarioConfig;
//! use drivefi_world::World;
//!
//! let cfg = ScenarioConfig::cut_in(42);
//! let mut world = World::from_scenario(&cfg);
//! for _ in 0..10 {
//!     world.step(0.1);
//! }
//! assert!(world.time() > 0.99);
//! ```

pub mod actor;
pub mod behavior;
pub mod collision;
pub mod road;
pub mod scenario;
pub mod spec;
mod world_impl;

pub use actor::{Actor, ActorId, ActorKind, BodyDims};
pub use behavior::{Behavior, IdmParams};
pub use collision::{obb_overlap, segment_intersects_obb, Obb};
pub use road::{Lane, LaneId, Road};
pub use scenario::{ScenarioConfig, ScenarioSuite};
pub use spec::{FamilyRegistry, ScenarioSpec};
pub use world_impl::{GroundTruth, World};
