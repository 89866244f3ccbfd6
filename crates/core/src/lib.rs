//! DriveFI: Bayesian fault injection for autonomous vehicles.
//!
//! This crate is the paper's primary contribution (§III): an ML-based
//! fault-selection engine that mines the *(scene, fault)* pairs most
//! likely to violate AV safety, orders of magnitude faster than running
//! every candidate through the simulator.
//!
//! The pipeline:
//!
//! 1. **Golden runs** ([`collect_golden_traces`]) drive every scenario
//!    fault-free and record per-scene traces of the ADS variables
//!    (`W_t`, `M_t`, `U_A,t`, `A_t`) and the ground-truth δ.
//! 2. **Model fitting** ([`TbnModel::fit`]) discretizes the traces and
//!    learns the CPDs of a 3-slice temporal Bayesian network whose
//!    topology mirrors the ADS architecture (paper Fig. 6).
//! 3. **Mining** ([`BayesianMiner`]) treats each candidate fault as a
//!    Pearl intervention `do(f)` on the middle slice, infers the
//!    maximum-likelihood next-slice kinematic state `M̂_{t+1}` (Eq. 2),
//!    reconstructs δ̂ through the emergency-stop procedure, and keeps the
//!    faults with `δ > 0 ∧ δ̂_do(f) ≤ 0` — the critical set `F_crit`
//!    (Eq. 1).
//! 4. **Validation** ([`validate_candidates`]) re-simulates each mined
//!    fault with the real injector and classifies outcomes.
//!
//! Campaigns run from plans: `drivefi-plan` drives the random-FI
//! baseline the paper compares against ([`random_fault_picks`]), the
//! exhaustive ground truth ([`candidate_specs`]) and this pipeline
//! through one store-backed engine.
//!
//! # Example
//!
//! ```no_run
//! use drivefi_core::{collect_golden_traces, BayesianMiner, MinerConfig};
//! use drivefi_sim::SimConfig;
//! use drivefi_world::ScenarioSuite;
//!
//! let suite = ScenarioSuite::paper_suite(2026);
//! let golden = collect_golden_traces(&SimConfig::default(), &suite, 8);
//! let miner = BayesianMiner::fit(&golden, MinerConfig::default()).unwrap();
//! let critical = miner.mine(&golden);
//! println!("|F_crit| = {}", critical.len());
//! ```

pub mod acquisition;
pub mod exhaustive;
pub mod golden;
pub mod miner;
pub mod random;
pub mod report;
pub mod tbn;

pub use acquisition::{AcquisitionConfig, CandidateScorer};
pub use exhaustive::{candidate_record_metas, candidate_specs, candidate_specs_from_store};
pub use golden::{collect_golden_traces, golden_record_metas};
pub use miner::{
    BayesianMiner, CandidateFault, GoldenCorpus, MinedFault, MinerConfig, SceneEligibility,
};
pub use random::{pick_record_metas, random_fault_picks, RandomCampaignConfig};
pub use report::{validate_candidates, AccelerationReport, ValidationStats};
pub use tbn::{SceneObs, TbnModel, TbnVar, NO_LEAD};
