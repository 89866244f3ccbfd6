//! The exhaustive candidate enumeration: every fault the miner
//! screens, as injectable `(scenario id, FaultSpec)` pairs.
//!
//! The paper validates the mined set forward (460 of 561 mined faults
//! manifest → 82 % precision) but never runs the exhaustive campaign
//! that would expose the miner's *recall* — that campaign is the 615-day
//! cost the whole approach exists to avoid. At our simulator's speed it
//! is affordable on a corpus subset: a `kind = "exhaustive"` plan
//! injects every pair enumerated here for real, and the mined set can be
//! compared against the manifested one.

use crate::miner::BayesianMiner;
use drivefi_fault::{FaultKind, FaultSpec};
use drivefi_sim::Trace;
use drivefi_world::ScenarioSuite;

/// The exhaustive candidate enumeration as light-weight
/// `(scenario id, FaultSpec)` pairs, in the miner's deterministic
/// candidate order: every candidate the miner would consider (same
/// eligibility and stride), each with the
/// [`crate::report::VALIDATION_WINDOW_SCENES`]-scene injection window.
/// This is the **stable job indexing** an exhaustive sweep's store
/// persists under — the pair at index `i` is job `i`, interrupted or
/// not, because the enumeration is a pure function of the traces.
pub fn candidate_specs(miner: &BayesianMiner, traces: &[Trace]) -> Vec<(u32, FaultSpec)> {
    traces
        .iter()
        .flat_map(|trace| {
            miner.candidates(trace).map(|(k, signal, _var, model)| {
                let scene = trace.frames[k].scene;
                (
                    trace.scenario_id,
                    FaultSpec {
                        kind: FaultKind::Scalar { signal, model },
                        window: drivefi_fault::WindowSpec::burst(
                            scene,
                            crate::report::VALIDATION_WINDOW_SCENES,
                        ),
                    },
                )
            })
        })
        .collect()
}

/// The per-job [`RecordMeta`](drivefi_store::RecordMeta) table for a
/// faulted sweep over `(scenario id, FaultSpec)` pairs (an exhaustive
/// candidate sweep or a mined-set validation), indexed by job index.
pub fn candidate_record_metas(
    suite: &ScenarioSuite,
    candidates: &[(u32, FaultSpec)],
) -> Vec<drivefi_store::RecordMeta> {
    candidates
        .iter()
        .map(|&(scenario_id, spec)| drivefi_store::RecordMeta {
            scenario_id,
            scenario_seed: suite.scenarios[scenario_id as usize].seed,
            fault: Some(spec),
        })
        .collect()
}
