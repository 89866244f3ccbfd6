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

use crate::miner::{scene_candidates, BayesianMiner, SceneEligibility};
use drivefi_fault::{FaultKind, FaultSpec, WindowSpec};
use drivefi_sim::Trace;
use drivefi_store::StoreError;
use drivefi_world::ScenarioSuite;
use std::path::Path;

/// The exhaustive candidate enumeration as light-weight
/// `(scenario id, FaultSpec)` pairs, in the miner's deterministic
/// candidate order: every candidate the miner would consider (same
/// eligibility and stride), each with the
/// [`crate::report::VALIDATION_WINDOW_SCENES`]-scene injection window.
/// This is the **stable job indexing** an exhaustive sweep's store
/// persists under — the pair at index `i` is job `i`, interrupted or
/// not, because the enumeration is a pure function of the traces.
pub fn candidate_specs(miner: &BayesianMiner, traces: &[Trace]) -> Vec<(u32, FaultSpec)> {
    specs(
        miner.config().scene_stride,
        traces.iter().map(|t| (t.scenario_id, t.frames.iter().map(SceneEligibility::of))),
    )
}

/// [`candidate_specs`] of the golden traces persisted in the
/// trace-logging store at `dir`, at `scene_stride`, with no fitted miner:
/// one streaming pass over the store keeps each frame's
/// [`SceneEligibility`] (two flags) and decodes no whole trace. An
/// exhaustive sweep needs nothing else, so it never fits the 3-TBN.
///
/// # Errors
///
/// Returns a [`StoreError`] when [`drivefi_store::read_traces`] would:
/// the store is not a trace-logging store, is unreadable, or holds
/// incomplete traces.
pub fn candidate_specs_from_store(
    dir: impl AsRef<Path>,
    scene_stride: usize,
) -> Result<Vec<(u32, FaultSpec)>, StoreError> {
    let (_, scan) = drivefi_store::read_projected_traces(dir, SceneEligibility::of)?;
    Ok(specs(scene_stride, scan.iter().map(|t| (t.scenario_id, t.frames.iter().copied()))))
}

/// The candidate pairs of `(scenario id, per-scene eligibility)` traces.
/// A golden run records every scene from 0, so frame `k` is scene `k`.
fn specs<S: ExactSizeIterator<Item = SceneEligibility>>(
    scene_stride: usize,
    traces: impl Iterator<Item = (u32, S)>,
) -> Vec<(u32, FaultSpec)> {
    traces
        .flat_map(|(scenario_id, scenes)| {
            scene_candidates(scene_stride, scenes).map(move |(k, signal, _var, model)| {
                (
                    scenario_id,
                    FaultSpec {
                        kind: FaultKind::Scalar { signal, model },
                        window: WindowSpec::burst(
                            k as u64,
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
