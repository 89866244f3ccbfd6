//! The random fault-injection baseline's sampling (paper fault model
//! *b*, random selection), generalized to any [`FaultSpace`]. A
//! `kind = "random"` plan runs these picks as its jobs.

use drivefi_fault::{FaultSpace, FaultSpec};
use drivefi_world::ScenarioSuite;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a random output-corruption campaign.
#[derive(Debug, Clone, Copy)]
pub struct RandomCampaignConfig {
    /// Number of injection runs.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
}

/// The RNG stream of a random campaign: `config.runs` draws of
/// `(scenario index, fault spec)`, each pick one uniform scenario draw
/// followed by one [`FaultSpace::sample`]. Drawn up front so the stream
/// is a pure function of the seed, never of worker scheduling: job `i`
/// of a random campaign's store injects pick `i`.
pub fn random_fault_picks(
    suite: &ScenarioSuite,
    space: &FaultSpace,
    config: &RandomCampaignConfig,
) -> Vec<(usize, FaultSpec)> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.runs)
        .map(|_| {
            let index = rng.random_range(0..suite.scenarios.len());
            let scene_count = suite.scenarios[index].scene_count() as u64;
            (index, space.sample(scene_count, &mut rng))
        })
        .collect()
}

/// The per-job [`RecordMeta`](drivefi_store::RecordMeta) table for a
/// random campaign's picks, indexed by job index — what a
/// [`StoreSink`](drivefi_store::StoreSink) needs to turn engine results
/// into persisted [`CampaignRecord`](drivefi_store::CampaignRecord)s.
pub fn pick_record_metas(
    suite: &ScenarioSuite,
    picks: &[(usize, FaultSpec)],
) -> Vec<drivefi_store::RecordMeta> {
    picks
        .iter()
        .map(|&(index, spec)| {
            let scenario = &suite.scenarios[index];
            drivefi_store::RecordMeta {
                scenario_id: scenario.id,
                scenario_seed: scenario.seed,
                fault: Some(spec),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_a_pure_function_of_the_seed() {
        let suite = ScenarioSuite::generate(4, 42);
        let space = FaultSpace::default();
        let config = RandomCampaignConfig { runs: 30, seed: 77, workers: 2 };
        let a = random_fault_picks(&suite, &space, &config);
        let b = random_fault_picks(&suite, &space, &config);
        assert_eq!(a, b);
        for &(index, spec) in &a {
            let scene_count = suite.scenarios[index].scene_count() as u64;
            assert!(space.scene_range(scene_count).contains(&spec.window.scene));
        }
    }
}
