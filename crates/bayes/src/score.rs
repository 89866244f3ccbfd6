//! Structure scoring: how well a network topology explains data.
//!
//! The paper derives its 3-TBN topology from the ADS architecture
//! (Fig. 1 → Fig. 6) rather than learning it from data. This module
//! provides the machinery to *defend* that choice quantitatively: the
//! log-likelihood and BIC score of a candidate structure against the
//! golden traces, so the architecture-derived topology can be compared
//! against ablated alternatives (no temporal edges, fully disconnected,
//! reversed causality) in the structure-ablation experiment.
//!
//! Scores follow the standard decomposable form: for structure `G` with
//! parent sets `pa_G(X)` and data `D` of `N` complete rows,
//!
//! ```text
//! LL(G : D)  = Σ_rows Σ_X log P̂(x | pa_G(x))
//! BIC(G : D) = LL(G : D) − (log N / 2) · dim(G)
//! ```
//!
//! where `dim(G)` counts the free parameters `Σ_X (|X| − 1) · Π |pa|`.

use crate::network::{BayesNet, VarId};
use crate::BayesError;

/// A scored decomposition per variable, plus the totals.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureScore {
    /// Total data log-likelihood under the fitted CPTs.
    pub log_likelihood: f64,
    /// Number of free parameters of the structure.
    pub dimension: usize,
    /// Bayesian information criterion: `LL − (ln N / 2)·dim`.
    pub bic: f64,
    /// Number of data rows scored.
    pub rows: usize,
    /// Per-variable log-likelihood contributions (indexed by `VarId.0`).
    pub per_variable: Vec<f64>,
}

/// Number of free parameters in the network's CPTs.
///
/// # Errors
///
/// Returns [`BayesError::MissingCpt`] if any variable lacks a CPT.
pub fn dimension(net: &BayesNet) -> Result<usize, BayesError> {
    let mut dim = 0usize;
    for var in net.variables() {
        let cpt = net.cpt(var).ok_or(BayesError::MissingCpt(var))?;
        let parent_size: usize = cpt.parents.iter().map(|p| net.cardinality(*p)).product();
        dim += (net.cardinality(var) - 1) * parent_size.max(1);
    }
    Ok(dim)
}

/// Log-likelihood of complete data under the network's fitted CPTs.
///
/// `data` is the byte matrix [`crate::learn::fit_cpts`] consumes: one
/// row per sample, one category byte per variable. Zero-probability
/// entries contribute `ln(ε)` with `ε = 1e-300` instead of `-∞`, so
/// ablated structures that assign zero mass to observed rows score
/// abysmally but finitely.
///
/// # Errors
///
/// Returns an error when a CPT is missing, the data is malformed (as
/// [`crate::learn::fit_cpts`] rejects it), or a row holds an
/// out-of-range category.
pub fn log_likelihood(net: &BayesNet, data: &[u8]) -> Result<StructureScore, BayesError> {
    const EPS: f64 = 1e-300;
    let rows = crate::learn::data_rows(net, data)?;
    let n = rows.len();
    let mut per_variable = vec![0.0f64; net.len()];
    for row in rows {
        for var in net.variables() {
            let cpt = net.cpt(var).ok_or(BayesError::MissingCpt(var))?;
            let card = net.cardinality(var);
            let value = usize::from(row[var.0]);
            if value >= card {
                return Err(BayesError::BadCategory { var, value });
            }
            let mut pr = 0usize;
            for p in &cpt.parents {
                let pv = usize::from(row[p.0]);
                if pv >= net.cardinality(*p) {
                    return Err(BayesError::BadCategory { var: *p, value: pv });
                }
                pr = pr * net.cardinality(*p) + pv;
            }
            per_variable[var.0] += cpt.table[pr * card + value].max(EPS).ln();
        }
    }
    let ll: f64 = per_variable.iter().sum();
    let dim = dimension(net)?;
    let bic = ll - (n.max(1) as f64).ln() / 2.0 * dim as f64;
    Ok(StructureScore { log_likelihood: ll, dimension: dim, bic, rows: n, per_variable })
}

/// Fits a structure to data and scores it in one step: builds CPTs by
/// Laplace-smoothed maximum likelihood over the byte matrix `data`, then
/// computes the BIC on the same rows (the usual in-sample
/// structure-selection score).
///
/// # Errors
///
/// Propagates fitting and scoring failures (cyclic structure, malformed
/// data).
pub fn fit_and_score(
    net: &mut BayesNet,
    structure: &[(VarId, Vec<VarId>)],
    data: &[u8],
    alpha: f64,
) -> Result<StructureScore, BayesError> {
    crate::learn::fit_cpts(net, structure, data, alpha)?;
    log_likelihood(net, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic data from A -> B: strongly dependent.
    fn dependent_rows(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .flat_map(|_| {
                let a = u8::from(rng.random_bool(0.5));
                let b = if a == 1 {
                    u8::from(rng.random_bool(0.95))
                } else {
                    u8::from(rng.random_bool(0.05))
                };
                [a, b]
            })
            .collect()
    }

    fn two_var_net() -> (BayesNet, VarId, VarId) {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 2);
        (net, a, b)
    }

    #[test]
    fn dimension_counts_free_parameters() {
        let (mut net, a, b) = two_var_net();
        crate::learn::fit_cpts(&mut net, &[(a, vec![]), (b, vec![a])], &dependent_rows(50, 1), 1.0)
            .unwrap();
        // a: 1 free param; b|a: 2 rows × 1 = 2 → 3 total.
        assert_eq!(dimension(&net).unwrap(), 3);
    }

    #[test]
    fn true_structure_beats_empty_on_dependent_data() {
        let rows = dependent_rows(2_000, 7);
        let (mut linked, a, b) = two_var_net();
        let linked_score =
            fit_and_score(&mut linked, &[(a, vec![]), (b, vec![a])], &rows, 1.0).unwrap();
        let (mut empty, a2, b2) = two_var_net();
        let empty_score =
            fit_and_score(&mut empty, &[(a2, vec![]), (b2, vec![])], &rows, 1.0).unwrap();
        assert!(
            linked_score.bic > empty_score.bic,
            "BIC should favor the true structure: {} vs {}",
            linked_score.bic,
            empty_score.bic
        );
        assert!(linked_score.log_likelihood > empty_score.log_likelihood);
    }

    #[test]
    fn bic_penalizes_spurious_edges_on_independent_data() {
        let mut rng = StdRng::seed_from_u64(13);
        let rows: Vec<u8> = (0..2_000)
            .flat_map(|_| [u8::from(rng.random_bool(0.5)), u8::from(rng.random_bool(0.5))])
            .collect();
        let (mut linked, a, b) = two_var_net();
        let linked_score =
            fit_and_score(&mut linked, &[(a, vec![]), (b, vec![a])], &rows, 1.0).unwrap();
        let (mut empty, a2, b2) = two_var_net();
        let empty_score =
            fit_and_score(&mut empty, &[(a2, vec![]), (b2, vec![])], &rows, 1.0).unwrap();
        assert!(
            empty_score.bic > linked_score.bic,
            "BIC should prune the spurious edge: {} vs {}",
            empty_score.bic,
            linked_score.bic
        );
    }

    #[test]
    fn log_likelihood_decomposes() {
        let rows = dependent_rows(300, 3);
        let (mut net, a, b) = two_var_net();
        let score = fit_and_score(&mut net, &[(a, vec![]), (b, vec![a])], &rows, 1.0).unwrap();
        let sum: f64 = score.per_variable.iter().sum();
        assert!((sum - score.log_likelihood).abs() < 1e-9);
        assert_eq!(score.rows, 300);
    }

    #[test]
    fn impossible_rows_score_finite() {
        let (mut net, a, b) = two_var_net();
        // Fit on all-zeros with no smoothing → P(1) = 0 exactly.
        let zeros = [0u8; 20];
        crate::learn::fit_cpts(&mut net, &[(a, vec![]), (b, vec![])], &zeros, 0.0).unwrap();
        let score = log_likelihood(&net, &[1, 1]).unwrap();
        assert!(score.log_likelihood.is_finite());
        assert!(score.log_likelihood < -100.0);
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let (mut net, a, b) = two_var_net();
        crate::learn::fit_cpts(&mut net, &[(a, vec![]), (b, vec![a])], &dependent_rows(20, 9), 1.0)
            .unwrap();
        assert!(matches!(log_likelihood(&net, &[0, 5]), Err(BayesError::BadCategory { .. })));
        assert!(matches!(log_likelihood(&net, &[0]), Err(BayesError::RaggedData { .. })));
    }
}
