//! Maximum-likelihood CPD learning from complete discrete data.

use crate::network::{BayesNet, Cpt, VarId};
use crate::BayesError;

/// Fits the CPT of every variable in `net` from complete data rows by
/// Laplace-smoothed maximum likelihood.
///
/// `structure` gives the parent set per variable; `rows` are complete
/// assignments indexed by `VarId.0`. `alpha` is the Dirichlet smoothing
/// pseudo-count (use 1.0 for classic Laplace).
///
/// # Errors
///
/// Returns an error if a CPT fails validation (e.g. the structure is
/// cyclic).
///
/// # Panics
///
/// Panics if a row is shorter than the variable count or contains
/// out-of-range categories.
pub fn fit_cpts(
    net: &mut BayesNet,
    structure: &[(VarId, Vec<VarId>)],
    rows: &[Vec<usize>],
    alpha: f64,
) -> Result<(), BayesError> {
    for (child, parents) in structure {
        let child_card = net.cardinality(*child);
        let parent_cards: Vec<usize> = parents.iter().map(|p| net.cardinality(*p)).collect();
        let parent_size: usize = parent_cards.iter().product::<usize>().max(1);
        let mut counts = vec![alpha; parent_size * child_card];
        for row in rows {
            assert!(row.len() >= net.len(), "row shorter than variable count");
            let cv = row[child.0];
            assert!(cv < child_card, "category out of range in data");
            let mut pr = 0usize;
            for (p, &pc) in parents.iter().zip(&parent_cards) {
                let pv = row[p.0];
                assert!(pv < pc, "parent category out of range in data");
                pr = pr * pc + pv;
            }
            counts[pr * child_card + cv] += 1.0;
        }
        // Normalize per parent configuration.
        for r in 0..parent_size {
            let row = &mut counts[r * child_card..(r + 1) * child_card];
            let total: f64 = row.iter().sum();
            for v in row {
                *v /= total;
            }
        }
        net.set_cpt(Cpt::new(*child, parents.clone(), counts))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fitted table of `var`.
    fn table(net: &BayesNet, var: VarId) -> &[f64] {
        &net.cpt(var).expect("fitted").table
    }

    #[test]
    fn recovers_known_conditional() {
        // A -> B with P(A=1)=0.25, P(B=1|A=0)=0.2, P(B=1|A=1)=0.9.
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 2);
        let mut rows = Vec::new();
        // Deterministic synthetic sample with exact frequencies.
        for i in 0..400usize {
            let av = usize::from(i % 4 == 0); // 25% a=1
            let bv = if av == 1 {
                // Among i ≡ 0 (mod 4), exactly the multiples of 40 (10 of
                // 100) yield 0 → P(B=1|A=1) = 0.9.
                usize::from(i % 40 != 0)
            } else {
                // Among i ≢ 0 (mod 4), multiples of 5 are 60 of 300 →
                // P(B=1|A=0) = 0.2.
                usize::from(i % 5 == 0)
            };
            rows.push(vec![av, bv]);
        }
        fit_cpts(&mut net, &[(a, vec![]), (b, vec![a])], &rows, 0.0).unwrap();
        let pa = table(&net, a);
        assert!((pa[1] - 0.25).abs() < 0.01, "{pa:?}");
        // Rows of P(b | a), a = 0 first.
        let pb = table(&net, b);
        assert!((pb[1] - 0.2).abs() < 0.02, "{pb:?}");
        assert!((pb[3] - 0.9).abs() < 0.02, "{pb:?}");
    }

    #[test]
    fn laplace_smoothing_avoids_zeros() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        // All observations are a=0; with alpha=1 the other category keeps
        // nonzero mass.
        let rows = vec![vec![0usize]; 10];
        fit_cpts(&mut net, &[(a, vec![])], &rows, 1.0).unwrap();
        let pa = table(&net, a);
        assert!(pa[1] > 0.0);
        assert!((pa[1] - 1.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_parent_rows_are_uniform() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 3);
        // Only a=0 ever appears; rows for a=1 must become uniform.
        let rows = vec![vec![0usize, 1usize]; 20];
        fit_cpts(&mut net, &[(a, vec![]), (b, vec![a])], &rows, 1.0).unwrap();
        for &v in &table(&net, b)[3..] {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_data_with_smoothing_is_uniform() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 4);
        fit_cpts(&mut net, &[(a, vec![])], &[], 1.0).unwrap();
        assert!(table(&net, a).iter().all(|&p| (p - 0.25).abs() < 1e-9));
    }
}
