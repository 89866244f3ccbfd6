//! Maximum-likelihood CPD learning from complete discrete data.
//!
//! Data is one flat row-major byte matrix: a row per sample, one byte
//! per network variable (indexed by `VarId.0`) holding its category. A
//! byte per cell is what keeps a golden corpus's training rows compact,
//! so no variable may have more than [`MAX_CATEGORIES`] categories.

use crate::network::{BayesNet, Cpt, VarId};
use crate::BayesError;

/// The most categories a variable may have: a data row holds each
/// variable's category in one byte.
pub const MAX_CATEGORIES: usize = 256;

/// Checks that every category of every variable of `net` fits in a
/// data byte — what a caller confirms before it builds rows.
///
/// # Errors
///
/// Returns [`BayesError::TooManyCategories`] for the first variable
/// with more than [`MAX_CATEGORIES`] categories.
pub fn check_categories(net: &BayesNet) -> Result<(), BayesError> {
    match net.variables().find(|&v| net.cardinality(v) > MAX_CATEGORIES) {
        Some(var) => Err(BayesError::TooManyCategories { var, cardinality: net.cardinality(var) }),
        None => Ok(()),
    }
}

/// Fits the CPT of every variable in `structure` from complete data by
/// Laplace-smoothed maximum likelihood.
///
/// `structure` gives the parent set per variable; `data` is the byte
/// matrix the [module docs](self) describe. `alpha` is the Dirichlet
/// smoothing pseudo-count (use 1.0 for classic Laplace). Counts are
/// whole numbers held in `f64`, so the fitted tables do not depend on
/// the order of the rows.
///
/// # Errors
///
/// Returns [`BayesError::TooManyCategories`] when a variable has more
/// than [`MAX_CATEGORIES`] categories, [`BayesError::RaggedData`] when
/// `data` is not a whole number of rows, and an error when a CPT fails
/// validation (e.g. the structure is cyclic).
///
/// # Panics
///
/// Panics if a row contains out-of-range categories.
pub fn fit_cpts(
    net: &mut BayesNet,
    structure: &[(VarId, Vec<VarId>)],
    data: &[u8],
    alpha: f64,
) -> Result<(), BayesError> {
    check_categories(net)?;
    let width = net.len();
    if !data.len().is_multiple_of(width) {
        return Err(BayesError::RaggedData { len: data.len(), width });
    }
    let rows = data.chunks_exact(width.max(1));
    for (child, parents) in structure {
        let child_card = net.cardinality(*child);
        let parent_cards: Vec<usize> = parents.iter().map(|p| net.cardinality(*p)).collect();
        let parent_size: usize = parent_cards.iter().product::<usize>().max(1);
        let mut counts = vec![alpha; parent_size * child_card];
        for row in rows.clone() {
            let cv = usize::from(row[child.0]);
            assert!(cv < child_card, "category out of range in data");
            let mut pr = 0usize;
            for (p, &pc) in parents.iter().zip(&parent_cards) {
                let pv = usize::from(row[p.0]);
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let av = u8::from(i % 4 == 0); // 25% a=1
            let bv = if av == 1 {
                // Among i ≡ 0 (mod 4), exactly the multiples of 40 (10 of
                // 100) yield 0 → P(B=1|A=1) = 0.9.
                u8::from(i % 40 != 0)
            } else {
                // Among i ≢ 0 (mod 4), multiples of 5 are 60 of 300 →
                // P(B=1|A=0) = 0.2.
                u8::from(i % 5 == 0)
            };
            rows.extend([av, bv]);
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
        let rows = [0u8; 10];
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
        let rows = [0u8, 1].repeat(20);
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

    #[test]
    fn malformed_data_is_an_error() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 3);
        let structure = [(a, vec![]), (b, vec![a])];
        assert_eq!(
            fit_cpts(&mut net, &structure, &[0, 1, 1], 1.0),
            Err(BayesError::RaggedData { len: 3, width: 2 })
        );
        let wide = net.add_variable("wide", MAX_CATEGORIES + 1);
        assert_eq!(
            fit_cpts(&mut net, &structure, &[0, 1, 0], 1.0),
            Err(BayesError::TooManyCategories { var: wide, cardinality: MAX_CATEGORIES + 1 })
        );
    }

    /// Counting one `Vec<usize>` row at a time, as the fit did before
    /// rows became bytes.
    fn fit_row_by_row(
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
                let mut pr = 0usize;
                for (p, &pc) in parents.iter().zip(&parent_cards) {
                    pr = pr * pc + row[p.0];
                }
                counts[pr * child_card + row[child.0]] += 1.0;
            }
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

    proptest! {
        #[test]
        fn byte_matrix_counts_give_the_row_by_row_cpt_bits(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = BayesNet::new();
            let n = rng.random_range(1..7usize);
            let mut structure = Vec::new();
            for i in 0..n {
                let card = if rng.random_bool(0.1) { MAX_CATEGORIES } else { rng.random_range(1..6) };
                let var = net.add_variable(&format!("v{i}"), card);
                let mut parents: Vec<VarId> =
                    (0..i).filter(|_| rng.random_bool(0.4)).map(VarId).collect();
                // Keep every table small.
                while parents.iter().map(|p| net.cardinality(*p)).product::<usize>() * card > 1 << 16 {
                    parents.pop();
                }
                structure.push((var, parents));
            }
            let rows: Vec<Vec<usize>> = (0..rng.random_range(0..300usize))
                .map(|_| net.variables().map(|v| rng.random_range(0..net.cardinality(v))).collect())
                .collect();
            let data: Vec<u8> = rows.iter().flatten().map(|&c| c as u8).collect();
            let alpha = [0.0, 0.5, 1.0, 2.0][rng.random_range(0..4usize)];

            let mut flat = net.clone();
            let mut reference = net.clone();
            let got = fit_cpts(&mut flat, &structure, &data, alpha);
            let want = fit_row_by_row(&mut reference, &structure, &rows, alpha);
            prop_assert_eq!(&got, &want);
            for (var, _) in &structure {
                let bits = |net: &BayesNet| {
                    net.cpt(*var).map(|c| c.table.iter().map(|p| p.to_bits()).collect::<Vec<_>>())
                };
                prop_assert_eq!(bits(&flat), bits(&reference));
            }
        }
    }
}
