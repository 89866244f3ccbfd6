//! Discrete factors: multidimensional tables over categorical variables.

use crate::network::VarId;

/// A factor `φ(X₁…Xₙ)`: a non-negative table indexed by assignments to an
/// ordered set of discrete variables. Factors are the working currency of
/// variable elimination.
///
/// Values are stored row-major in the order of `vars`: the **last**
/// variable varies fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<VarId>,
    cards: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the product of cardinalities,
    /// if a cardinality is zero, or if `vars` contains duplicates.
    pub fn new(vars: Vec<VarId>, cards: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(vars.len(), cards.len(), "vars/cards length mismatch");
        assert!(cards.iter().all(|&c| c > 0), "zero cardinality");
        let size: usize = cards.iter().product();
        assert_eq!(values.len(), size, "values length mismatch");
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vars.len(), "duplicate variables in factor");
        Factor { vars, cards, values }
    }

    /// A factor over no variables holding a single value.
    pub fn scalar(value: f64) -> Self {
        Factor { vars: vec![], cards: vec![], values: vec![value] }
    }

    /// The variables of this factor, in storage order.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The cardinalities, parallel to [`Factor::vars`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// The raw table.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// True when the factor mentions `var`.
    pub fn contains(&self, var: VarId) -> bool {
        self.vars.contains(&var)
    }

    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.vars.len()];
        for i in (0..self.vars.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.cards[i + 1];
        }
        strides
    }

    /// Flat table index of a full assignment (categories parallel to
    /// `vars`).
    pub fn assignment_index(&self, assignment: &[usize]) -> usize {
        let strides = self.strides();
        assignment.iter().zip(&strides).map(|(a, s)| a * s).sum()
    }

    /// Value at a full assignment (given as categories parallel to
    /// `vars`).
    pub fn value_at(&self, assignment: &[usize]) -> f64 {
        self.values[self.assignment_index(assignment)]
    }

    /// Pointwise product of two factors over the union of their scopes.
    pub fn product(&self, other: &Factor) -> Factor {
        // Union scope: self's vars then other's new vars.
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        for (v, c) in other.vars.iter().zip(&other.cards) {
            if !vars.contains(v) {
                vars.push(*v);
                cards.push(*c);
            }
        }
        let size: usize = cards.iter().product::<usize>().max(1);
        let mut values = Vec::with_capacity(size);

        // Map union assignment -> index in each input.
        let self_pos: Vec<usize> =
            self.vars.iter().map(|v| vars.iter().position(|u| u == v).unwrap()).collect();
        let other_pos: Vec<usize> =
            other.vars.iter().map(|v| vars.iter().position(|u| u == v).unwrap()).collect();
        let self_strides = self.strides();
        let other_strides = other.strides();

        let mut assignment = vec![0usize; vars.len()];
        for _ in 0..size {
            let si: usize =
                self_pos.iter().zip(&self_strides).map(|(&p, s)| assignment[p] * s).sum();
            let oi: usize =
                other_pos.iter().zip(&other_strides).map(|(&p, s)| assignment[p] * s).sum();
            values.push(self.values[si] * other.values[oi]);
            // Increment mixed-radix counter (last var fastest).
            for d in (0..vars.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        Factor { vars, cards, values }
    }

    /// Maxes out `var`, returning the reduced factor and, for each
    /// remaining assignment, the category of `var` that first reached the
    /// max (the traceback table for MAP queries). No-op, with an empty
    /// traceback, if the factor does not mention `var`.
    pub fn max_marginalize(&self, var: VarId) -> (Factor, Vec<usize>) {
        let Some(pos) = self.vars.iter().position(|v| *v == var) else {
            return (self.clone(), Vec::new());
        };
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        vars.remove(pos);
        cards.remove(pos);
        let size: usize = cards.iter().product();
        let mut out = Factor { vars, cards, values: vec![f64::NEG_INFINITY; size] };
        let out_strides = out.strides();
        let mut arg = vec![0usize; size];

        let mut assignment = vec![0usize; self.vars.len()];
        for &v in &self.values {
            // Output index skips the eliminated position.
            let oi: usize = assignment
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != pos)
                .zip(&out_strides)
                .map(|((_, a), s)| a * s)
                .sum();
            let next = out.values[oi].max(v);
            if assignment[pos] == 0 || next > out.values[oi] {
                arg[oi] = assignment[pos];
            }
            out.values[oi] = next;
            for d in (0..self.vars.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < self.cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        (out, arg)
    }

    /// Fixes `var = value`, dropping it from the scope. No-op if absent.
    pub fn reduce(&self, var: VarId, value: usize) -> Factor {
        let Some(pos) = self.vars.iter().position(|v| *v == var) else {
            return self.clone();
        };
        assert!(value < self.cards[pos], "category out of range");
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        vars.remove(pos);
        cards.remove(pos);
        let out_size: usize = cards.iter().product::<usize>().max(1);
        let mut values = Vec::with_capacity(out_size);
        let mut assignment = vec![0usize; self.vars.len()];
        assignment[pos] = value;
        let strides = self.strides();
        loop {
            let idx: usize = assignment.iter().zip(&strides).map(|(a, s)| a * s).sum();
            values.push(self.values[idx]);
            // Increment skipping `pos`.
            let mut d = self.vars.len();
            loop {
                if d == 0 {
                    return Factor { vars, cards, values };
                }
                d -= 1;
                if d == pos {
                    continue;
                }
                assignment[d] += 1;
                if assignment[d] < self.cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn product_of_independent_factors() {
        let a = Factor::new(vec![v(0)], vec![2], vec![0.3, 0.7]);
        let b = Factor::new(vec![v(1)], vec![2], vec![0.6, 0.4]);
        let p = a.product(&b);
        assert_eq!(p.vars(), &[v(0), v(1)]);
        assert!((p.value_at(&[0, 0]) - 0.18).abs() < 1e-12);
        assert!((p.value_at(&[1, 1]) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn product_with_shared_variable() {
        // φ1(A,B) * φ2(B): entry (a,b) = φ1(a,b)·φ2(b).
        let f1 = Factor::new(vec![v(0), v(1)], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let f2 = Factor::new(vec![v(1)], vec![2], vec![10.0, 100.0]);
        let p = f1.product(&f2);
        assert_eq!(p.value_at(&[0, 0]), 10.0);
        assert_eq!(p.value_at(&[0, 1]), 200.0);
        assert_eq!(p.value_at(&[1, 0]), 30.0);
        assert_eq!(p.value_at(&[1, 1]), 400.0);
    }

    #[test]
    fn reduce_slices_the_table() {
        let f = Factor::new(vec![v(0), v(1)], vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = f.reduce(v(0), 1);
        assert_eq!(r.vars(), &[v(1)]);
        assert_eq!(r.values(), &[4.0, 5.0, 6.0]);
        let r = f.reduce(v(1), 2);
        assert_eq!(r.values(), &[3.0, 6.0]);
    }

    #[test]
    fn max_marginalize_tracks_argmax() {
        let f = Factor::new(vec![v(0), v(1)], vec![2, 2], vec![1.0, 5.0, 4.0, 2.0]);
        let (m, arg) = f.max_marginalize(v(0));
        assert_eq!(m.values(), &[4.0, 5.0]);
        // For v1=0 the max came from v0=1; for v1=1 from v0=0.
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn scalar_factor_product() {
        let f = Factor::new(vec![v(0)], vec![2], vec![0.5, 0.5]);
        let s = Factor::scalar(2.0);
        let p = f.product(&s);
        assert_eq!(p.values(), &[1.0, 1.0]);
    }

    #[test]
    fn marginalize_absent_var_is_noop() {
        let f = Factor::new(vec![v(0)], vec![2], vec![0.5, 0.5]);
        assert_eq!(f.max_marginalize(v(9)), (f.clone(), Vec::new()));
    }

    #[test]
    #[should_panic(expected = "values length mismatch")]
    fn bad_table_size_panics() {
        let _ = Factor::new(vec![v(0)], vec![3], vec![0.5, 0.5]);
    }

    #[test]
    fn three_way_product_and_full_marginal() {
        let a = Factor::new(vec![v(0)], vec![2], vec![0.25, 0.75]);
        let b = Factor::new(vec![v(0), v(1)], vec![2, 2], vec![0.9, 0.1, 0.3, 0.7]);
        let joint = a.product(&b);
        let total: f64 = joint.values().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
