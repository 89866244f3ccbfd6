//! The counterfactual query of a 3-slice temporal network (paper Eq. 2).
//!
//! A Bayesian fault miner asks one question per candidate fault: with
//! slice 0 observed, slice 1 observed except where the fault reaches,
//! and the fault applied as `do(v@1 = c)`, what is the joint MAP of every
//! other variable? Within slice 1 the fault reaches `v` and its
//! intra-slice descendants, which the slice-1 parent lists determine. So
//! every query that intervenes on one template variable shares one
//! evidence pattern, and [`Counterfactual`] compiles one [`MapQuery`] per
//! template variable.

use crate::map::{MapQuery, MapScratch};
use crate::network::{BayesNet, VarId};
use crate::BayesError;
use std::cell::RefCell;

thread_local! {
    /// Working memory of the compiled queries, one per thread so that
    /// parallel miners share none.
    static SCRATCH: RefCell<MapScratch> = RefCell::new(MapScratch::default());
}

/// The evidence pattern of `do(v@1 = c)` for one template variable `v`.
#[derive(Debug, Clone)]
struct Pattern {
    /// Per template variable, whether slice 1 observes it: every one but
    /// `v` and its intra-slice descendants.
    observed: Vec<bool>,
    /// The compiled query, or `None` when every variable the caller reads
    /// back is observed or intervened: the joint MAP keeps those at their
    /// evidence, so nothing is left to infer.
    query: Option<MapQuery>,
}

/// The counterfactual joint-MAP queries of a network unrolled from a
/// slice template, one per template variable, compiled once.
#[derive(Debug, Clone)]
pub struct Counterfactual {
    /// Network ids of slices 0 and 1, indexed by template variable.
    slices: [Vec<VarId>; 2],
    /// Cardinality of every network variable.
    cards: Vec<usize>,
    /// Per template variable, the pattern of interventions on it.
    patterns: Vec<Pattern>,
}

impl Counterfactual {
    /// Compiles the counterfactual query of every template variable of
    /// `net`, whose CPTs are attached and whose ids are
    /// `ids[slice][template]` as [`crate::DbnTemplate::unroll`] returns
    /// them. `reads` are the network variables the caller reads back from
    /// each answer.
    ///
    /// # Errors
    ///
    /// As [`BayesNet::compile_map`]: [`BayesError::MissingCpt`] for a
    /// variable without a CPT.
    ///
    /// # Panics
    ///
    /// Panics if `ids` has fewer than two slices.
    pub fn new(net: &BayesNet, ids: &[Vec<VarId>], reads: &[VarId]) -> Result<Self, BayesError> {
        let slices = [ids[0].clone(), ids[1].clone()];
        let slice1 = &slices[1];
        let patterns = (0..slice1.len())
            .map(|var| {
                let mut observed = vec![true; slice1.len()];
                observed[var] = false;
                let reached = |observed: &[bool], p: &VarId| {
                    slice1.iter().zip(observed).any(|(id, &seen)| id == p && !seen)
                };
                while let Some(next) = (0..slice1.len()).find(|&t| {
                    observed[t] && net.parents(slice1[t]).iter().any(|p| reached(&observed, p))
                }) {
                    observed[next] = false;
                }
                let evidence: Vec<VarId> = slices[0]
                    .iter()
                    .chain(slice1.iter().zip(&observed).filter(|(_, &seen)| seen).map(|(id, _)| id))
                    .copied()
                    .collect();
                let intervened = slice1[var];
                let query = if reads.iter().all(|r| *r == intervened || evidence.contains(r)) {
                    None
                } else {
                    Some(net.compile_map(&evidence, &[intervened])?)
                };
                Ok(Pattern { observed, query })
            })
            .collect::<Result<_, BayesError>>()?;
        let cards = net.variables().map(|v| net.cardinality(v)).collect();
        Ok(Counterfactual { slices, cards, patterns })
    }

    /// Answers `do(var@1 = category)`, with slices 0 and 1 observed at
    /// `evidence[0]` and `evidence[1]` (categories indexed by template
    /// variable; the slice-1 entries the fault reaches are ignored). On
    /// return `assignment` holds the evidence, the intervention, and
    /// every variable of `reads` at its category in the joint MAP.
    ///
    /// # Errors
    ///
    /// [`BayesError::BadCategory`] for the first out-of-range category:
    /// slice 0, then slice 1, then the intervention.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not a template variable, if an evidence slice
    /// is shorter than the template, or if `assignment` does not have one
    /// entry per network variable.
    pub fn run(
        &self,
        var: usize,
        category: usize,
        evidence: [&[usize]; 2],
        assignment: &mut [usize],
    ) -> Result<(), BayesError> {
        assert_eq!(assignment.len(), self.cards.len(), "one category per network variable");
        let pattern = &self.patterns[var];
        let mut set = |var: VarId, value: usize| {
            if value >= self.cards[var.0] {
                return Err(BayesError::BadCategory { var, value });
            }
            assignment[var.0] = value;
            Ok(())
        };
        for (&id, &value) in self.slices[0].iter().zip(evidence[0]) {
            set(id, value)?;
        }
        for ((&id, &value), _) in
            self.slices[1].iter().zip(evidence[1]).zip(&pattern.observed).filter(|(_, &seen)| seen)
        {
            set(id, value)?;
        }
        set(self.slices[1][var], category)?;
        match &pattern.query {
            Some(query) => SCRATCH.with_borrow_mut(|scratch| query.run(assignment, scratch)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cpt, DbnTemplate};

    /// A chain `a → b → c` inside each slice, `c` persisting across
    /// slices, with every CPT uniform except `b`'s, which copies `a`.
    fn chain() -> (BayesNet, Vec<Vec<VarId>>) {
        let mut t = DbnTemplate::new();
        let a = t.add_variable("a", 2);
        let b = t.add_variable("b", 2);
        let c = t.add_variable("c", 2);
        t.add_intra_edge(a, b);
        t.add_intra_edge(b, c);
        t.add_inter_edge(c, c);
        let (mut net, ids, structure) = t.unroll(3);
        for (child, parents) in structure {
            let rows: usize = parents.iter().map(|p| net.cardinality(*p)).product();
            let table = if net.name(child).starts_with("b@") {
                vec![0.9, 0.1, 0.1, 0.9]
            } else {
                vec![0.5; 2 * rows]
            };
            net.set_cpt(Cpt::new(child, parents, table)).unwrap();
        }
        (net, ids)
    }

    #[test]
    fn intervention_unobserves_its_intra_slice_descendants() {
        let (net, ids) = chain();
        let cf = Counterfactual::new(&net, &ids, &ids[2]).unwrap();
        let observed = |var: usize| cf.patterns[var].observed.clone();
        assert_eq!(observed(0), [false, false, false], "a reaches b and, through it, c");
        assert_eq!(observed(1), [true, false, false]);
        assert_eq!(observed(2), [true, true, false]);
    }

    #[test]
    fn observed_reads_skip_inference_but_not_the_category_check() {
        let (net, ids) = chain();
        // Reading back only slice-1 `b`, which do(b) intervenes on and
        // do(c) observes.
        let cf = Counterfactual::new(&net, &ids, &ids[1][1..2]).unwrap();
        assert!(cf.patterns[0].query.is_some());
        assert!(cf.patterns[1].query.is_none() && cf.patterns[2].query.is_none());
        let mut assignment = vec![0; net.len()];
        cf.run(2, 1, [&[0, 1, 1], &[1, 1, 0]], &mut assignment).unwrap();
        assert_eq!(assignment[ids[1][1].0], 1);
        assert_eq!(assignment[ids[1][2].0], 1, "the intervention is applied");
        assert_eq!(
            cf.run(2, 2, [&[0, 1, 1], &[1, 0, 0]], &mut assignment),
            Err(BayesError::BadCategory { var: ids[1][2], value: 2 })
        );
        assert_eq!(
            cf.run(1, 0, [&[0, 3, 1], &[1, 0, 0]], &mut assignment),
            Err(BayesError::BadCategory { var: ids[0][1], value: 3 })
        );
    }

    #[test]
    fn the_joint_map_follows_the_intervention() {
        let (net, ids) = chain();
        let cf = Counterfactual::new(&net, &ids, &ids[1]).unwrap();
        let mut assignment = vec![0; net.len()];
        // do(a@1 = 1): b@1 copies it; the stale slice-1 evidence on b is
        // ignored.
        cf.run(0, 1, [&[0, 0, 0], &[0, 0, 0]], &mut assignment).unwrap();
        assert_eq!(assignment[ids[1][1].0], 1);
        // Evidence on an observed variable is kept.
        cf.run(2, 0, [&[0, 0, 0], &[1, 0, 1]], &mut assignment).unwrap();
        assert_eq!([assignment[ids[1][0].0], assignment[ids[1][1].0]], [1, 0]);
    }
}
