//! Bayesian networks: variables, CPTs, DAG validation, and the joint
//! probability (inference is [`BayesNet::compile_map`]).

use crate::{BayesError, Evidence};

/// Identifier of a variable within a [`BayesNet`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// A conditional probability table `P(child | parents)`.
///
/// The table is laid out with the parent configuration as the major index
/// (parents in the given order, last parent fastest) and the child
/// category as the minor (fastest) index: for parents with cardinalities
/// `c₁…cₖ` and child cardinality `c`, entry
/// `table[((p₁·c₂ + p₂)·… )·c + child]` is `P(child | p₁…pₖ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpt {
    /// The child variable.
    pub child: VarId,
    /// The parent variables, in table-layout order.
    pub parents: Vec<VarId>,
    /// The flattened probability table.
    pub table: Vec<f64>,
}

impl Cpt {
    /// Creates a CPT (validated when attached to a network).
    pub fn new(child: VarId, parents: Vec<VarId>, table: Vec<f64>) -> Self {
        Cpt { child, parents, table }
    }

    /// A uniform CPT for a root variable of cardinality `card`.
    pub fn uniform_root(child: VarId, card: usize) -> Self {
        Cpt::new(child, vec![], vec![1.0 / card as f64; card])
    }
}

#[derive(Debug, Clone)]
struct Variable {
    name: String,
    card: usize,
}

/// A discrete Bayesian network.
#[derive(Debug, Clone, Default)]
pub struct BayesNet {
    vars: Vec<Variable>,
    cpts: Vec<Option<Cpt>>,
}

impl BayesNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        BayesNet::default()
    }

    /// Adds a variable with `card` categories and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `card == 0`.
    pub fn add_variable(&mut self, name: &str, card: usize) -> VarId {
        assert!(card > 0, "variables need at least one category");
        self.vars.push(Variable { name: name.to_owned(), card });
        self.cpts.push(None);
        VarId(self.vars.len() - 1)
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// All variable ids.
    pub fn variables(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// The name of a variable.
    pub fn name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// Finds a variable by name.
    pub fn find(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name).map(VarId)
    }

    /// The cardinality of a variable.
    pub fn cardinality(&self, var: VarId) -> usize {
        self.vars[var.0].card
    }

    /// The parents of a variable (empty if no CPT attached yet).
    pub fn parents(&self, var: VarId) -> &[VarId] {
        self.cpts[var.0].as_ref().map_or(&[], |c| &c.parents)
    }

    /// The CPT of a variable, if attached.
    pub fn cpt(&self, var: VarId) -> Option<&Cpt> {
        self.cpts[var.0].as_ref()
    }

    /// Attaches (or replaces) a CPT, validating dimensions, row
    /// normalization, and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns a [`BayesError`] describing the first violated constraint.
    pub fn set_cpt(&mut self, cpt: Cpt) -> Result<(), BayesError> {
        let child = cpt.child;
        if child.0 >= self.vars.len() {
            return Err(BayesError::UnknownVariable(child));
        }
        for p in &cpt.parents {
            if p.0 >= self.vars.len() {
                return Err(BayesError::UnknownVariable(*p));
            }
        }
        let child_card = self.cardinality(child);
        let parent_size: usize = cpt.parents.iter().map(|p| self.cardinality(*p)).product();
        let expected = child_card * parent_size.max(1);
        if cpt.table.len() != expected {
            return Err(BayesError::BadTableSize { var: child, expected, got: cpt.table.len() });
        }
        for row in 0..parent_size.max(1) {
            let sum: f64 = cpt.table[row * child_card..(row + 1) * child_card].iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(BayesError::UnnormalizedRow { var: child, row });
            }
        }
        let prev = self.cpts[child.0].take();
        self.cpts[child.0] = Some(cpt);
        if self.topological_order().is_none() {
            self.cpts[child.0] = prev;
            return Err(BayesError::CyclicGraph);
        }
        Ok(())
    }

    /// Topological order of the variables, or `None` when cyclic.
    pub fn topological_order(&self) -> Option<Vec<VarId>> {
        let n = self.vars.len();
        let mut indegree = vec![0usize; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, cpt) in self.cpts.iter().enumerate() {
            if let Some(cpt) = cpt {
                indegree[i] = cpt.parents.len();
                for p in &cpt.parents {
                    children[p.0].push(i);
                }
            }
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            order.push(VarId(i));
            for &c in &children[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    stack.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    fn check_assignment(&self, e: &Evidence) -> Result<(), BayesError> {
        for (&var, &value) in e {
            if var.0 >= self.vars.len() {
                return Err(BayesError::UnknownVariable(var));
            }
            if value >= self.cardinality(var) {
                return Err(BayesError::BadCategory { var, value });
            }
        }
        Ok(())
    }

    /// Joint probability of a complete assignment (all variables).
    ///
    /// # Errors
    ///
    /// Returns an error if the assignment misses a variable or a CPT is
    /// absent.
    pub fn joint_probability(&self, assignment: &Evidence) -> Result<f64, BayesError> {
        self.check_assignment(assignment)?;
        let mut p = 1.0;
        for var in self.variables() {
            let cpt = self.cpts[var.0].as_ref().ok_or(BayesError::MissingCpt(var))?;
            let child_card = self.cardinality(var);
            let &child_val = assignment.get(&var).ok_or(BayesError::UnknownVariable(var))?;
            let mut row = 0usize;
            for p_id in &cpt.parents {
                let &pv = assignment.get(p_id).ok_or(BayesError::UnknownVariable(*p_id))?;
                row = row * self.cardinality(*p_id) + pv;
            }
            p *= cpt.table[row * child_card + child_val];
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapScratch;

    /// The classic sprinkler network (Pearl): Cloudy -> Sprinkler,
    /// Cloudy -> Rain, {Sprinkler, Rain} -> WetGrass.
    fn sprinkler() -> (BayesNet, VarId, VarId, VarId, VarId) {
        let mut net = BayesNet::new();
        let c = net.add_variable("cloudy", 2);
        let s = net.add_variable("sprinkler", 2);
        let r = net.add_variable("rain", 2);
        let w = net.add_variable("wet", 2);
        net.set_cpt(Cpt::new(c, vec![], vec![0.5, 0.5])).unwrap();
        net.set_cpt(Cpt::new(s, vec![c], vec![0.5, 0.5, 0.9, 0.1])).unwrap();
        net.set_cpt(Cpt::new(r, vec![c], vec![0.8, 0.2, 0.2, 0.8])).unwrap();
        net.set_cpt(Cpt::new(w, vec![s, r], vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99]))
            .unwrap();
        (net, c, s, r, w)
    }

    /// The joint MAP under `evidence` and `do(interventions)`, with every
    /// variable assigned.
    fn joint_map(
        net: &BayesNet,
        evidence: &[(VarId, usize)],
        interventions: &[(VarId, usize)],
    ) -> Evidence {
        let vars = |pairs: &[(VarId, usize)]| pairs.iter().map(|p| p.0).collect::<Vec<_>>();
        let query = net.compile_map(&vars(evidence), &vars(interventions)).unwrap();
        let mut assignment = vec![0; net.len()];
        for &(var, value) in evidence.iter().chain(interventions) {
            assignment[var.0] = value;
        }
        query.run(&mut assignment, &mut MapScratch::default()).unwrap();
        net.variables().zip(assignment).collect()
    }

    #[test]
    fn explaining_away() {
        let (net, _c, s, r, w) = sprinkler();
        // Wet grass without rain needs the sprinkler; rain explains the
        // sprinkler away.
        assert_eq!(joint_map(&net, &[(w, 1), (r, 0)], &[])[&s], 1);
        assert_eq!(joint_map(&net, &[(w, 1), (r, 1)], &[])[&s], 0);
    }

    #[test]
    fn intervention_differs_from_conditioning() {
        let (net, c, s, _r, _w) = sprinkler();
        // Observing S = 1 is evidence against clouds (backdoor); do(S = 1)
        // is not (the sprinkler has no causal effect on clouds), so Cloudy
        // keeps its unconditioned MAP category.
        let prior = joint_map(&net, &[], &[])[&c];
        assert_eq!(joint_map(&net, &[], &[(s, 1)])[&c], prior, "do() leaked into parent");
        assert_ne!(joint_map(&net, &[(s, 1)], &[])[&c], prior, "conditioning should move cloudy");
    }

    #[test]
    fn intervention_still_affects_descendants() {
        let (net, _c, s, r, w) = sprinkler();
        // Without rain, forcing the sprinkler decides whether the grass is
        // wet.
        assert_eq!(joint_map(&net, &[(r, 0)], &[(s, 0)])[&w], 0);
        assert_eq!(joint_map(&net, &[(r, 0)], &[(s, 1)])[&w], 1);
    }

    #[test]
    fn joint_probability_chains_cpts() {
        let (net, c, s, r, w) = sprinkler();
        let a = Evidence::from([(c, 1), (s, 0), (r, 1), (w, 1)]);
        // 0.5 · 0.9 · 0.8 · 0.9
        assert!((net.joint_probability(&a).unwrap() - 0.324).abs() < 1e-12);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 2);
        net.set_cpt(Cpt::new(a, vec![b], vec![0.5, 0.5, 0.5, 0.5])).unwrap();
        let err = net.set_cpt(Cpt::new(b, vec![a], vec![0.5, 0.5, 0.5, 0.5]));
        assert_eq!(err, Err(BayesError::CyclicGraph));
    }

    #[test]
    fn bad_tables_are_rejected() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        assert!(matches!(
            net.set_cpt(Cpt::new(a, vec![], vec![0.5, 0.5, 0.5])),
            Err(BayesError::BadTableSize { .. })
        ));
        assert!(matches!(
            net.set_cpt(Cpt::new(a, vec![], vec![0.7, 0.7])),
            Err(BayesError::UnnormalizedRow { .. })
        ));
    }

    #[test]
    fn evidence_on_query_returns_point_mass() {
        let (net, _c, s, _r, w) = sprinkler();
        // Observed and intervened variables come back at their given
        // categories, even where those are far from the mode: dry grass
        // under a running sprinkler.
        let map = joint_map(&net, &[(w, 0)], &[(s, 1)]);
        assert_eq!((map[&w], map[&s]), (0, 1));
    }

    #[test]
    fn missing_cpt_is_reported() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let b = net.add_variable("b", 2);
        net.set_cpt(Cpt::new(a, vec![], vec![0.5, 0.5])).unwrap();
        assert_eq!(net.compile_map(&[a], &[]).unwrap_err(), BayesError::MissingCpt(b));
        // An intervened variable loses its CPT, so it needs none.
        assert!(net.compile_map(&[], &[b]).is_ok());
    }

    #[test]
    fn joint_map_matches_brute_force() {
        let (net, c, s, r, w) = sprinkler();
        // Brute-force joint argmax given W = 1.
        let mut best = (0.0, Evidence::new());
        for cv in 0..2 {
            for sv in 0..2 {
                for rv in 0..2 {
                    let a = Evidence::from([(c, cv), (s, sv), (r, rv), (w, 1)]);
                    let p = net.joint_probability(&a).unwrap();
                    if p > best.0 {
                        best = (p, a);
                    }
                }
            }
        }
        let map = joint_map(&net, &[(w, 1)], &[]);
        assert_eq!(map, best.1, "joint MAP disagrees with enumeration");
    }

    #[test]
    fn joint_map_respects_interventions() {
        let (net, c, s, _r, w) = sprinkler();
        let map = joint_map(&net, &[(w, 1)], &[(s, 1)]);
        assert_eq!(map[&s], 1, "intervened value pinned");
        assert!(map.contains_key(&c) && map.contains_key(&w));
        // With the sprinkler forced on, do() severs S from Cloudy; the
        // MAP for Cloudy must come from its prior (tie → either value is
        // acceptable) and every variable is assigned.
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn joint_map_with_no_evidence_is_global_mode() {
        let (net, c, s, r, w) = sprinkler();
        let mut best = (0.0, Evidence::new());
        for cv in 0..2 {
            for sv in 0..2 {
                for rv in 0..2 {
                    for wv in 0..2 {
                        let a = Evidence::from([(c, cv), (s, sv), (r, rv), (w, wv)]);
                        let p = net.joint_probability(&a).unwrap();
                        if p > best.0 {
                            best = (p, a);
                        }
                    }
                }
            }
        }
        let map = joint_map(&net, &[], &[]);
        let p_map = net.joint_probability(&map).unwrap();
        assert!((p_map - best.0).abs() < 1e-12, "MAP prob {p_map} vs best {}", best.0);
    }

    #[test]
    fn uniform_root_helper() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 4);
        net.set_cpt(Cpt::uniform_root(a, 4)).unwrap();
        assert!(net.cpt(a).unwrap().table.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }
}
