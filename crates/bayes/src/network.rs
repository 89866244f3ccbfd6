//! Bayesian networks: variables, CPTs, DAG validation, and inference.

use crate::factor::Factor;
use crate::map::MapScratch;
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

    /// Converts the CPT of `var` into a factor over `parents ∪ {var}`.
    fn cpt_factor(&self, var: VarId) -> Result<Factor, BayesError> {
        let cpt = self.cpts[var.0].as_ref().ok_or(BayesError::MissingCpt(var))?;
        // Factor variable order: parents (in CPT order), then child —
        // matching the CPT layout (child fastest).
        let mut vars = cpt.parents.clone();
        vars.push(var);
        let cards: Vec<usize> = vars.iter().map(|v| self.cardinality(*v)).collect();
        Ok(Factor::new(vars, cards, cpt.table.clone()))
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

    /// Collects all factors after applying interventions (graph surgery:
    /// intervened variables lose their CPT factor and are pinned) and
    /// evidence reductions.
    fn prepared_factors(
        &self,
        evidence: &Evidence,
        interventions: &Evidence,
    ) -> Result<Vec<Factor>, BayesError> {
        self.check_assignment(evidence)?;
        self.check_assignment(interventions)?;
        let mut factors = Vec::with_capacity(self.vars.len());
        for var in self.variables() {
            if interventions.contains_key(&var) {
                // do(var = v): drop P(var | parents); the pin is applied
                // by reduction below.
                continue;
            }
            factors.push(self.cpt_factor(var)?);
        }
        for (&var, &value) in evidence.iter().chain(interventions.iter()) {
            for f in &mut factors {
                if f.contains(var) {
                    *f = f.reduce(var, value);
                }
            }
        }
        Ok(factors)
    }

    fn eliminate_all(factors: Vec<Factor>, keep: &[VarId]) -> Factor {
        // Gather scope.
        let mut scope: Vec<VarId> = Vec::new();
        for f in &factors {
            for v in f.vars() {
                if !scope.contains(v) {
                    scope.push(*v);
                }
            }
        }
        // Elimination order: min-fill-ish greedy by smallest resulting
        // factor; adequate for the tree-like 3-TBNs here.
        let mut remaining = factors;
        let mut to_eliminate: Vec<VarId> =
            scope.into_iter().filter(|v| !keep.contains(v)).collect();
        // Deterministic order: by id (the nets here are small).
        to_eliminate.sort_unstable();
        for var in to_eliminate {
            let (touching, rest): (Vec<Factor>, Vec<Factor>) =
                remaining.into_iter().partition(|f| f.contains(var));
            let mut product = Factor::scalar(1.0);
            for f in &touching {
                product = product.product(f);
            }
            remaining = rest;
            remaining.push(product.marginalize(var));
        }
        let mut result = Factor::scalar(1.0);
        for f in &remaining {
            result = result.product(f);
        }
        result
    }

    /// Posterior distribution `P(query | evidence, do(interventions))`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown variables, out-of-range categories, or
    /// missing CPTs.
    pub fn posterior_do(
        &self,
        query: VarId,
        evidence: &Evidence,
        interventions: &Evidence,
    ) -> Result<Vec<f64>, BayesError> {
        if query.0 >= self.vars.len() {
            return Err(BayesError::UnknownVariable(query));
        }
        if let Some(&v) = interventions.get(&query) {
            // Querying an intervened variable: point mass.
            let mut out = vec![0.0; self.cardinality(query)];
            out[v] = 1.0;
            return Ok(out);
        }
        if let Some(&v) = evidence.get(&query) {
            let mut out = vec![0.0; self.cardinality(query)];
            out[v] = 1.0;
            return Ok(out);
        }
        let factors = self.prepared_factors(evidence, interventions)?;
        let result = Self::eliminate_all(factors, &[query]);
        let result = result.normalized();
        let card = self.cardinality(query);
        let mut out = vec![0.0; card];
        if result.vars().is_empty() {
            // Evidence had zero probability; return uniform.
            return Ok(vec![1.0 / card as f64; card]);
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = result.value_at(&[i]);
        }
        Ok(out)
    }

    /// Posterior `P(query | evidence)` without interventions.
    ///
    /// # Errors
    ///
    /// See [`BayesNet::posterior_do`].
    pub fn posterior(&self, query: VarId, evidence: &Evidence) -> Result<Vec<f64>, BayesError> {
        self.posterior_do(query, evidence, &Evidence::new())
    }

    /// Maximum-likelihood category of `query` under evidence and
    /// interventions: `argmax P(query | e, do(i))` — the paper's Eq. 2
    /// when applied to the next-slice kinematic variables.
    ///
    /// # Errors
    ///
    /// See [`BayesNet::posterior_do`].
    pub fn map_category(
        &self,
        query: VarId,
        evidence: &Evidence,
        interventions: &Evidence,
    ) -> Result<usize, BayesError> {
        let dist = self.posterior_do(query, evidence, interventions)?;
        Ok(dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }

    /// Exact **joint MAP**: the single most probable assignment to every
    /// non-evidence, non-intervened variable, by max-product variable
    /// elimination with traceback.
    ///
    /// Where [`BayesNet::map_category`] maximizes each posterior marginal
    /// independently (which can be jointly inconsistent), this maximizes
    /// the joint — the stronger query behind the paper's Eq. 2 when
    /// several kinematic variables are reconstructed together.
    ///
    /// This compiles the query for the evidence pattern and runs it once;
    /// callers asking many queries on one pattern keep the
    /// [`BayesNet::compile_map`] result instead.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`BayesNet::posterior_do`].
    pub fn map_assignment(
        &self,
        evidence: &Evidence,
        interventions: &Evidence,
    ) -> Result<Evidence, BayesError> {
        self.check_assignment(evidence)?;
        self.check_assignment(interventions)?;
        let observed: Vec<VarId> = evidence.keys().copied().collect();
        let intervened: Vec<VarId> = interventions.keys().copied().collect();
        let query = self.compile_map(&observed, &intervened)?;
        // Evidence is reduced before interventions, so a variable both
        // observed and intervened enters the factors at its observed
        // category but is reported at its intervened one.
        let mut assignment = vec![0; self.len()];
        for (&var, &value) in interventions.iter().chain(evidence) {
            assignment[var.0] = value;
        }
        query.run(&mut assignment, &mut MapScratch::default())?;
        for (&var, &value) in interventions {
            assignment[var.0] = value;
        }
        Ok(self.variables().zip(assignment).collect())
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

    #[test]
    fn prior_marginals_match_hand_computation() {
        let (net, _c, s, r, _w) = sprinkler();
        // P(S=1) = 0.5·0.5 + 0.5·0.1 = 0.3
        let ps = net.posterior(s, &Evidence::new()).unwrap();
        assert!((ps[1] - 0.3).abs() < 1e-9, "{ps:?}");
        // P(R=1) = 0.5·0.2 + 0.5·0.8 = 0.5
        let pr = net.posterior(r, &Evidence::new()).unwrap();
        assert!((pr[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn posterior_given_wet_grass() {
        let (net, _c, s, r, w) = sprinkler();
        // Known result for this parameterization:
        // P(S=1 | W=1) ≈ 0.4298, P(R=1 | W=1) ≈ 0.7079
        let e = Evidence::from([(w, 1)]);
        let ps = net.posterior(s, &e).unwrap();
        let pr = net.posterior(r, &e).unwrap();
        assert!((ps[1] - 0.4298).abs() < 1e-3, "P(S|W) = {ps:?}");
        assert!((pr[1] - 0.7079).abs() < 1e-3, "P(R|W) = {pr:?}");
    }

    #[test]
    fn explaining_away() {
        let (net, _c, s, r, w) = sprinkler();
        // Observing rain explains away the sprinkler.
        let pw = net.posterior(s, &Evidence::from([(w, 1)])).unwrap()[1];
        let pwr = net.posterior(s, &Evidence::from([(w, 1), (r, 1)])).unwrap()[1];
        assert!(pwr < pw, "explaining away violated: {pwr} !< {pw}");
    }

    #[test]
    fn intervention_differs_from_conditioning() {
        let (net, c, s, _r, _w) = sprinkler();
        // Conditioning on S=1 changes belief about Cloudy (backdoor);
        // do(S=1) must NOT (sprinkler has no causal effect on clouds).
        let cond = net.posterior(c, &Evidence::from([(s, 1)])).unwrap()[1];
        let int = net.posterior_do(c, &Evidence::new(), &Evidence::from([(s, 1)])).unwrap()[1];
        assert!((int - 0.5).abs() < 1e-9, "do() leaked into parent: {int}");
        assert!((cond - 0.5).abs() > 0.05, "conditioning should move cloudy: {cond}");
    }

    #[test]
    fn intervention_still_affects_descendants() {
        let (net, _c, s, _r, w) = sprinkler();
        let base = net.posterior(w, &Evidence::new()).unwrap()[1];
        let forced = net.posterior_do(w, &Evidence::new(), &Evidence::from([(s, 1)])).unwrap()[1];
        assert!(forced > base, "do(S=1) should raise P(wet): {forced} vs {base}");
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
    fn map_category_picks_mode() {
        let (net, _c, _s, r, w) = sprinkler();
        let m = net.map_category(r, &Evidence::from([(w, 1)]), &Evidence::new()).unwrap();
        assert_eq!(m, 1, "rain is the MAP explanation of wet grass");
    }

    #[test]
    fn evidence_on_query_returns_point_mass() {
        let (net, c, _s, _r, _w) = sprinkler();
        let p = net.posterior(c, &Evidence::from([(c, 0)])).unwrap();
        assert_eq!(p, vec![1.0, 0.0]);
    }

    #[test]
    fn missing_cpt_is_reported() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 2);
        let _b = net.add_variable("b", 2);
        net.set_cpt(Cpt::new(a, vec![], vec![0.5, 0.5])).unwrap();
        assert!(matches!(net.posterior(a, &Evidence::new()), Err(BayesError::MissingCpt(_))));
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
        let map = net.map_assignment(&Evidence::from([(w, 1)]), &Evidence::new()).unwrap();
        assert_eq!(map, best.1, "joint MAP disagrees with enumeration");
    }

    #[test]
    fn joint_map_respects_interventions() {
        let (net, c, s, _r, w) = sprinkler();
        let map = net.map_assignment(&Evidence::from([(w, 1)]), &Evidence::from([(s, 1)])).unwrap();
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
        let map = net.map_assignment(&Evidence::new(), &Evidence::new()).unwrap();
        let p_map = net.joint_probability(&map).unwrap();
        assert!((p_map - best.0).abs() < 1e-12, "MAP prob {p_map} vs best {}", best.0);
    }

    #[test]
    fn uniform_root_helper() {
        let mut net = BayesNet::new();
        let a = net.add_variable("a", 4);
        net.set_cpt(Cpt::uniform_root(a, 4)).unwrap();
        let p = net.posterior(a, &Evidence::new()).unwrap();
        assert!(p.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }
}
