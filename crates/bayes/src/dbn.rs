//! Dynamic Bayesian networks: a slice template unrolled over time.
//!
//! The paper models the ADS with a **3-Temporal Bayesian Network** — a
//! DBN unfolded three times (Fig. 6), with identical topology per slice,
//! intra-slice edges mirroring the ADS dataflow (`W → U_A → A`,
//! `M → U_A`) and inter-slice edges carrying dynamics
//! (`M_{t-1} → M_t`, `A_{t-1} → M_t`, `W_{t-1} → W_t`).

use crate::network::{BayesNet, VarId};

/// The product of [`DbnTemplate::unroll`]: the (CPT-less) network, the
/// id map `ids[slice][template]`, and the `(child, parents)` learning
/// structure suitable for [`crate::fit_cpts`].
pub type UnrolledDbn = (BayesNet, Vec<Vec<VarId>>, Vec<(VarId, Vec<VarId>)>);

/// Index of a variable within the slice template.
pub type TemplateVar = usize;

/// An inter-slice edge: `from` in slice `t-1` is a parent of `to` in
/// slice `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalEdge {
    /// Parent template variable (previous slice).
    pub from: TemplateVar,
    /// Child template variable (next slice).
    pub to: TemplateVar,
}

/// A variable of the slice template.
#[derive(Debug, Clone)]
pub struct SliceVar {
    /// Base name; slice `t` instances are named `"{name}@{t}"`.
    pub name: String,
    /// Cardinality.
    pub card: usize,
}

/// A DBN template: per-slice variables, intra-slice edges, and
/// inter-slice (temporal) edges.
#[derive(Debug, Clone, Default)]
pub struct DbnTemplate {
    vars: Vec<SliceVar>,
    intra: Vec<(TemplateVar, TemplateVar)>,
    inter: Vec<TemporalEdge>,
}

impl DbnTemplate {
    /// Creates an empty template.
    pub fn new() -> Self {
        DbnTemplate::default()
    }

    /// Adds a template variable.
    pub fn add_variable(&mut self, name: &str, card: usize) -> TemplateVar {
        self.vars.push(SliceVar { name: name.to_owned(), card });
        self.vars.len() - 1
    }

    /// Adds an intra-slice edge `parent → child`.
    ///
    /// # Panics
    ///
    /// Panics on unknown indices or a self-loop.
    pub fn add_intra_edge(&mut self, parent: TemplateVar, child: TemplateVar) {
        assert!(parent < self.vars.len() && child < self.vars.len(), "unknown template var");
        assert_ne!(parent, child, "self-loop");
        self.intra.push((parent, child));
    }

    /// Adds an inter-slice edge `parent@{t-1} → child@{t}` (self-edges
    /// allowed: `M_{t-1} → M_t`).
    ///
    /// # Panics
    ///
    /// Panics on unknown indices.
    pub fn add_inter_edge(&mut self, from: TemplateVar, to: TemplateVar) {
        assert!(from < self.vars.len() && to < self.vars.len(), "unknown template var");
        self.inter.push(TemporalEdge { from, to });
    }

    /// Template variables.
    pub fn variables(&self) -> &[SliceVar] {
        &self.vars
    }

    /// Unrolls the template over `slices` time steps.
    ///
    /// Returns the (CPT-less) network, the id map `ids[slice][template]`,
    /// and the learning structure `(child, parents)` suitable for
    /// [`crate::fit_cpts`]. Slice-0 variables have only intra-slice
    /// parents; later slices add the temporal parents.
    ///
    /// # Panics
    ///
    /// Panics if `slices == 0`.
    pub fn unroll(&self, slices: usize) -> UnrolledDbn {
        assert!(slices > 0, "need at least one slice");
        let mut net = BayesNet::new();
        let mut ids: Vec<Vec<VarId>> = Vec::with_capacity(slices);
        for t in 0..slices {
            let mut slice_ids = Vec::with_capacity(self.vars.len());
            for v in &self.vars {
                slice_ids.push(net.add_variable(&format!("{}@{}", v.name, t), v.card));
            }
            ids.push(slice_ids);
        }
        let mut structure = Vec::with_capacity(slices * self.vars.len());
        for (t, slice) in ids.iter().enumerate() {
            for (tv, &var) in slice.iter().enumerate() {
                let mut parents: Vec<VarId> =
                    self.intra.iter().filter(|(_, c)| *c == tv).map(|(p, _)| slice[*p]).collect();
                if t > 0 {
                    parents.extend(
                        self.inter.iter().filter(|e| e.to == tv).map(|e| ids[t - 1][e.from]),
                    );
                }
                structure.push((var, parents));
            }
        }
        (net, ids, structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit_cpts, MapScratch};

    /// A two-variable chain: X drives Y within a slice; X persists across
    /// slices.
    fn chain_template() -> (DbnTemplate, TemplateVar, TemplateVar) {
        let mut t = DbnTemplate::new();
        let x = t.add_variable("x", 2);
        let y = t.add_variable("y", 2);
        t.add_intra_edge(x, y);
        t.add_inter_edge(x, x);
        (t, x, y)
    }

    #[test]
    fn unroll_names_and_counts() {
        let (t, _, _) = chain_template();
        let (net, ids, structure) = t.unroll(3);
        assert_eq!(net.len(), 6);
        assert_eq!(ids.len(), 3);
        assert_eq!(net.name(ids[0][0]), "x@0");
        assert_eq!(net.name(ids[2][1]), "y@2");
        assert_eq!(structure.len(), 6);
    }

    #[test]
    fn slice0_has_no_temporal_parents() {
        let (t, x, y) = chain_template();
        let (_net, ids, structure) = t.unroll(3);
        let find = |v| structure.iter().find(|(c, _)| *c == v).unwrap().1.clone();
        assert!(find(ids[0][x]).is_empty());
        assert_eq!(find(ids[0][y]), vec![ids[0][x]]);
        assert_eq!(find(ids[1][x]), vec![ids[0][x]]);
        assert_eq!(find(ids[2][x]), vec![ids[1][x]]);
    }

    #[test]
    fn learned_dbn_propagates_persistence() {
        let (t, x, y) = chain_template();
        let (mut net, ids, structure) = t.unroll(3);
        // Synthetic trajectories: x flips rarely (90% persist); y = x with
        // 10% noise.
        let mut rows = Vec::new();
        for i in 0..500usize {
            let mut xs = [0u8; 3];
            xs[0] = u8::from(i % 2 == 0);
            for s in 1..3 {
                let persist = i % 10 != s;
                xs[s] = if persist { xs[s - 1] } else { 1 - xs[s - 1] };
            }
            let mut row = [0u8; 6];
            for s in 0..3 {
                row[ids[s][x].0] = xs[s];
                row[ids[s][y].0] = if i % 10 == 9 { 1 - xs[s] } else { xs[s] };
            }
            rows.extend(row);
        }
        fit_cpts(&mut net, &structure, &rows, 1.0).unwrap();
        // Observing y@0 = 1 should put x@2 = 1 in the joint MAP
        // (persistence), and an intervention do(x@1 = 0) should flip it.
        let x2 = |do_x1: Option<usize>| {
            let intervened: Vec<VarId> = do_x1.iter().map(|_| ids[1][x]).collect();
            let query = net.compile_map(&[ids[0][y]], &intervened).unwrap();
            let mut assignment = vec![0; net.len()];
            assignment[ids[0][y].0] = 1;
            assignment[ids[1][x].0] = do_x1.unwrap_or(0);
            query.run(&mut assignment, &mut MapScratch::default()).unwrap();
            assignment[ids[2][x].0]
        };
        assert_eq!(x2(None), 1);
        assert_eq!(x2(Some(0)), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn intra_self_loop_panics() {
        let mut t = DbnTemplate::new();
        let x = t.add_variable("x", 2);
        t.add_intra_edge(x, x);
    }
}
