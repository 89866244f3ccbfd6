//! The reference joint MAP that compiled queries must reproduce bit for
//! bit: max-product variable elimination over explicit [`Factor`]s.
//!
//! Every CPT becomes a factor over `parents ∪ {child}` (intervened
//! variables lose theirs), evidence and then interventions reduce the
//! factors one variable at a time, and the unassigned variables are
//! eliminated in ascending id order. Each elimination multiplies the
//! factors that mention the variable, in list order starting from the
//! scalar `1.0`, maxes the variable out keeping the first maximum, and
//! appends the result to the list; a traceback in reverse order then
//! assigns every eliminated variable.
//!
//! Shared by the bayes property tests and both miners' forecast tests
//! (`#[path]`-included there), so all check against one oracle.

use drivefi_bayes::{BayesError, BayesNet, Evidence, Factor, VarId};

/// The joint MAP assignment of every variable under `evidence` and
/// `do(interventions)`, or the error that compiling the pattern
/// ([`BayesNet::compile_map`]) and then running it on these categories
/// must return: an unknown id, then a missing CPT, then an out-of-range
/// category, evidence before interventions.
pub fn map_assignment(
    net: &BayesNet,
    evidence: &Evidence,
    interventions: &Evidence,
) -> Result<Evidence, BayesError> {
    let pattern = || evidence.iter().chain(interventions);
    if let Some((&var, _)) = pattern().find(|(var, _)| var.0 >= net.len()) {
        return Err(BayesError::UnknownVariable(var));
    }
    let mut factors = Vec::new();
    for var in net.variables() {
        if interventions.contains_key(&var) {
            continue;
        }
        let cpt = net.cpt(var).ok_or(BayesError::MissingCpt(var))?;
        let mut vars = cpt.parents.clone();
        vars.push(var);
        let cards: Vec<usize> = vars.iter().map(|v| net.cardinality(*v)).collect();
        factors.push(Factor::new(vars, cards, cpt.table.clone()));
    }
    if let Some((&var, &value)) = pattern().find(|(var, value)| **value >= net.cardinality(**var)) {
        return Err(BayesError::BadCategory { var, value });
    }
    for (&var, &value) in evidence.iter().chain(interventions.iter()) {
        for f in &mut factors {
            if f.contains(var) {
                *f = f.reduce(var, value);
            }
        }
    }

    let mut scope: Vec<VarId> = Vec::new();
    for f in &factors {
        for v in f.vars() {
            if !scope.contains(v) {
                scope.push(*v);
            }
        }
    }
    scope.sort_unstable();

    let mut records: Vec<(VarId, Factor, Vec<usize>)> = Vec::with_capacity(scope.len());
    let mut remaining = factors;
    for var in scope {
        let (touching, rest): (Vec<Factor>, Vec<Factor>) =
            remaining.into_iter().partition(|f| f.contains(var));
        let mut product = Factor::scalar(1.0);
        for f in &touching {
            product = product.product(f);
        }
        let (reduced, arg) = product.max_marginalize(var);
        records.push((var, reduced.clone(), arg));
        remaining = rest;
        remaining.push(reduced);
    }

    let mut assignment = evidence.clone();
    for (&k, &v) in interventions {
        assignment.insert(k, v);
    }
    for (var, reduced, arg) in records.iter().rev() {
        let cats: Vec<usize> = reduced
            .vars()
            .iter()
            .map(|v| *assignment.get(v).expect("traceback variable already assigned"))
            .collect();
        assignment.insert(*var, arg[reduced.assignment_index(&cats)]);
    }
    Ok(assignment)
}
