//! Property tests: the joint MAP agrees with brute-force enumeration and
//! with do-calculus on randomly parameterized networks, and compiled MAP
//! queries agree bit for bit with the factor-by-factor reference.

mod oracle;

use drivefi_bayes::{BayesError, BayesNet, Cpt, Evidence, MapScratch, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a 4-variable diamond network A -> {B, C} -> D with CPTs derived
/// from the given raw parameters (each squashed into (0, 1)).
fn diamond(params: &[f64; 9]) -> (BayesNet, [VarId; 4]) {
    let p = |x: f64| 0.05 + 0.9 * (x.abs() % 1.0);
    let mut net = BayesNet::new();
    let a = net.add_variable("a", 2);
    let b = net.add_variable("b", 2);
    let c = net.add_variable("c", 2);
    let d = net.add_variable("d", 2);
    let pa = p(params[0]);
    net.set_cpt(Cpt::new(a, vec![], vec![1.0 - pa, pa])).unwrap();
    let (b0, b1) = (p(params[1]), p(params[2]));
    net.set_cpt(Cpt::new(b, vec![a], vec![1.0 - b0, b0, 1.0 - b1, b1])).unwrap();
    let (c0, c1) = (p(params[3]), p(params[4]));
    net.set_cpt(Cpt::new(c, vec![a], vec![1.0 - c0, c0, 1.0 - c1, c1])).unwrap();
    let (d00, d01, d10, d11) = (p(params[5]), p(params[6]), p(params[7]), p(params[8]));
    net.set_cpt(Cpt::new(
        d,
        vec![b, c],
        vec![1.0 - d00, d00, 1.0 - d01, d01, 1.0 - d10, d10, 1.0 - d11, d11],
    ))
    .unwrap();
    (net, [a, b, c, d])
}

/// The joint MAP under `evidence` and `do(interventions)` by compile +
/// run, with every variable assigned, or the error either step returns. A
/// variable in both maps must carry one category in both.
fn joint_map(
    net: &BayesNet,
    evidence: &Evidence,
    interventions: &Evidence,
) -> Result<Evidence, BayesError> {
    let vars = |pairs: &Evidence| pairs.keys().copied().collect::<Vec<_>>();
    let query = net.compile_map(&vars(evidence), &vars(interventions))?;
    let mut assignment = vec![0; net.len()];
    for (&var, &value) in evidence.iter().chain(interventions) {
        assignment[var.0] = value;
    }
    query.run(&mut assignment, &mut MapScratch::default())?;
    Ok(net.variables().zip(assignment).collect())
}

proptest! {
    /// do(X = x) on a root variable equals conditioning on it: there is
    /// no backdoor into a root, and its prior is a constant factor of the
    /// joint, so the MAP of everything else is the same.
    #[test]
    fn do_on_root_equals_conditioning(params in prop::array::uniform9(0.0..1000.0f64),
                                      av in 0usize..2) {
        let (net, vars) = diamond(&params);
        let a = Evidence::from([(vars[0], av)]);
        let cond = joint_map(&net, &a, &Evidence::new()).unwrap();
        let int = joint_map(&net, &Evidence::new(), &a).unwrap();
        prop_assert_eq!(cond, int);
    }

    /// Intervening on B severs the A→B edge: the MAP under do(B) does not
    /// depend on B's CPT.
    #[test]
    fn do_severs_parents(params in prop::array::uniform9(0.0..1000.0f64),
                         b0 in 0.0..1000.0f64, b1 in 0.0..1000.0f64,
                         bv in 0usize..2) {
        let (net, vars) = diamond(&params);
        let mut reparameterized = params;
        reparameterized[1..3].copy_from_slice(&[b0, b1]);
        let (other, _) = diamond(&reparameterized);
        let b = Evidence::from([(vars[1], bv)]);
        prop_assert_eq!(
            joint_map(&net, &Evidence::new(), &b).unwrap(),
            joint_map(&other, &Evidence::new(), &b).unwrap(),
            "B's CPT leaked into do(B)"
        );
    }

    /// The joint MAP assignment attains the maximum enumerated joint
    /// probability consistent with the evidence.
    #[test]
    fn joint_map_is_optimal(params in prop::array::uniform9(0.0..1000.0f64),
                            ev_var in 0usize..4, ev_val in 0usize..2) {
        let (net, vars) = diamond(&params);
        let evidence = Evidence::from([(vars[ev_var], ev_val)]);
        let map = joint_map(&net, &evidence, &Evidence::new()).unwrap();
        let p_map = net.joint_probability(&map).unwrap();
        // Enumerate all completions of the evidence.
        let mut best = 0.0f64;
        for a in 0..2usize {
            for b in 0..2usize {
                for c in 0..2usize {
                    for d in 0..2usize {
                        let full = Evidence::from([
                            (vars[0], a), (vars[1], b), (vars[2], c), (vars[3], d),
                        ]);
                        if evidence.iter().any(|(k, v)| full[k] != *v) {
                            continue;
                        }
                        best = best.max(net.joint_probability(&full).unwrap());
                    }
                }
            }
        }
        prop_assert!((p_map - best).abs() < 1e-12, "MAP {p_map} vs best {best}");
    }
}

/// A random DAG of 2–6 variables with cardinalities 1–3. Its topological
/// order is a random permutation of the ids, so it disagrees with the
/// ascending-id elimination order. Half the CPT rows are uniform and the
/// rest are built from weights in {1, 2, 3}, so products tie often and
/// the first-maximum tie-break is exercised.
fn random_net(rng: &mut StdRng) -> BayesNet {
    let n = rng.random_range(2..=6usize);
    let mut net = BayesNet::new();
    let mut order: Vec<VarId> =
        (0..n).map(|i| net.add_variable(&format!("v{i}"), rng.random_range(1..=3usize))).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    for (pos, &child) in order.iter().enumerate() {
        let mut parents: Vec<VarId> =
            order[..pos].iter().copied().filter(|_| rng.random_bool(0.5)).take(3).collect();
        for i in (1..parents.len()).rev() {
            parents.swap(i, rng.random_range(0..=i));
        }
        let rows: usize = parents.iter().map(|p| net.cardinality(*p)).product();
        let card = net.cardinality(child);
        let mut table = Vec::with_capacity(rows * card);
        for _ in 0..rows {
            if rng.random_bool(0.5) {
                table.extend(std::iter::repeat_n(1.0 / card as f64, card));
            } else {
                let weights: Vec<f64> =
                    (0..card).map(|_| rng.random_range(1..=3u32) as f64).collect();
                let total: f64 = weights.iter().sum();
                table.extend(weights.iter().map(|w| w / total));
            }
        }
        net.set_cpt(Cpt::new(child, parents, table)).unwrap();
    }
    net
}

/// Random evidence and interventions over `net`: each variable is left
/// free, observed, intervened, or both at one category. Now and then a
/// category is out of range or an id is outside the network, which both
/// paths must reject with the same error.
fn random_pattern(net: &BayesNet, rng: &mut StdRng) -> (Evidence, Evidence) {
    let (mut evidence, mut interventions) = (Evidence::new(), Evidence::new());
    let category = |rng: &mut StdRng, var: VarId| {
        let card = net.cardinality(var);
        if rng.random_bool(0.05) {
            card
        } else {
            rng.random_range(0..card)
        }
    };
    for var in net.variables() {
        match rng.random_range(0..6u32) {
            0 | 1 => {}
            2 | 3 => {
                evidence.insert(var, category(rng, var));
            }
            4 => {
                interventions.insert(var, category(rng, var));
            }
            _ => {
                let value = category(rng, var);
                evidence.insert(var, value);
                interventions.insert(var, value);
            }
        }
    }
    if rng.random_bool(0.05) {
        let unknown = VarId(net.len() + rng.random_range(0..3usize));
        if rng.random_bool(0.5) {
            evidence.insert(unknown, 0);
        } else {
            interventions.insert(unknown, 0);
        }
    }
    (evidence, interventions)
}

proptest! {
    /// The compiled MAP query returns the reference's assignment, or its
    /// error, on random nets with tied rows and random patterns.
    #[test]
    fn compiled_map_matches_factor_chain(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        for _ in 0..4 {
            let (evidence, interventions) = random_pattern(&net, &mut rng);
            let compiled = joint_map(&net, &evidence, &interventions);
            let reference = oracle::map_assignment(&net, &evidence, &interventions);
            prop_assert_eq!(compiled, reference, "evidence {:?} do {:?}", evidence, interventions);
        }
    }

    /// One compiled query answers every category assignment on its
    /// pattern, with one scratch reused across runs.
    #[test]
    fn compiled_query_reruns_on_its_pattern(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let observed: Vec<VarId> = net.variables().filter(|_| rng.random_bool(0.4)).collect();
        let intervened: Vec<VarId> = net
            .variables()
            .filter(|v| !observed.contains(v) && rng.random_bool(0.3))
            .collect();
        let query = net.compile_map(&observed, &intervened).unwrap();
        let mut scratch = MapScratch::default();
        for _ in 0..6 {
            let draw = |rng: &mut StdRng, vars: &[VarId]| -> Evidence {
                vars.iter().map(|&v| (v, rng.random_range(0..net.cardinality(v)))).collect()
            };
            let evidence = draw(&mut rng, &observed);
            let interventions = draw(&mut rng, &intervened);
            let mut assignment = vec![0; net.len()];
            for (&var, &value) in evidence.iter().chain(&interventions) {
                assignment[var.0] = value;
            }
            query.run(&mut assignment, &mut scratch).unwrap();
            let reference = oracle::map_assignment(&net, &evidence, &interventions).unwrap();
            let compiled: Evidence = net.variables().zip(assignment).collect();
            prop_assert_eq!(compiled, reference);
        }
    }
}
