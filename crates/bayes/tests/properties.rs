//! Property tests: variable elimination agrees with brute-force
//! enumeration on randomly parameterized networks, and compiled MAP
//! queries agree bit for bit with the factor-by-factor reference.

mod oracle;

use drivefi_bayes::{BayesNet, Cpt, Evidence, MapScratch, VarId};
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

/// Brute-force P(query = q | evidence) by enumerating the joint.
fn enumerate_posterior(
    net: &BayesNet,
    vars: &[VarId; 4],
    query: VarId,
    evidence: &Evidence,
) -> Vec<f64> {
    let mut num = [0.0; 2];
    for a in 0..2usize {
        for b in 0..2usize {
            for c in 0..2usize {
                for d in 0..2usize {
                    let assignment =
                        Evidence::from([(vars[0], a), (vars[1], b), (vars[2], c), (vars[3], d)]);
                    if evidence.iter().any(|(k, v)| assignment[k] != *v) {
                        continue;
                    }
                    let p = net.joint_probability(&assignment).unwrap();
                    num[assignment[&query]] += p;
                }
            }
        }
    }
    let z: f64 = num.iter().sum();
    num.iter().map(|x| x / z).collect()
}

proptest! {
    /// VE posterior == enumeration, for every query/evidence combination.
    #[test]
    fn ve_matches_enumeration(params in prop::array::uniform9(0.0..1000.0f64),
                              ev_var in 0usize..4, ev_val in 0usize..2,
                              q_var in 0usize..4) {
        prop_assume!(ev_var != q_var);
        let (net, vars) = diamond(&params);
        let evidence = Evidence::from([(vars[ev_var], ev_val)]);
        let ve = net.posterior(vars[q_var], &evidence).unwrap();
        let brute = enumerate_posterior(&net, &vars, vars[q_var], &evidence);
        prop_assert!((ve[0] - brute[0]).abs() < 1e-9, "ve={ve:?} brute={brute:?}");
        prop_assert!((ve[1] - brute[1]).abs() < 1e-9);
    }

    /// Posteriors are proper distributions.
    #[test]
    fn posteriors_normalize(params in prop::array::uniform9(0.0..1000.0f64)) {
        let (net, vars) = diamond(&params);
        for q in vars {
            let p = net.posterior(q, &Evidence::new()).unwrap();
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }
    }

    /// do(X = x) on a root variable equals conditioning on it (no
    /// backdoor into a root), while do() on a collider parent removes the
    /// dependence that conditioning would create.
    #[test]
    fn do_on_root_equals_conditioning(params in prop::array::uniform9(0.0..1000.0f64)) {
        let (net, vars) = diamond(&params);
        let [a, _b, _c, d] = vars;
        let cond = net.posterior(d, &Evidence::from([(a, 1)])).unwrap();
        let int = net
            .posterior_do(d, &Evidence::new(), &Evidence::from([(a, 1)]))
            .unwrap();
        prop_assert!((cond[1] - int[1]).abs() < 1e-9);
    }

    /// Intervening on B severs the A→B edge: P(A | do(B)) == P(A).
    #[test]
    fn do_severs_parents(params in prop::array::uniform9(0.0..1000.0f64), bv in 0usize..2) {
        let (net, vars) = diamond(&params);
        let [a, b, _c, _d] = vars;
        let prior = net.posterior(a, &Evidence::new()).unwrap();
        let int = net
            .posterior_do(a, &Evidence::new(), &Evidence::from([(b, bv)]))
            .unwrap();
        prop_assert!((prior[1] - int[1]).abs() < 1e-9, "do(B) changed P(A)");
    }

    /// The joint MAP assignment attains the maximum enumerated joint
    /// probability consistent with the evidence.
    #[test]
    fn joint_map_is_optimal(params in prop::array::uniform9(0.0..1000.0f64),
                            ev_var in 0usize..4, ev_val in 0usize..2) {
        let (net, vars) = diamond(&params);
        let evidence = Evidence::from([(vars[ev_var], ev_val)]);
        let map = net.map_assignment(&evidence, &Evidence::new()).unwrap();
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
/// free, observed, intervened, or both. Now and then a category is out of
/// range or an id is outside the network, which both paths must reject
/// with the same error.
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
                evidence.insert(var, category(rng, var));
                interventions.insert(var, category(rng, var));
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
            let compiled = net.map_assignment(&evidence, &interventions);
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

proptest! {
    // Sampling estimators are statistical; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Likelihood weighting converges to the exact posterior on random
    /// diamond networks.
    #[test]
    fn likelihood_weighting_converges(params in prop::array::uniform9(0.0..1000.0f64),
                                      seed in any::<u64>()) {
        use drivefi_bayes::{likelihood_weighting, SampleOpts};
        use rand::SeedableRng;
        let (net, vars) = diamond(&params);
        let [_a, b, _c, d] = vars;
        let e = Evidence::from([(d, 1)]);
        let exact = net.posterior(b, &e).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let est = likelihood_weighting(&net, b, &e, &Evidence::new(),
                                       &SampleOpts::new(40_000), &mut rng).unwrap();
        prop_assert!((est[1] - exact[1]).abs() < 0.03,
                     "LW {est:?} vs exact {exact:?}");
    }

    /// Gibbs sampling converges to the exact posterior under
    /// interventions, matching the mutilated-graph semantics of VE.
    #[test]
    fn gibbs_converges_under_do(params in prop::array::uniform9(0.0..1000.0f64),
                                seed in any::<u64>()) {
        use drivefi_bayes::{gibbs_posterior, SampleOpts};
        use rand::SeedableRng;
        let (net, vars) = diamond(&params);
        let [_a, b, c, d] = vars;
        let e = Evidence::from([(d, 1)]);
        let i = Evidence::from([(c, 0)]);
        let exact = net.posterior_do(b, &e, &i).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let opts = SampleOpts { samples: 40_000, burn_in: 2_000, thin: 1 };
        let est = gibbs_posterior(&net, b, &e, &i, &opts, &mut rng).unwrap();
        prop_assert!((est[1] - exact[1]).abs() < 0.04,
                     "Gibbs {est:?} vs exact {exact:?}");
    }
}
