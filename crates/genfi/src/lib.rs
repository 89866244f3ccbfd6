//! Bayesian fault injection for *arbitrary* safety-critical systems.
//!
//! The paper closes §I with a generality claim: "The Bayesian FI
//! framework can be extended to other safety-critical systems (e.g.,
//! surgical robots). The framework requires specification of the safety
//! constraints and the system software architecture to model causal
//! relationship between the system sub-components." This crate is that
//! extension, factored out of the AV-specific `drivefi-core`:
//!
//! * [`SystemSpec`] — the *architecture* specification: the monitored
//!   variables with their physical ranges, the intra-step causal edges
//!   (module dataflow), and the step-to-step temporal edges (dynamics).
//! * [`SafetyModel`] — the *safety constraint* specification: a margin
//!   function `δ(state)` over the continuous state, positive when safe
//!   (the AV instantiation is `d_safe − d_stop`; a surgical robot uses
//!   distance-to-tissue minus stopping distance).
//! * [`GenericMiner`] — the Bayesian FI engine: fits a 3-slice temporal
//!   Bayesian network from golden traces, treats each candidate fault as
//!   a `do(·)` intervention on the middle slice, MAP-infers the next
//!   slice, reconstructs the continuous state, and keeps faults whose
//!   forecast margin collapses (Eq. 1 of the paper, with the kinematic
//!   reconstruction swapped for the caller's [`SafetyModel`]). The
//!   inference is [`drivefi_bayes::Counterfactual`], the compiled
//!   counterfactual query the AV miner in `drivefi-core` asks too.
//!
//! The [`surgical`] module instantiates all three for a simulated
//! needle-insertion robot, making the paper's example concrete.
//!
//! # Example
//!
//! ```
//! use drivefi_genfi::surgical::{golden_traces, InsertionSafety, NeedleArm};
//! use drivefi_genfi::{GenericMiner, MinerOptions};
//!
//! let traces = golden_traces(8, 2026);
//! let miner = GenericMiner::fit(&NeedleArm::spec(), &traces, MinerOptions::default()).unwrap();
//! let critical = miner.mine(&traces, &InsertionSafety::default());
//! assert!(!critical.is_empty(), "no critical faults mined");
//! ```

pub mod surgical;

use drivefi_bayes::{
    check_categories, fit_cpts, BayesError, BayesNet, Counterfactual, DbnTemplate, Discretizer,
    VarId,
};

/// One monitored variable of the system under test.
#[derive(Debug, Clone, PartialEq)]
pub struct VarSpec {
    /// Human-readable name (also the BN template name).
    pub name: String,
    /// Physical minimum — the `StuckMin` injection value.
    pub min: f64,
    /// Physical maximum — the `StuckMax` injection value.
    pub max: f64,
    /// Whether the injector can land faults on this variable. Sensor and
    /// command variables usually are; plant-internal ground truth is not.
    pub injectable: bool,
}

/// The system-architecture specification the paper requires: variables,
/// intra-step dataflow edges, and step-to-step dynamics edges.
#[derive(Debug, Clone, Default)]
pub struct SystemSpec {
    vars: Vec<VarSpec>,
    intra: Vec<(usize, usize)>,
    inter: Vec<(usize, usize)>,
}

impl SystemSpec {
    /// An empty specification.
    pub fn new() -> Self {
        SystemSpec::default()
    }

    /// Adds a variable with physical range `[min, max]`; returns its
    /// index.
    ///
    /// # Panics
    ///
    /// Panics when `min >= max`.
    pub fn add_var(&mut self, name: &str, min: f64, max: f64, injectable: bool) -> usize {
        assert!(min < max, "degenerate range for {name}");
        self.vars.push(VarSpec { name: name.to_owned(), min, max, injectable });
        self.vars.len() - 1
    }

    /// Declares an intra-step causal edge `parent → child` (module
    /// dataflow within one control period).
    ///
    /// # Panics
    ///
    /// Panics on unknown indices or self-loops.
    pub fn add_dataflow(&mut self, parent: usize, child: usize) {
        assert!(parent < self.vars.len() && child < self.vars.len(), "unknown variable");
        assert_ne!(parent, child, "self-loop");
        self.intra.push((parent, child));
    }

    /// Declares a temporal edge `parent@{t-1} → child@{t}` (dynamics;
    /// self-edges model persistence).
    ///
    /// # Panics
    ///
    /// Panics on unknown indices.
    pub fn add_dynamics(&mut self, parent: usize, child: usize) {
        assert!(parent < self.vars.len() && child < self.vars.len(), "unknown variable");
        self.inter.push((parent, child));
    }

    /// The variables.
    pub fn vars(&self) -> &[VarSpec] {
        &self.vars
    }

    fn template(&self, bins: usize) -> DbnTemplate {
        let mut t = DbnTemplate::new();
        for v in &self.vars {
            t.add_variable(&v.name, bins);
        }
        for &(p, c) in &self.intra {
            t.add_intra_edge(p, c);
        }
        for &(p, c) in &self.inter {
            t.add_inter_edge(p, c);
        }
        t
    }
}

/// The safety-constraint specification: a margin function over the full
/// continuous state (indexed like [`SystemSpec::vars`]); positive means
/// safe. The paper's AV instantiation is `δ = d_safe − d_stop`.
///
/// [`SafetyModel::forecast_margin`] is the domain-knowledge
/// reconstruction step of the paper's pipeline (procedure `P` in §III-A):
/// the BN forecasts only the system's *response* to a fault (Eq. 2);
/// converting that response into a margin against the *observed* scene —
/// stopping distances, reaction windows, worst-case envelopes — is
/// domain kinematics the network does not (and cannot) learn, because
/// golden traces never leave the safe region.
pub trait SafetyModel {
    /// The ground-truth safety margin of an observed state.
    fn margin(&self, state: &[f64]) -> f64;

    /// The counterfactual margin `δ̂_do(f)`: the margin implied by the
    /// system's forecast response, evaluated against the `observed`
    /// scene. `faulted` is the within-period response — the injected
    /// value plus the MAP reaction of its downstream modules in the same
    /// step; `next` is the MAP state one period later. Defaults to the
    /// plain margin of `next`, which suffices only when hazards develop
    /// within one control period.
    fn forecast_margin(&self, observed: &[f64], faulted: &[f64], next: &[f64]) -> f64 {
        let _ = (observed, faulted);
        self.margin(next)
    }
}

impl<F: Fn(&[f64]) -> f64> SafetyModel for F {
    fn margin(&self, state: &[f64]) -> f64 {
        self(state)
    }
}

/// How a mined fault corrupts its variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Stuck at the variable's physical minimum.
    Min,
    /// Stuck at the variable's physical maximum.
    Max,
}

impl Corruption {
    /// The workspace-wide fault-model equivalent (the generic miner's
    /// fault axis is the `{min, max}` slice of
    /// [`drivefi_fault::ScalarFaultModel`]).
    pub fn model(self) -> drivefi_fault::ScalarFaultModel {
        match self {
            Corruption::Min => drivefi_fault::ScalarFaultModel::StuckMin,
            Corruption::Max => drivefi_fault::ScalarFaultModel::StuckMax,
        }
    }

    /// The inverse of [`Corruption::model`] for the mined slice of the
    /// model space.
    fn from_model(model: drivefi_fault::ScalarFaultModel) -> Corruption {
        match model {
            drivefi_fault::ScalarFaultModel::StuckMin => Corruption::Min,
            drivefi_fault::ScalarFaultModel::StuckMax => Corruption::Max,
            other => panic!("generic miner only mines min/max, got {other:?}"),
        }
    }
}

/// A `(step, variable, corruption)` candidate whose forecast margin
/// collapses — a member of the generic `F_crit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalFault {
    /// Trace index the step belongs to.
    pub trace: usize,
    /// Step (slice-1 position) at which the fault is injected.
    pub step: usize,
    /// Corrupted variable index.
    pub var: usize,
    /// The corruption.
    pub corruption: Corruption,
    /// The injected continuous value.
    pub value: f64,
    /// Golden margin at the step (positive by Eq. 1's pre-condition).
    pub golden_margin: f64,
    /// Forecast margin under `do(f)`.
    pub predicted_margin: f64,
}

/// Miner options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerOptions {
    /// Quantile bins per variable.
    pub bins: usize,
    /// Laplace smoothing pseudo-count for CPD fitting.
    pub alpha: f64,
    /// A fault is critical when its forecast margin is ≤ this threshold.
    pub threshold: f64,
}

impl Default for MinerOptions {
    fn default() -> Self {
        MinerOptions { bins: 6, alpha: 1.0, threshold: 0.0 }
    }
}

/// The generic Bayesian fault miner: a 3-slice temporal BN fitted from
/// golden traces of any [`SystemSpec`]-described system.
#[derive(Debug, Clone)]
pub struct GenericMiner {
    spec: SystemSpec,
    net: BayesNet,
    ids: Vec<Vec<VarId>>,
    discretizers: Vec<Discretizer>,
    /// The counterfactual query of every variable, reading back slices 1
    /// and 2.
    counterfactual: Counterfactual,
    options: MinerOptions,
}

impl GenericMiner {
    /// Fits the 3-TBN from golden traces. Each trace is a sequence of
    /// complete continuous state vectors (indexed like
    /// [`SystemSpec::vars`]); consecutive triples become training rows.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::NoBins`] when `options.bins` is 0 and
    /// [`BayesError::TooManyCategories`] when it exceeds the
    /// [`drivefi_bayes::MAX_CATEGORIES`] a training-row byte holds;
    /// propagates CPD-fitting failures.
    ///
    /// # Panics
    ///
    /// Panics when a trace row's length differs from the variable count,
    /// or when no trace has at least three steps.
    pub fn fit(
        spec: &SystemSpec,
        traces: &[Vec<Vec<f64>>],
        options: MinerOptions,
    ) -> Result<Self, BayesError> {
        if options.bins == 0 {
            return Err(BayesError::NoBins);
        }
        let (mut net, ids, structure) = spec.template(options.bins).unroll(3);
        check_categories(&net)?;
        let n = spec.vars.len();
        // Per-variable discretizers over the pooled data.
        let mut pooled: Vec<Vec<f64>> = vec![Vec::new(); n];
        for trace in traces {
            for row in trace {
                assert_eq!(row.len(), n, "trace row length != variable count");
                for (i, &x) in row.iter().enumerate() {
                    pooled[i].push(x);
                }
            }
        }
        let discretizers: Vec<Discretizer> =
            pooled.iter().map(|d| Discretizer::fit(d, options.bins)).collect();

        // One byte row per three consecutive steps; every bin fits in a
        // byte (checked above).
        let windows: usize = traces.iter().map(|t| t.len().saturating_sub(2)).sum();
        assert!(windows > 0, "need at least one trace with three steps");
        let mut data = Vec::with_capacity(windows * 3 * n);
        for trace in traces {
            for w in trace.windows(3) {
                let start = data.len();
                data.resize(start + 3 * n, 0);
                for (s, step) in w.iter().enumerate() {
                    for (i, &x) in step.iter().enumerate() {
                        data[start + ids[s][i].0] = discretizers[i].transform(x) as u8;
                    }
                }
            }
        }
        fit_cpts(&mut net, &structure, &data, options.alpha)?;
        let reads: Vec<VarId> = ids[1].iter().chain(&ids[2]).copied().collect();
        let counterfactual = Counterfactual::new(&net, &ids, &reads)?;
        Ok(GenericMiner { spec: spec.clone(), net, ids, discretizers, counterfactual, options })
    }

    /// The fitted network (for inspection).
    pub fn net(&self) -> &BayesNet {
        &self.net
    }

    /// The fitted discretizer of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn discretizer(&self, var: usize) -> &Discretizer {
        &self.discretizers[var]
    }

    /// The options.
    pub fn options(&self) -> &MinerOptions {
        &self.options
    }

    /// The candidate fault axis: every injectable variable × {min, max},
    /// as a [`drivefi_fault::CorruptionGrid`] — the same enumeration
    /// core the AV drivers' [`drivefi_fault::FaultSpace`] is built on,
    /// instead of a re-invented inline double loop.
    pub fn injectable_grid(&self) -> drivefi_fault::CorruptionGrid<usize> {
        drivefi_fault::CorruptionGrid::new(
            (0..self.spec.vars.len()).filter(|&i| self.spec.vars[i].injectable).collect(),
            vec![
                drivefi_fault::ScalarFaultModel::StuckMin,
                drivefi_fault::ScalarFaultModel::StuckMax,
            ],
        )
    }

    /// Forecasts the system's response to `do(var@1 = category)`, with
    /// slices 0 and 1 clamped to the observed steps (except the
    /// intervened variable and its intra-step descendants, which the
    /// fault changes).
    ///
    /// Returns `(faulted, next)`: the within-period response — the
    /// intervened category plus the MAP reaction of its downstream
    /// modules in slice 1 — and the MAP state one period later
    /// (slice 2). Together they are the generic analog of the paper's
    /// `M̂_{t+1}` (Eq. 2).
    ///
    /// # Errors
    ///
    /// Propagates an out-of-range `category`.
    ///
    /// # Panics
    ///
    /// Panics when a step's length differs from the variable count —
    /// inference on partial evidence would return plausible-but-wrong
    /// forecasts.
    pub fn forecast(
        &self,
        step0: &[f64],
        step1: &[f64],
        var: usize,
        category: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), BayesError> {
        let n = self.spec.vars.len();
        assert_eq!(step0.len(), n, "step row length != variable count");
        assert_eq!(step1.len(), n, "step row length != variable count");
        self.forecast_bins(&self.discretize(step0), &self.discretize(step1), var, category)
    }

    /// The bins of a step's continuous values.
    fn discretize(&self, step: &[f64]) -> Vec<usize> {
        step.iter().zip(&self.discretizers).map(|(&x, d)| d.transform(x)).collect()
    }

    /// [`GenericMiner::forecast`] on discretized steps.
    fn forecast_bins(
        &self,
        bins0: &[usize],
        bins1: &[usize],
        var: usize,
        category: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), BayesError> {
        let mut assignment = vec![0; self.net.len()];
        self.counterfactual.run(var, category, [bins0, bins1], &mut assignment)?;
        let slice = |s: usize| -> Vec<f64> {
            self.discretizers
                .iter()
                .zip(&self.ids[s])
                .map(|(d, id)| d.representative(assignment[id.0]))
                .collect()
        };
        Ok((slice(1), slice(2)))
    }

    /// Enumerates and evaluates every candidate fault over the traces,
    /// returning the critical set sorted by ascending forecast margin.
    /// Candidates are `(step, injectable var, {min,max})` at steps whose
    /// golden margin is positive (Eq. 1's pre-condition) with a
    /// successor step. Counterfactual queries are memoized on the
    /// discretized evidence.
    pub fn mine<S: SafetyModel>(&self, traces: &[Vec<Vec<f64>>], safety: &S) -> Vec<CriticalFault> {
        use std::collections::HashMap;
        type Forecast = (Vec<f64>, Vec<f64>);
        let mut cache: HashMap<(Vec<usize>, Vec<usize>, usize, usize), Forecast> = HashMap::new();
        let grid = self.injectable_grid();
        let mut out = Vec::new();
        for (trace_idx, trace) in traces.iter().enumerate() {
            for k in 1..trace.len().saturating_sub(1) {
                let golden_margin = safety.margin(&trace[k]);
                if golden_margin <= 0.0 {
                    continue;
                }
                let (bins0, bins1) = (self.discretize(&trace[k - 1]), self.discretize(&trace[k]));
                for (var, model) in grid.iter() {
                    let corruption = Corruption::from_model(model);
                    let vs = &self.spec.vars[var];
                    let value = match corruption {
                        Corruption::Min => vs.min,
                        Corruption::Max => vs.max,
                    };
                    let category = self.discretizers[var].transform(value);
                    if bins1[var] == category {
                        continue; // no-op fault
                    }
                    let (mut faulted, next) = cache
                        .entry((bins0.clone(), bins1.clone(), var, category))
                        .or_insert_with(|| {
                            self.forecast_bins(&bins0, &bins1, var, category)
                                .expect("inference on fitted model")
                        })
                        .clone();
                    // The intervened variable's continuous value is
                    // known exactly — it is the injection. The bin
                    // representative (a median of *golden* values)
                    // can sit far from the injected extreme.
                    faulted[var] = value;
                    let predicted = safety.forecast_margin(&trace[k], &faulted, &next);
                    if predicted <= self.options.threshold {
                        out.push(CriticalFault {
                            trace: trace_idx,
                            step: k,
                            var,
                            corruption,
                            value,
                            golden_margin,
                            predicted_margin: predicted,
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            a.predicted_margin.partial_cmp(&b.predicted_margin).expect("finite margins")
        });
        out
    }

    /// [`GenericMiner::mine`] fanned out over `workers` threads (one
    /// trace per worker task, each with its own memo cache) via the
    /// workspace's central fan-out primitive
    /// ([`drivefi_sim::parallel_map`]). Identical to the serial version
    /// up to ordering, and returned sorted the same way.
    pub fn mine_parallel<S: SafetyModel + Sync>(
        &self,
        traces: &[Vec<Vec<f64>>],
        safety: &S,
        workers: usize,
    ) -> Vec<CriticalFault> {
        let shards =
            drivefi_sim::parallel_map(traces.iter().enumerate(), workers, |(trace_idx, trace)| {
                let mut found = self.mine(std::slice::from_ref(trace), safety);
                for fault in &mut found {
                    fault.trace = trace_idx;
                }
                found
            });
        let mut out: Vec<CriticalFault> = shards.into_iter().flatten().collect();
        out.sort_by(|a, b| {
            a.predicted_margin.partial_cmp(&b.predicted_margin).expect("finite margins")
        });
        out
    }

    /// Number of candidate faults over the traces — the exhaustive
    /// campaign size the miner replaces.
    pub fn candidate_count(&self, traces: &[Vec<Vec<f64>>], safety: &impl SafetyModel) -> usize {
        let grid = self.injectable_grid();
        traces
            .iter()
            .map(|t| {
                (1..t.len().saturating_sub(1)).filter(|&k| safety.margin(&t[k]) > 0.0).count()
                    * grid.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy system: x follows u; u is a bang-bang
    /// controller keeping x in [2, 8]; margin = distance of x from the
    /// [0, 10] failure boundaries.
    fn toy_spec() -> SystemSpec {
        let mut spec = SystemSpec::new();
        let u = spec.add_var("u", -1.0, 1.0, true);
        let x = spec.add_var("x", 0.0, 10.0, false);
        spec.add_dynamics(x, x);
        spec.add_dynamics(u, x);
        spec.add_dataflow(x, u);
        assert_eq!((u, x), (0, 1));
        spec
    }

    fn toy_traces() -> Vec<Vec<Vec<f64>>> {
        // x' = x + u; bang-bang with hysteresis: climb to 8, descend to
        // 2, repeat — the golden sweep covers the whole safe band.
        let mut traces = Vec::new();
        for start in [3.0f64, 5.0, 7.0] {
            let mut x = start;
            let mut dir = 1.0;
            let mut rows = Vec::new();
            for _ in 0..60 {
                if x >= 8.0 {
                    dir = -1.0;
                } else if x <= 2.0 {
                    dir = 1.0;
                }
                rows.push(vec![dir, x]);
                x = (x + dir).clamp(0.0, 10.0);
            }
            traces.push(rows);
        }
        traces
    }

    /// Toy safety: x must stay 0.5 away from the [0, 10] boundaries; the
    /// counterfactual holds the forecast command for three periods (the
    /// toy's "reaction window") before recovery.
    struct ToySafety;

    impl SafetyModel for ToySafety {
        fn margin(&self, state: &[f64]) -> f64 {
            state[1].min(10.0 - state[1]) - 0.5
        }

        fn forecast_margin(&self, observed: &[f64], faulted: &[f64], _next: &[f64]) -> f64 {
            let x_hat = observed[1] + faulted[0] * 3.0;
            self.margin(&[faulted[0], x_hat])
        }
    }

    #[test]
    fn miner_fits_and_mines_toy_system() {
        let spec = toy_spec();
        let traces = toy_traces();
        let miner = GenericMiner::fit(&spec, &traces, MinerOptions::default()).unwrap();
        let crit = miner.mine(&traces, &ToySafety);
        // A stuck command held while x is near a boundary forecasts x
        // drifting past it — the miner must find some.
        assert!(!crit.is_empty(), "no critical faults in the toy system");
        for c in &crit {
            assert!(c.golden_margin > 0.0);
            assert!(c.predicted_margin <= 0.0);
        }
        // Sorted ascending by forecast margin.
        for w in crit.windows(2) {
            assert!(w[0].predicted_margin <= w[1].predicted_margin);
        }
    }

    #[test]
    fn parallel_mining_matches_serial() {
        let spec = toy_spec();
        let traces = toy_traces();
        let miner = GenericMiner::fit(&spec, &traces, MinerOptions::default()).unwrap();
        let serial = miner.mine(&traces, &ToySafety);
        for workers in [1, 2, 8] {
            let parallel = miner.mine_parallel(&traces, &ToySafety, workers);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn only_injectable_vars_are_mined() {
        let spec = toy_spec();
        let traces = toy_traces();
        let miner = GenericMiner::fit(&spec, &traces, MinerOptions::default()).unwrap();
        let crit = miner.mine(&traces, &ToySafety);
        assert!(crit.iter().all(|c| c.var == 0), "plant-internal x was mined");
    }

    #[test]
    fn candidate_count_matches_enumeration() {
        let spec = toy_spec();
        let traces = toy_traces();
        let miner = GenericMiner::fit(&spec, &traces, MinerOptions::default()).unwrap();
        let n = miner.candidate_count(&traces, &ToySafety);
        // 3 traces × 58 eligible interior steps (margin always > 0 in
        // golden runs) × 1 injectable var × 2 corruption values.
        assert_eq!(n, 3 * 58 * 2);
    }

    #[test]
    fn closure_safety_model_works() {
        let threshold = 1.0;
        let f = move |s: &[f64]| s[0] - threshold;
        assert!(f.margin(&[2.0]) > 0.0);
        assert!(f.margin(&[0.5]) < 0.0);
    }

    #[test]
    fn bins_outside_a_byte_are_errors() {
        let (spec, traces) = (toy_spec(), toy_traces());
        let fit =
            |bins| GenericMiner::fit(&spec, &traces, MinerOptions { bins, ..Default::default() });
        assert_eq!(fit(0).err(), Some(BayesError::NoBins));
        assert_eq!(
            fit(drivefi_bayes::MAX_CATEGORIES + 1).err(),
            Some(BayesError::TooManyCategories {
                var: VarId(0),
                cardinality: drivefi_bayes::MAX_CATEGORIES + 1
            })
        );
        assert!(fit(drivefi_bayes::MAX_CATEGORIES).is_ok());
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_rows_panic() {
        let spec = toy_spec();
        let traces = vec![vec![vec![0.0; 3]; 5]];
        let _ = GenericMiner::fit(&spec, &traces, MinerOptions::default());
    }
}
