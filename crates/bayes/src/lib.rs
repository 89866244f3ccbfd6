//! Discrete Bayesian networks with exact MAP inference and do-calculus.
//!
//! This crate is the probabilistic substrate of DriveFI's "ML-based fault
//! controller" (paper §III-B): it provides
//!
//! * discrete **factors** and **conditional probability tables** (CPTs),
//! * **Bayesian networks** over discrete variables with DAG validation,
//! * exact **joint MAP** inference by max-product variable elimination
//!   with traceback, compiled once per evidence pattern into an
//!   allocation-free kernel,
//! * **interventions** (`do(·)` in Pearl's calculus): graph surgery that
//!   severs a node from its parents and pins its value, which is exactly
//!   how the paper models a fault injection inside the network,
//! * **maximum-likelihood CPD learning** from complete data (one flat
//!   byte matrix, a category byte per variable) with Laplace smoothing,
//! * a **quantile discretizer** for mapping continuous ADS traces onto
//!   the discrete networks,
//! * a **dynamic BN template** that unrolls into the paper's 3-slice
//!   temporal Bayesian network (3-TBN, Fig. 6),
//! * the **counterfactual query** of Eq. 2 on such a network: `do(v@1 =
//!   c)` with slices 0 and 1 observed except where the fault reaches,
//!   compiled once per intervened variable.
//!
//! # Example
//!
//! ```
//! use drivefi_bayes::{BayesNet, Cpt, MapScratch};
//!
//! // Rain -> WetGrass
//! let mut net = BayesNet::new();
//! let rain = net.add_variable("rain", 2);
//! let wet = net.add_variable("wet", 2);
//! net.set_cpt(Cpt::new(rain, vec![], vec![0.8, 0.2])).unwrap();
//! net.set_cpt(Cpt::new(wet, vec![rain], vec![0.9, 0.1, 0.2, 0.8])).unwrap();
//!
//! // The most probable explanation of wet grass: rain.
//! let query = net.compile_map(&[wet], &[]).unwrap();
//! let mut assignment = vec![0; net.len()];
//! assignment[wet.0] = 1;
//! query.run(&mut assignment, &mut MapScratch::default()).unwrap();
//! assert_eq!(assignment[rain.0], 1);
//! ```

pub mod counterfactual;
pub mod dbn;
pub mod discretize;
pub mod factor;
pub mod learn;
pub mod map;
pub mod network;

pub use counterfactual::Counterfactual;
pub use dbn::{DbnTemplate, SliceVar, TemporalEdge, UnrolledDbn};
pub use discretize::Discretizer;
pub use factor::Factor;
pub use learn::{check_categories, fit_cpts, MAX_CATEGORIES};
pub use map::{MapQuery, MapScratch};
pub use network::{BayesNet, Cpt, VarId};

use std::collections::BTreeMap;

/// An assignment of observed values to variables: `var -> category`.
pub type Evidence = BTreeMap<VarId, usize>;

/// Errors produced by network construction and inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BayesError {
    /// A referenced variable does not exist in the network.
    UnknownVariable(VarId),
    /// A CPT's table length does not match the variable cardinalities.
    BadTableSize {
        /// Variable the CPT is for.
        var: VarId,
        /// Expected number of entries.
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
    /// A CPT row does not sum to 1 (beyond tolerance).
    UnnormalizedRow {
        /// Variable the CPT is for.
        var: VarId,
        /// Index of the offending parent configuration.
        row: usize,
    },
    /// The network graph contains a directed cycle.
    CyclicGraph,
    /// A variable has no CPT attached.
    MissingCpt(VarId),
    /// An evidence/intervention value is out of the variable's range.
    BadCategory {
        /// The variable.
        var: VarId,
        /// The rejected category index.
        value: usize,
    },
    /// A discretizer was asked for zero bins.
    NoBins,
    /// A variable has more categories than a byte of a data row holds
    /// ([`MAX_CATEGORIES`]).
    TooManyCategories {
        /// The variable.
        var: VarId,
        /// Its cardinality.
        cardinality: usize,
    },
    /// A variable has no training data to fit its discretizer to (a TBN
    /// lead-object variable over a corpus that never saw a lead).
    NoTrainingData {
        /// The variable's name.
        name: String,
    },
    /// A data matrix is not a whole number of rows.
    RaggedData {
        /// Bytes in the matrix.
        len: usize,
        /// Bytes per row: the network's variable count.
        width: usize,
    },
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::UnknownVariable(v) => write!(f, "unknown variable {v:?}"),
            BayesError::BadTableSize { var, expected, got } => {
                write!(f, "cpt for {var:?} has {got} entries, expected {expected}")
            }
            BayesError::UnnormalizedRow { var, row } => {
                write!(f, "cpt row {row} for {var:?} does not sum to 1")
            }
            BayesError::CyclicGraph => write!(f, "network graph contains a cycle"),
            BayesError::MissingCpt(v) => write!(f, "variable {v:?} has no cpt"),
            BayesError::BadCategory { var, value } => {
                write!(f, "category {value} out of range for {var:?}")
            }
            BayesError::NoBins => write!(f, "a discretizer needs at least one bin"),
            BayesError::TooManyCategories { var, cardinality } => write!(
                f,
                "{var:?} has {cardinality} categories, more than the {MAX_CATEGORIES} a data \
                 byte holds"
            ),
            BayesError::NoTrainingData { name } => write!(f, "no training data for {name}"),
            BayesError::RaggedData { len, width } => {
                write!(f, "{len} bytes of data are not whole rows of {width} variables")
            }
        }
    }
}

impl std::error::Error for BayesError {}
