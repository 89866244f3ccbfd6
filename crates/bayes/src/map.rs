//! Compiled joint-MAP queries: max-product variable elimination with
//! everything that depends only on the evidence *pattern* fixed once.
//!
//! A counterfactual miner asks thousands of MAP queries that share a
//! pattern: the same variables observed, the same one intervened, only
//! the categories differ. [`BayesNet::compile_map`] fixes per pattern:
//!
//! * which CPTs keep a free variable (the others reduce to scalars, which
//!   a max-product traceback never reads), and for each the strides that
//!   turn the observed categories into an offset into its table;
//! * the elimination order, ascending [`VarId`];
//! * one fused product + max-out step per eliminated variable, every
//!   operand addressed by strides over the step's output cells.
//!
//! [`MapQuery::run`] then answers a query by index arithmetic into a
//! caller-owned [`MapScratch`], allocating nothing once the scratch has
//! grown to the query's size.
//!
//! The arithmetic is pinned to the factor-by-factor reference it
//! replaced. Each step multiplies its operands left-associated from
//! `1.0`, in the order the working factor list holds them, and keeps the
//! first maximum. Any other operand order or elimination order rounds
//! products differently and breaks ties differently, so it would change
//! answers, not only speed.

use crate::network::{BayesNet, VarId};
use crate::BayesError;
use std::ops::Range;

/// Where a step operand's table lives.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `MapQuery::tables`, at the run-time offset of reduced CPT `i`.
    Cpt(usize),
    /// An earlier step's output, at this offset in the scratch.
    Step(usize),
}

/// An assigned variable of a CPT and its stride in the CPT's table.
#[derive(Debug, Clone, Copy)]
struct Pin {
    var: usize,
    stride: usize,
}

/// A CPT that keeps a free variable under the pattern.
#[derive(Debug, Clone)]
struct ReducedCpt {
    /// Start of the CPT's table in `MapQuery::tables`.
    base: usize,
    /// Its assigned variables, in `MapQuery::pins`.
    pins: Range<usize>,
}

/// One output dimension of a step.
#[derive(Debug, Clone, Copy)]
struct Dim {
    var: usize,
    card: usize,
    /// Stride of `var` in the step's output table.
    stride: usize,
}

/// One operand of a step.
#[derive(Debug, Clone, Copy)]
struct Operand {
    source: Source,
    /// Stride of the eliminated variable in the operand's table.
    stride: usize,
    /// Stride of the step's innermost output variable (0 if absent).
    inner: usize,
}

/// One fused product + max-out step.
#[derive(Debug, Clone)]
struct Step {
    /// The eliminated variable and its cardinality.
    var: usize,
    card: usize,
    /// Offset and length of the output cells in the scratch.
    out: usize,
    cells: usize,
    /// Cardinality of the innermost output dimension (1 if none).
    inner: usize,
    /// Output dimensions, in `MapQuery::dims`, last fastest.
    dims: Range<usize>,
    /// Operands, in `MapQuery::operands`, in multiplication order.
    operands: Range<usize>,
    /// Start in `MapQuery::carries` of an `outer dims × operands` table:
    /// what to add to each operand index when outer dimension `d`
    /// advances and every faster outer dimension wraps to 0.
    carries: usize,
}

/// A joint-MAP query compiled for one evidence pattern by
/// [`BayesNet::compile_map`]. It holds copies of the CPT tables it reads,
/// so it outlives later edits to the network.
#[derive(Clone)]
pub struct MapQuery {
    cards: Vec<usize>,
    observed: Vec<usize>,
    intervened: Vec<usize>,
    tables: Vec<f64>,
    pins: Vec<Pin>,
    cpts: Vec<ReducedCpt>,
    dims: Vec<Dim>,
    operands: Vec<Operand>,
    carries: Vec<usize>,
    steps: Vec<Step>,
    cells: usize,
    max_operands: usize,
    max_dims: usize,
}

impl std::fmt::Debug for MapQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapQuery")
            .field("observed", &self.observed)
            .field("intervened", &self.intervened)
            .field("steps", &self.steps.len())
            .field("cells", &self.cells)
            .finish_non_exhaustive()
    }
}

/// Reusable working memory for [`MapQuery::run`]. One scratch serves any
/// number of queries; it grows to the largest it has run and then never
/// allocates again.
#[derive(Debug, Clone, Default)]
pub struct MapScratch {
    /// Every step's output cells, at the step's offset.
    values: Vec<f64>,
    /// Per output cell, the category that reached the maximum
    /// (`compile_map` checks that every category fits).
    args: Vec<u32>,
    /// Per reduced CPT, its table offset under the run's categories.
    offsets: Vec<usize>,
    /// Operand row starts and odometer digits of the general loop.
    index: Vec<usize>,
    coords: Vec<usize>,
}

impl MapScratch {
    fn fit(&mut self, query: &MapQuery) {
        fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
            if v.len() < len {
                v.resize(len, T::default());
            }
        }
        grow(&mut self.values, query.cells);
        grow(&mut self.args, query.cells);
        grow(&mut self.offsets, query.cpts.len());
        grow(&mut self.index, query.max_operands);
        grow(&mut self.coords, query.max_dims);
    }
}

/// Row-major strides (last fastest) for the given cardinalities.
fn strides(cards: &[usize]) -> Vec<usize> {
    let mut out = vec![1; cards.len()];
    for i in (0..cards.len().saturating_sub(1)).rev() {
        out[i] = out[i + 1] * cards[i + 1];
    }
    out
}

/// A factor of the compile-time elimination: its free variables with
/// their strides, and where its table lives.
struct Symbolic {
    vars: Vec<usize>,
    strides: Vec<usize>,
    source: Source,
}

impl Symbolic {
    fn stride_of(&self, var: usize) -> usize {
        self.vars.iter().position(|&v| v == var).map_or(0, |i| self.strides[i])
    }
}

impl BayesNet {
    /// Compiles the joint-MAP query for one evidence pattern: the
    /// `observed` variables carry evidence and the `intervened` ones are
    /// pinned by `do(·)`, each losing its CPT. [`MapQuery::run`] then
    /// answers the joint MAP for any categories on that pattern.
    ///
    /// # Errors
    ///
    /// [`BayesError::UnknownVariable`] for an id outside the network,
    /// then [`BayesError::MissingCpt`] for the first non-intervened
    /// variable without a CPT.
    ///
    /// # Panics
    ///
    /// Panics if a CPT lists a parent twice, or if an eliminated variable
    /// has more than `u32::MAX` categories.
    pub fn compile_map(
        &self,
        observed: &[VarId],
        intervened: &[VarId],
    ) -> Result<MapQuery, BayesError> {
        let n = self.len();
        if let Some(&var) = observed.iter().chain(intervened).find(|v| v.0 >= n) {
            return Err(BayesError::UnknownVariable(var));
        }
        let ids = |vars: &[VarId]| {
            let mut ids: Vec<usize> = vars.iter().map(|v| v.0).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let cards: Vec<usize> = self.variables().map(|v| self.cardinality(v)).collect();
        let mut query = MapQuery {
            observed: ids(observed),
            intervened: ids(intervened),
            cards,
            tables: Vec::new(),
            pins: Vec::new(),
            cpts: Vec::new(),
            dims: Vec::new(),
            operands: Vec::new(),
            carries: Vec::new(),
            steps: Vec::new(),
            cells: 0,
            max_operands: 0,
            max_dims: 0,
        };
        let mut assigned = vec![false; n];
        for &v in query.observed.iter().chain(&query.intervened) {
            assigned[v] = true;
        }

        // The reduced CPTs, in variable order; those left with no free
        // variable are scalars that no elimination step touches.
        let mut remaining = Vec::new();
        for var in self.variables() {
            if query.intervened.binary_search(&var.0).is_ok() {
                continue;
            }
            let cpt = self.cpt(var).ok_or(BayesError::MissingCpt(var))?;
            let vars: Vec<usize> = cpt.parents.iter().map(|p| p.0).chain([var.0]).collect();
            assert!(
                (1..vars.len()).all(|i| !vars[..i].contains(&vars[i])),
                "duplicate variables in factor"
            );
            let table_cards: Vec<usize> = vars.iter().map(|&v| query.cards[v]).collect();
            let table_strides = strides(&table_cards);
            let (mut free, mut free_strides) = (Vec::new(), Vec::new());
            let first_pin = query.pins.len();
            for (&v, &stride) in vars.iter().zip(&table_strides) {
                if assigned[v] {
                    query.pins.push(Pin { var: v, stride });
                } else {
                    free.push(v);
                    free_strides.push(stride);
                }
            }
            if free.is_empty() {
                query.pins.truncate(first_pin);
                continue;
            }
            remaining.push(Symbolic {
                vars: free,
                strides: free_strides,
                source: Source::Cpt(query.cpts.len()),
            });
            query
                .cpts
                .push(ReducedCpt { base: query.tables.len(), pins: first_pin..query.pins.len() });
            query.tables.extend_from_slice(&cpt.table);
        }

        let mut scope: Vec<usize> = remaining.iter().flat_map(|f| f.vars.clone()).collect();
        scope.sort_unstable();
        scope.dedup();
        for var in scope {
            assert!(u32::try_from(query.cards[var]).is_ok(), "too many categories for a MAP query");
            let (touching, mut rest): (Vec<Symbolic>, Vec<Symbolic>) =
                remaining.into_iter().partition(|f| f.vars.contains(&var));
            let mut product: Vec<usize> = Vec::new();
            for f in &touching {
                for &v in &f.vars {
                    if !product.contains(&v) {
                        product.push(v);
                    }
                }
            }
            let vars: Vec<usize> = product.into_iter().filter(|&v| v != var).collect();
            let out_cards: Vec<usize> = vars.iter().map(|&v| query.cards[v]).collect();
            let out_strides = strides(&out_cards);
            let step = Step {
                var,
                card: query.cards[var],
                out: query.cells,
                cells: out_cards.iter().product(),
                inner: out_cards.last().copied().unwrap_or(1),
                dims: query.dims.len()..query.dims.len() + vars.len(),
                operands: query.operands.len()..query.operands.len() + touching.len(),
                carries: query.carries.len(),
            };
            for ((&v, &card), &stride) in vars.iter().zip(&out_cards).zip(&out_strides) {
                query.dims.push(Dim { var: v, card, stride });
            }
            for f in &touching {
                query.operands.push(Operand {
                    source: f.source,
                    stride: f.stride_of(var),
                    inner: vars.last().map_or(0, |&v| f.stride_of(v)),
                });
            }
            let outer = vars.len().saturating_sub(1);
            for d in 0..outer {
                for f in &touching {
                    let wrapped: usize =
                        (d + 1..outer).map(|e| (out_cards[e] - 1) * f.stride_of(vars[e])).sum();
                    query.carries.push(f.stride_of(vars[d]).wrapping_sub(wrapped));
                }
            }
            query.cells += step.cells;
            query.max_operands = query.max_operands.max(touching.len());
            query.max_dims = query.max_dims.max(vars.len());
            if !vars.is_empty() {
                rest.push(Symbolic { vars, strides: out_strides, source: Source::Step(step.out) });
            }
            query.steps.push(step);
            remaining = rest;
        }
        Ok(query)
    }
}

impl MapQuery {
    /// Runs the query. On entry `assignment` holds one category per
    /// network variable, of which only the observed and intervened ones
    /// are read; on return every other entry holds its category in the
    /// joint MAP assignment.
    ///
    /// # Errors
    ///
    /// [`BayesError::BadCategory`] for the first out-of-range category,
    /// observed variables first, each group in id order; `assignment` is
    /// then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not have one entry per network
    /// variable.
    pub fn run(
        &self,
        assignment: &mut [usize],
        scratch: &mut MapScratch,
    ) -> Result<(), BayesError> {
        assert_eq!(assignment.len(), self.cards.len(), "one category per network variable");
        for &var in self.observed.iter().chain(&self.intervened) {
            if assignment[var] >= self.cards[var] {
                return Err(BayesError::BadCategory { var: VarId(var), value: assignment[var] });
            }
        }
        scratch.fit(self);
        for (offset, cpt) in scratch.offsets.iter_mut().zip(&self.cpts) {
            *offset = cpt.base
                + self.pins[cpt.pins.clone()]
                    .iter()
                    .map(|pin| assignment[pin.var] * pin.stride)
                    .sum::<usize>();
        }
        for step in &self.steps {
            self.eliminate(step, scratch);
        }
        // Traceback in reverse elimination order: every output variable
        // of a step is eliminated later, so it is already assigned.
        for step in self.steps.iter().rev() {
            let cell: usize =
                self.dims[step.dims.clone()].iter().map(|d| assignment[d.var] * d.stride).sum();
            assignment[step.var] = scratch.args[step.out + cell] as usize;
        }
        Ok(())
    }

    /// One fused step: for each output cell, the product of the operands
    /// at every category of the eliminated variable, maxed out with the
    /// first maximum's category kept for the traceback.
    fn eliminate(&self, step: &Step, scratch: &mut MapScratch) {
        let MapScratch { values, args, offsets, index, coords } = scratch;
        let operands = &self.operands[step.operands.clone()];
        let outer = step.dims.len().saturating_sub(1);
        let (earlier, rest) = values.split_at_mut(step.out);
        let earlier: &[f64] = earlier;
        let table = |op: &Operand| match op.source {
            Source::Cpt(cpt) => &self.tables[offsets[cpt]..],
            Source::Step(base) => &earlier[base..],
        };
        let fused = Fused {
            card: step.card,
            inner: step.inner,
            outer: &self.dims[step.dims.start..step.dims.start + outer],
            carries: &self.carries[step.carries..step.carries + outer * operands.len()],
            coords: &mut coords[..outer],
            out: &mut rest[..step.cells],
            args: &mut args[step.out..step.out + step.cells],
        };
        macro_rules! fixed {
            ($n:literal) => {
                fused.fixed::<$n>(
                    std::array::from_fn(|j| table(&operands[j])),
                    std::array::from_fn(|j| operands[j].stride),
                    std::array::from_fn(|j| operands[j].inner),
                )
            };
        }
        match operands.len() {
            1 => fixed!(1),
            2 => fixed!(2),
            3 => fixed!(3),
            4 => fixed!(4),
            n => fused.any(operands, table, &mut index[..n]),
        }
    }
}

/// One step's loop, resolved for a run: the output cells come in rows
/// along the innermost dimension, and an odometer over the outer
/// dimensions moves every operand to the next row.
struct Fused<'a> {
    card: usize,
    inner: usize,
    outer: &'a [Dim],
    carries: &'a [usize],
    coords: &'a mut [usize],
    out: &'a mut [f64],
    args: &'a mut [u32],
}

impl Fused<'_> {
    /// The loop for `N` operands, `tables[j]` starting at operand `j`'s
    /// first cell. Every cell folds its categories in ascending order, so
    /// interleaving the cells of a row changes nothing.
    fn fixed<const N: usize>(self, tables: [&[f64]; N], strides: [usize; N], inner: [usize; N]) {
        let mut row = [0usize; N];
        self.coords.fill(0);
        for (values, args) in
            self.out.chunks_exact_mut(self.inner).zip(self.args.chunks_exact_mut(self.inner))
        {
            for k in 0..self.card {
                let mut at: [usize; N] = std::array::from_fn(|j| row[j] + k * strides[j]);
                for (value, arg) in values.iter_mut().zip(args.iter_mut()) {
                    let mut product = 1.0;
                    for j in 0..N {
                        product *= tables[j][at[j]];
                        at[j] += inner[j];
                    }
                    fold(value, arg, k, product);
                }
            }
            advance(self.outer, self.carries, self.coords, &mut row);
        }
    }

    /// The same loop for any number of operands, resolving each table
    /// per read.
    fn any<'t>(
        self,
        operands: &[Operand],
        table: impl Fn(&Operand) -> &'t [f64],
        row: &mut [usize],
    ) {
        row.fill(0);
        self.coords.fill(0);
        for (values, args) in
            self.out.chunks_exact_mut(self.inner).zip(self.args.chunks_exact_mut(self.inner))
        {
            for k in 0..self.card {
                for (c, (value, arg)) in values.iter_mut().zip(args.iter_mut()).enumerate() {
                    let mut product = 1.0;
                    for (op, &at) in operands.iter().zip(row.iter()) {
                        product *= table(op)[at + k * op.stride + c * op.inner];
                    }
                    fold(value, arg, k, product);
                }
            }
            advance(self.outer, self.carries, self.coords, row);
        }
    }
}

/// Folds category `k`'s product into a cell: the running maximum, and the
/// category that first reached it.
#[inline(always)]
fn fold(value: &mut f64, arg: &mut u32, k: usize, product: f64) {
    if k == 0 {
        *value = f64::NEG_INFINITY.max(product);
        *arg = 0;
    } else {
        let next = value.max(product);
        if next > *value {
            *arg = k as u32;
        }
        *value = next;
    }
}

/// Advances the outer-dimension odometer by one row (last fastest),
/// moving each operand's row start by the matching carry.
#[inline(always)]
fn advance(outer: &[Dim], carries: &[usize], coords: &mut [usize], row: &mut [usize]) {
    let n = row.len();
    for d in (0..outer.len()).rev() {
        coords[d] += 1;
        if coords[d] < outer[d].card {
            for (at, &carry) in row.iter_mut().zip(&carries[d * n..(d + 1) * n]) {
                *at = at.wrapping_add(carry);
            }
            return;
        }
        coords[d] = 0;
    }
}
