use std::fmt;

use crate::basis::{fingerprint, fold, Basis, VarStatus, SIG_SEED};
use crate::expr::LinExpr;
use crate::simplex::{dense, Problem, Relation, Row, SimplexError};
use crate::{presolve, revised};

/// Handle to a model variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

/// Failure modes of [`Model::solve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The solver hit its iteration budget.
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "model is infeasible"),
            LpError::Unbounded => write!(f, "model objective is unbounded"),
            LpError::IterationLimit => write!(f, "solver iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// Stable per-row signatures: each presolved row's `(name fingerprint,
/// coefficient bits)` pairs, relation, and rhs folded word by word. Rows
/// have no names, so this is the identity the warm-start [`Basis`] keys
/// slack statuses by; a row that survives a model rebuild unchanged hashes
/// to the same tag and carries its tight/slack state across.
fn row_tags(model: &Model, pre: &presolve::Presolved) -> Vec<u64> {
    pre.rows
        .iter()
        .map(|row| {
            let mut h = SIG_SEED;
            for &(j, c) in &row.coeffs {
                h = fold(h, model.vars[pre.orig[j]].fp);
                h = fold(h, c.to_bits());
            }
            h = fold(h, row.relation as u64);
            fold(h, row.rhs.to_bits())
        })
        .collect()
}

/// Whether `SHERLOCK_LP_CHECK=1` asked for every sparse solve to be
/// cross-checked against the dense oracle (read once per process).
fn cross_check_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED
        .get_or_init(|| std::env::var("SHERLOCK_LP_CHECK").is_ok_and(|v| !v.is_empty() && v != "0"))
}

impl From<SimplexError> for LpError {
    fn from(e: SimplexError) -> Self {
        match e {
            SimplexError::Infeasible => LpError::Infeasible,
            SimplexError::Unbounded => LpError::Unbounded,
            SimplexError::IterationLimit => LpError::IterationLimit,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Var {
    pub(crate) name: String,
    /// [`fingerprint`] of `name`, the variable's warm-start identity.
    pub(crate) fp: u64,
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

/// An LP model: named bounded variables, linear constraints, and a minimized
/// objective, with helpers for the piecewise-linear terms SherLock's encoding
/// uses.
///
/// Variables may have finite or infinite bounds in either direction; the
/// revised simplex handles ranges natively (no bound rows, no free-variable
/// splitting). Solving runs a presolve pass first — see [`Model::presolved`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    pub(crate) vars: Vec<Var>,
    pub(crate) rows: Vec<(LinExpr, Relation, f64)>,
    pub(crate) objective: LinExpr,
}

/// The optimal assignment returned by [`Model::solve`].
#[derive(Clone, Debug)]
pub struct Solution {
    values: Vec<f64>,
    /// Optimal objective value (including any constant term).
    pub objective: f64,
}

impl Solution {
    /// Value of a variable at the optimum.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Evaluates an arbitrary linear expression at the optimum.
    pub fn eval(&self, e: &LinExpr) -> f64 {
        e.coefficients()
            .iter()
            .map(|&(v, c)| c * self.value(v))
            .sum::<f64>()
            + e.constant_term()
    }
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a variable bounded to `[lo, hi]`; either bound may be infinite.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn add_var(&mut self, name: impl Into<String>, lo: f64, hi: f64) -> VarId {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN variable bound");
        assert!(lo <= hi, "empty variable domain");
        let id = VarId(self.vars.len());
        let name = name.into();
        self.vars.push(Var {
            fp: fingerprint(&name),
            name,
            lo,
            hi,
        });
        id
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows (excluding bound rows synthesized at solve
    /// time).
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Name given to a variable at creation.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// 64-bit FNV-1a fingerprint of a variable's name, computed once when
    /// the variable was added. Equal names give equal fingerprints.
    pub fn var_fingerprint(&self, v: VarId) -> u64 {
        self.vars[v.0].fp
    }

    /// Adds the constraint `expr ≤ rhs`.
    pub fn constrain_le(&mut self, expr: LinExpr, rhs: f64) {
        self.rows.push((expr, Relation::Le, rhs));
    }

    /// Adds the constraint `expr ≥ rhs`.
    pub fn constrain_ge(&mut self, expr: LinExpr, rhs: f64) {
        self.rows.push((expr, Relation::Ge, rhs));
    }

    /// Adds the constraint `expr = rhs`.
    pub fn constrain_eq(&mut self, expr: LinExpr, rhs: f64) {
        self.rows.push((expr, Relation::Eq, rhs));
    }

    /// Adds `expr` to the minimized objective.
    pub fn minimize(&mut self, expr: LinExpr) {
        self.objective += expr;
    }

    /// A stable content tag naming hinge/abs auxiliaries: the merged
    /// `(name fingerprint, coefficient bits)` pairs, the constant term, and
    /// the weight, folded word by word. Index-derived names would shift
    /// whenever an unrelated variable is added earlier in a rebuilt model,
    /// which silently invalidates warm-start bases recorded by name;
    /// content-derived names survive model rebuilds as long as the penalty
    /// term itself is unchanged.
    fn expr_tag(&self, expr: &LinExpr, weight: f64) -> u64 {
        let mut h = SIG_SEED;
        for (j, c) in expr.index_coefficients() {
            h = fold(h, self.vars[j].fp);
            h = fold(h, c.to_bits());
        }
        h = fold(h, expr.constant_term().to_bits());
        fold(h, weight.to_bits())
    }

    /// Adds `weight · max(0, expr)` to the objective (SherLock's
    /// Mostly-Protected terms, Eq. 2) and returns the auxiliary variable
    /// carrying the hinge value.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative (the reformulation is only exact for
    /// nonnegative weights).
    pub fn add_hinge(&mut self, mut expr: LinExpr, weight: f64) -> VarId {
        assert!(weight >= 0.0, "hinge weight must be nonnegative");
        let tag = self.expr_tag(&expr, weight);
        let s = self.add_var(format!("hinge:{tag:016x}"), 0.0, f64::INFINITY);
        // s >= expr  ⇔  expr - s <= 0
        expr.add_term(s, -1.0);
        self.constrain_le(expr, 0.0);
        self.objective.add_term(s, weight);
        s
    }

    /// Adds `weight · |expr|` to the objective (SherLock's Mostly-Paired
    /// terms, Eqs. 6–7) and returns the auxiliary variable carrying `|expr|`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    pub fn add_abs(&mut self, mut expr: LinExpr, weight: f64) -> VarId {
        assert!(weight >= 0.0, "abs weight must be nonnegative");
        let tag = self.expr_tag(&expr, weight);
        let t = self.add_var(format!("abs:{tag:016x}"), 0.0, f64::INFINITY);
        let mut neg = -expr.clone();
        expr.add_term(t, -1.0);
        neg.add_term(t, -1.0);
        self.constrain_le(expr, 0.0);
        self.constrain_le(neg, 0.0);
        self.objective.add_term(t, weight);
        t
    }

    /// Solves the model with the sparse revised simplex (cold start).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::IterationLimit`].
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_inner(None)
    }

    /// Solves the model starting from a previously recorded [`Basis`], then
    /// overwrites the handle with this solve's optimal basis.
    ///
    /// The basis maps onto the model by variable *name*: statuses for names
    /// the model doesn't have are ignored, variables the basis doesn't know
    /// start at a bound. A stale or empty basis is never wrong — at worst
    /// the solver spends extra phase-1 pivots repairing it, and an empty
    /// basis makes this identical to [`Model::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`]. On error the basis is cleared (there is no
    /// optimal vertex worth resuming from).
    pub fn solve_warm(&self, basis: &mut Basis) -> Result<Solution, LpError> {
        self.solve_inner(Some(basis))
    }

    fn solve_inner(&self, basis: Option<&mut Basis>) -> Result<Solution, LpError> {
        let _s = sherlock_obs::span("lp.simplex");
        sherlock_obs::counter!("simplex.solves").incr();
        sherlock_obs::histogram!("simplex.rows").observe(self.rows.len() as u64);
        sherlock_obs::histogram!("simplex.vars").observe(self.vars.len() as u64);

        let outcome = self.solve_sparse(basis);
        if cross_check_enabled() {
            self.cross_check(&outcome);
        }

        let (pivots1, pivots2, refactors, status) = match &outcome {
            Ok((_, rec)) => (rec.0, rec.1, rec.2, "optimal"),
            Err(e) => (
                0,
                0,
                0,
                match e {
                    LpError::Infeasible => {
                        sherlock_obs::counter!("lp.infeasible").incr();
                        "infeasible"
                    }
                    LpError::Unbounded => "unbounded",
                    LpError::IterationLimit => "iteration_limit",
                },
            ),
        };
        let pivots = pivots1 + pivots2;
        sherlock_obs::counter!("simplex.pivots").add(pivots);
        sherlock_obs::counter!("lp.refactorizations").add(refactors);
        sherlock_obs::histogram!("lp.pivots").observe(pivots);
        sherlock_obs::histogram!("lp.phase1_iters").observe(pivots1);
        sherlock_obs::histogram!("lp.phase2_iters").observe(pivots2);
        if sherlock_obs::jsonl_enabled() {
            use sherlock_obs::json::Json;
            sherlock_obs::event(
                "lp.solve",
                &[
                    ("rows", Json::from(self.rows.len() as u64)),
                    ("vars", Json::from(self.vars.len() as u64)),
                    ("pivots", Json::from(pivots)),
                    ("phase1_iters", Json::from(pivots1)),
                    ("phase2_iters", Json::from(pivots2)),
                    ("refactorizations", Json::from(refactors)),
                    ("status", Json::Str(status.to_string())),
                ],
            );
        }
        outcome.map(|(s, _)| s)
    }

    /// Presolve → lower → revised simplex → reconstruct. The second tuple
    /// element is `(phase1 pivots, phase2 pivots, refactorizations)` for the
    /// flight recorder.
    fn solve_sparse(
        &self,
        basis: Option<&mut Basis>,
    ) -> Result<(Solution, (u64, u64, u64)), LpError> {
        let pre = match presolve::run(self) {
            Ok(p) => p,
            Err(e) => {
                if let Some(b) = basis {
                    b.clear();
                }
                return Err(e);
            }
        };
        sherlock_obs::histogram!("lp.presolve_rows_dropped").observe(pre.rows_dropped as u64);
        sherlock_obs::histogram!("lp.presolve_vars_fixed").observe(pre.vars_fixed as u64);
        let inst = revised::Instance::build(&pre);

        // Map the warm basis onto the reduced problem: structural columns by
        // variable name, slack columns by row signature (which rows were
        // tight at the previous optimum). Unmatched structurals rest at a
        // bound; unmatched (new) rows get a Basic slack, the same slackness
        // a cold start would give them. Basis installation places recorded
        // structurals first and demotes surplus slacks.
        let row_tags = row_tags(self, &pre);
        let n_cols = inst.n_struct + inst.m;
        let start: Option<Vec<VarStatus>> = match &basis {
            Some(b) if !b.is_empty() => {
                let mut statuses = vec![VarStatus::AtLower; n_cols];
                statuses[inst.n_struct..].fill(VarStatus::Basic);
                let mut hits = 0usize;
                for (j, &orig) in pre.orig.iter().enumerate() {
                    if let Some(s) = b.var_status(self.vars[orig].fp) {
                        statuses[j] = s;
                        hits += 1;
                    }
                }
                for (i, &tag) in row_tags.iter().enumerate() {
                    if let Some(s) = b.row_status(tag) {
                        statuses[inst.n_struct + i] = s;
                        hits += 1;
                    }
                }
                if hits > 0 {
                    sherlock_obs::counter!("lp.warm_hits").incr();
                    Some(statuses)
                } else {
                    None
                }
            }
            _ => None,
        };

        let out = match revised::solve(&inst, start.as_deref()) {
            Ok(out) => out,
            Err(e) => {
                if let Some(b) = basis {
                    b.clear();
                }
                return Err(e.into());
            }
        };

        if let Some(b) = basis {
            b.clear();
            for (j, &orig) in pre.orig.iter().enumerate() {
                b.record(self.vars[orig].fp, out.statuses[j]);
            }
            for (i, &tag) in row_tags.iter().enumerate() {
                b.record_row(tag, out.statuses[inst.n_struct + i]);
            }
        }

        // Reconstruct the full assignment: presolve-fixed variables replay
        // their fixed value, the rest read the reduced solution.
        let mut values = Vec::with_capacity(self.vars.len());
        let mut next = 0usize;
        for fixed in &pre.fixed {
            match fixed {
                Some(v) => values.push(*v),
                None => {
                    values.push(out.x[next]);
                    next += 1;
                }
            }
        }
        let solution = Solution {
            values,
            objective: out.objective + pre.obj_offset,
        };
        Ok((
            solution,
            (out.phase1_pivots, out.phase2_pivots, out.refactorizations),
        ))
    }

    /// `SHERLOCK_LP_CHECK=1` mode: every production solve is replayed on the
    /// dense oracle and the outcomes compared — status must match, optimal
    /// objectives must agree to 1e-6. Panics on disagreement with both
    /// objectives so the failing model can be investigated. (IterationLimit
    /// on either side is skipped: budgets differ legitimately.)
    fn cross_check(&self, sparse: &Result<(Solution, (u64, u64, u64)), LpError>) {
        let dense = self.solve_dense();
        match (sparse, &dense) {
            (_, Err(LpError::IterationLimit)) | (Err(LpError::IterationLimit), _) => {}
            (Ok((s, _)), Ok(d)) => {
                let scale = 1.0 + s.objective.abs().max(d.objective.abs());
                assert!(
                    (s.objective - d.objective).abs() / scale < 1e-6,
                    "lp cross-check: sparse objective {} != dense {} \
                     ({} vars, {} rows)",
                    s.objective,
                    d.objective,
                    self.vars.len(),
                    self.rows.len(),
                );
            }
            (Ok(_), Err(e)) => panic!("lp cross-check: sparse optimal, dense {e}"),
            (Err(e), Ok(_)) => panic!("lp cross-check: dense optimal, sparse {e}"),
            (Err(a), Err(b)) => assert_eq!(*a, *b, "lp cross-check: status mismatch"),
        }
    }

    /// Runs the presolve pass and returns the reduced model: fixed variables
    /// eliminated, singleton rows folded into bounds, duplicate rows merged.
    /// Presolving is idempotent: `m.presolved()?.presolved()? ==
    /// m.presolved()?`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`] if presolve alone proves the model
    /// has no feasible point.
    pub fn presolved(&self) -> Result<Model, LpError> {
        let pre = presolve::run(self)?;
        let mut reduced = Model::new();
        for (j, &orig) in pre.orig.iter().enumerate() {
            reduced.add_var(self.vars[orig].name.clone(), pre.lower[j], pre.upper[j]);
        }
        for row in &pre.rows {
            let mut expr = LinExpr::zero();
            for &(j, c) in &row.coeffs {
                expr.add_term(VarId(j), c);
            }
            reduced.rows.push((expr, row.relation, row.rhs));
        }
        let mut objective = LinExpr::zero();
        for (j, &c) in pre.cost.iter().enumerate() {
            if c != 0.0 {
                objective.add_term(VarId(j), c);
            }
        }
        objective.add_constant(pre.obj_offset);
        reduced.objective = objective;
        Ok(reduced)
    }

    /// Solves with the dense two-phase tableau ([`crate::simplex::dense`]).
    ///
    /// This is the slow reference oracle kept for differential testing —
    /// production code should call [`Model::solve`]. No presolve, no
    /// warm-start, no instrumentation.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_dense(&self) -> Result<Solution, LpError> {
        // Column layout: one column per variable; free variables get a second
        // (negative-part) column appended after all primary columns.
        let n = self.vars.len();
        let mut neg_col = vec![usize::MAX; n];
        let mut next = n;
        for (i, v) in self.vars.iter().enumerate() {
            if v.lo == f64::NEG_INFINITY {
                neg_col[i] = next;
                next += 1;
            }
        }
        let num_cols = next;

        // x_i = col_i (+ lo_i) - neg_col_i. Substituting into every row and
        // the objective shifts the RHS / adds a constant.
        let mut problem = Problem {
            num_vars: num_cols,
            rows: Vec::with_capacity(self.rows.len() + n),
            objective: vec![0.0; num_cols],
        };

        let lower = |i: usize| -> f64 {
            let lo = self.vars[i].lo;
            if lo == f64::NEG_INFINITY {
                0.0
            } else {
                lo
            }
        };

        for (expr, rel, rhs) in &self.rows {
            let mut coeffs = Vec::new();
            let mut shift = 0.0;
            for (v, c) in expr.coefficients() {
                coeffs.push((v.0, c));
                if neg_col[v.0] != usize::MAX {
                    coeffs.push((neg_col[v.0], -c));
                }
                shift += c * lower(v.0);
            }
            problem.rows.push(Row {
                coeffs,
                relation: *rel,
                rhs: rhs - expr.constant_term() - shift,
            });
        }

        // Upper bounds as rows (in shifted coordinates: col <= hi - lo).
        for (i, v) in self.vars.iter().enumerate() {
            if v.hi != f64::INFINITY {
                let mut coeffs = vec![(i, 1.0)];
                if neg_col[i] != usize::MAX {
                    coeffs.push((neg_col[i], -1.0));
                }
                problem.rows.push(Row {
                    coeffs,
                    relation: Relation::Le,
                    rhs: v.hi - lower(i),
                });
            }
        }

        let mut const_term = self.objective.constant_term();
        for (v, c) in self.objective.coefficients() {
            problem.objective[v.0] += c;
            if neg_col[v.0] != usize::MAX {
                problem.objective[neg_col[v.0]] -= c;
            }
            const_term += c * lower(v.0);
        }

        let (x, obj) = dense::solve(&problem)?;
        let values = (0..n)
            .map(|i| {
                let neg = if neg_col[i] == usize::MAX {
                    0.0
                } else {
                    x[neg_col[i]]
                };
                x[i] - neg + lower(i)
            })
            .collect();
        Ok(Solution {
            values,
            objective: obj + const_term,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_vars_respected() {
        // min -x - y with x in [0, 0.5], y in [0.25, 1].
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 0.5);
        let y = m.add_var("y", 0.25, 1.0);
        m.minimize(-(LinExpr::from(x) + LinExpr::from(y)));
        let s = m.solve().unwrap();
        assert!((s.value(x) - 0.5).abs() < 1e-7);
        assert!((s.value(y) - 1.0).abs() < 1e-7);
        assert!((s.objective + 1.5).abs() < 1e-7);
    }

    #[test]
    fn nonzero_lower_bound_shift() {
        // min x with x >= 3 (as a bound, not a row).
        let mut m = Model::new();
        let x = m.add_var("x", 3.0, f64::INFINITY);
        m.minimize(LinExpr::from(x));
        let s = m.solve().unwrap();
        assert!((s.value(x) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn free_variable_goes_negative() {
        // min x s.t. x >= -5 as a row, x free.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.constrain_ge(LinExpr::from(x), -5.0);
        m.minimize(LinExpr::from(x));
        let s = m.solve().unwrap();
        assert!((s.value(x) + 5.0).abs() < 1e-7);
    }

    #[test]
    fn hinge_is_max_of_zero_and_expr() {
        // Hinge over (1 - x) with x forced to 0.25 ⇒ hinge value 0.75.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        m.constrain_eq(LinExpr::from(x), 0.25);
        let h = m.add_hinge(LinExpr::constant(1.0) - LinExpr::from(x), 2.0);
        let s = m.solve().unwrap();
        assert!((s.value(h) - 0.75).abs() < 1e-7);
        assert!((s.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn hinge_clamps_to_zero() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 2.0);
        m.constrain_eq(LinExpr::from(x), 2.0);
        let h = m.add_hinge(LinExpr::constant(1.0) - LinExpr::from(x), 1.0);
        let s = m.solve().unwrap();
        assert!(s.value(h).abs() < 1e-7);
        assert!(s.objective.abs() < 1e-7);
    }

    #[test]
    fn abs_measures_magnitude_both_ways() {
        for (target, expected) in [(0.75, 0.25), (0.25, 0.25), (0.5, 0.0)] {
            let mut m = Model::new();
            let x = m.add_var("x", 0.0, 1.0);
            m.constrain_eq(LinExpr::from(x), target);
            let a = m.add_abs(LinExpr::from(x) - LinExpr::constant(0.5), 1.0);
            let s = m.solve().unwrap();
            assert!(
                (s.value(a) - expected).abs() < 1e-7,
                "|{target} - 0.5| should be {expected}"
            );
        }
    }

    #[test]
    fn objective_constant_propagates() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        m.minimize(LinExpr::from(x) + LinExpr::constant(10.0));
        let s = m.solve().unwrap();
        assert!((s.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn eval_expression_at_optimum() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0);
        m.constrain_eq(LinExpr::from(x), 0.5);
        m.constrain_eq(LinExpr::from(y), 0.25);
        m.minimize(LinExpr::zero());
        let s = m.solve().unwrap();
        let e = LinExpr::from(x) * 2.0 + LinExpr::from(y) * 4.0 + LinExpr::constant(1.0);
        assert!((s.eval(&e) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_bounds_vs_rows() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0);
        m.constrain_ge(LinExpr::from(x), 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_model() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.minimize(-LinExpr::from(x));
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    #[should_panic(expected = "empty variable domain")]
    fn rejects_inverted_bounds() {
        Model::new().add_var("x", 1.0, 0.0);
    }

    #[test]
    fn var_names_kept() {
        let mut m = Model::new();
        let x = m.add_var("read(f)^acq", 0.0, 1.0);
        assert_eq!(m.var_name(x), "read(f)^acq");
        assert_eq!(m.num_vars(), 1);
    }

    #[test]
    fn sherlock_shaped_window_lp_picks_shared_candidate() {
        // Two windows share candidate `s`; window 1 also offers `u1`,
        // window 2 also offers `u2`. With uniform regularization the cheapest
        // cover sets s = 1 and leaves u1 = u2 = 0 — the Mostly-Protected +
        // Synchronizations-are-Rare interplay from the paper, in miniature.
        let mut m = Model::new();
        let s = m.add_var("s", 0.0, 1.0);
        let u1 = m.add_var("u1", 0.0, 1.0);
        let u2 = m.add_var("u2", 0.0, 1.0);
        for &u in &[u1, u2] {
            m.add_hinge(
                LinExpr::constant(1.0) - LinExpr::from(s) - LinExpr::from(u),
                1.0,
            );
        }
        for &v in &[s, u1, u2] {
            m.minimize(LinExpr::term(v, 0.2));
        }
        let sol = m.solve().unwrap();
        assert!(sol.value(s) > 0.99, "shared candidate should be chosen");
        assert!(sol.value(u1) < 0.01);
        assert!(sol.value(u2) < 0.01);
    }
}
