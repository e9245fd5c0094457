//! Bounded-variable sparse revised simplex with product-form basis updates.
//!
//! This is the production solver behind [`crate::Model::solve`] and
//! [`crate::Model::solve_warm`]. Differences from the dense oracle in
//! [`crate::simplex::dense`] that make it fast on SherLock's LPs:
//!
//! * **Bounds are implicit.** Variables carry `[lo, hi]` ranges directly —
//!   no bound rows, no free-variable column splitting. SherLock's models are
//!   dominated by `[0, 1]` probability variables and `[0, ∞)` hinge slacks,
//!   so this alone removes roughly half the rows the dense path creates.
//! * **Sparse columns.** The constraint matrix is CSC ([`crate::sparse::Csc`]);
//!   pricing and FTRAN touch only stored nonzeros. Hinge rows have 2–5
//!   entries each, so density is a few percent.
//! * **Factorized basis.** `B⁻¹` is never formed. A product-form eta file
//!   represents it implicitly; each pivot appends one eta, and the basis is
//!   refactorized from scratch every [`REFACTOR_EVERY`] etas (Gauss-Jordan
//!   over the basic columns, slack columns first since they factor
//!   trivially) to bound the file length and flush accumulated error.
//! * **Composite phase 1.** Instead of artificial variables, an infeasible
//!   basis minimizes total bound violation of the basic variables directly.
//!   This is what makes *warm starts* work: any [`crate::Basis`] mapped onto
//!   the current model is a legal starting point — at worst it is primal
//!   infeasible and phase 1 repairs it in a few pivots.
//! * **Dantzig → Bland.** Most-negative-reduced-cost pricing with a switch
//!   to Bland's least-index rule after [`DANTZIG_BUDGET`] iterations, which
//!   guarantees termination on cycling/degenerate models (see
//!   `crates/lp/tests/degenerate.rs`).

use crate::basis::VarStatus;
use crate::presolve::Presolved;
use crate::simplex::{Relation, SimplexError};
use crate::sparse::Csc;

/// Entries smaller than this are treated as exact zeros in work vectors.
const EPS_ZERO: f64 = 1e-11;
/// Minimum magnitude for a ratio-test candidate / eta pivot element.
const EPS_RATIO: f64 = 1e-9;
/// Bound-violation tolerance (matches the dense oracle's phase-1 tolerance).
const EPS_FEAS: f64 = 1e-7;
/// Reduced-cost optimality tolerance. Must sit well below 1e-7: SherLock's
/// encoding adds 1e-7-scale symmetry-breaking perturbations to pick a unique
/// vertex out of degenerate faces, and the solver has to honor them (the
/// dense oracle prices at 1e-9 too).
const EPS_DUAL: f64 = 1e-9;
/// Minimum pivot magnitude preferred when breaking ratio-test ties.
const EPS_PIVOT: f64 = 1e-8;
/// Refactorize after this many etas accumulate.
const REFACTOR_EVERY: usize = 96;
/// Iterations of Dantzig pricing before switching to Bland's rule.
const DANTZIG_BUDGET: usize = 5_000;
/// Hard iteration cap.
const MAX_ITERATIONS: usize = 200_000;

/// A presolved model lowered to solver form: structural columns followed by
/// one slack column per row, all bounds explicit.
pub(crate) struct Instance {
    pub m: usize,
    pub n_struct: usize,
    /// `n_struct + m` columns; slack `i` is the unit column `e_i`.
    pub cols: Csc,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    /// Objective per column (slacks cost nothing).
    pub cost: Vec<f64>,
    pub rhs: Vec<f64>,
}

impl Instance {
    pub fn build(p: &Presolved) -> Instance {
        let m = p.rows.len();
        let n_struct = p.orig.len();
        // Count each column's entries, then fill the CSC arrays in place.
        // Row coefficients are merged and sorted, and rows are visited in
        // order, so each column's entries come out sorted by row.
        let mut col_ptr = vec![0usize; n_struct + m + 1];
        for row in &p.rows {
            for &(j, c) in &row.coeffs {
                if c != 0.0 {
                    col_ptr[j + 1] += 1;
                }
            }
        }
        col_ptr[n_struct + 1..].fill(1);
        for j in 0..n_struct + m {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n_struct + m];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = col_ptr[..n_struct + m].to_vec();
        for (i, row) in p.rows.iter().enumerate() {
            for &(j, c) in &row.coeffs {
                if c != 0.0 {
                    row_idx[next[j]] = i;
                    values[next[j]] = c;
                    next[j] += 1;
                }
            }
            let k = col_ptr[n_struct + i];
            row_idx[k] = i;
            values[k] = 1.0;
        }
        let mut lower = Vec::with_capacity(n_struct + m);
        let mut upper = Vec::with_capacity(n_struct + m);
        lower.extend_from_slice(&p.lower);
        upper.extend_from_slice(&p.upper);
        for row in &p.rows {
            // Row `a·x {≤,≥,=} b` becomes `a·x + s = b` with the slack's sign
            // constrained to absorb exactly the allowed direction.
            let (lo, hi) = match row.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
        }
        let mut cost = Vec::with_capacity(n_struct + m);
        cost.extend_from_slice(&p.cost);
        cost.resize(n_struct + m, 0.0);
        Instance {
            m,
            n_struct,
            cols: Csc::from_raw(m, col_ptr, row_idx, values),
            lower,
            upper,
            cost,
            rhs: p.rows.iter().map(|r| r.rhs).collect(),
        }
    }

    /// Clamp a warm-start status against this column's actual bounds: a
    /// status pointing at an infinite bound is meaningless, so fall back to
    /// the nearest finite bound (or park a free variable at zero via
    /// `AtLower`, which [`Simplex::nb_value`] reads as 0).
    fn normalize(&self, j: usize, s: VarStatus) -> VarStatus {
        match s {
            VarStatus::Basic => VarStatus::Basic,
            VarStatus::AtUpper if self.upper[j].is_finite() => VarStatus::AtUpper,
            VarStatus::AtUpper | VarStatus::AtLower if self.lower[j].is_finite() => {
                VarStatus::AtLower
            }
            _ if self.upper[j].is_finite() => VarStatus::AtUpper,
            _ => VarStatus::AtLower,
        }
    }
}

/// Solver outcome: structural values, raw objective (no presolve offset),
/// the final column statuses (for [`crate::Basis`] capture), and
/// flight-recorder tallies.
pub(crate) struct SolveOut {
    pub x: Vec<f64>,
    pub objective: f64,
    pub statuses: Vec<VarStatus>,
    pub phase1_pivots: u64,
    pub phase2_pivots: u64,
    pub bound_flips: u64,
    pub refactorizations: u64,
}

/// One product-form elementary matrix: the basis change that pivoted row
/// `pos` on a column whose FTRANed image had `diag` at `pos` and `others`
/// elsewhere.
struct Eta {
    pos: usize,
    diag: f64,
    others: Vec<(usize, f64)>,
}

struct Simplex<'a> {
    inst: &'a Instance,
    n: usize,
    m: usize,
    status: Vec<VarStatus>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Row of a basic column (`usize::MAX` when nonbasic).
    pos_of: Vec<usize>,
    /// Values of the basic variables, by row.
    xb: Vec<f64>,
    etas: Vec<Eta>,
    /// `etas.len()` right after the last (re)factorization; the
    /// refactorization cadence counts pivot etas from here, not the etas the
    /// factorization itself holds.
    base_etas: usize,
    refactorizations: u64,
}

impl<'a> Simplex<'a> {
    fn new(inst: &'a Instance, start: Option<&[VarStatus]>) -> Simplex<'a> {
        let n = inst.cols.n_cols();
        let m = inst.m;
        let mut status = Vec::with_capacity(n);
        match start {
            Some(s) => {
                debug_assert_eq!(s.len(), n);
                for (j, &st) in s.iter().enumerate() {
                    status.push(inst.normalize(j, st));
                }
            }
            None => {
                // Cold start: structurals at a bound, slacks basic (the
                // all-slack basis is the identity — zero etas).
                for j in 0..inst.n_struct {
                    status.push(inst.normalize(j, VarStatus::AtLower));
                }
                status.extend(std::iter::repeat_n(VarStatus::Basic, m));
            }
        }
        Simplex {
            inst,
            n,
            m,
            status,
            basis: vec![usize::MAX; m],
            pos_of: vec![usize::MAX; n],
            xb: vec![0.0; m],
            etas: Vec::new(),
            base_etas: 0,
            refactorizations: 0,
        }
    }

    /// Value a nonbasic column rests at.
    fn nb_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => {
                if self.inst.lower[j].is_finite() {
                    self.inst.lower[j]
                } else {
                    0.0
                }
            }
            VarStatus::AtUpper => self.inst.upper[j],
            VarStatus::Basic => unreachable!("basic column has no rest value"),
        }
    }

    /// Apply `B⁻¹` (etas in creation order) to a dense vector in place.
    fn ftran(&self, v: &mut [f64]) {
        for eta in &self.etas {
            let t = v[eta.pos];
            if t == 0.0 {
                continue;
            }
            let vp = t / eta.diag;
            v[eta.pos] = vp;
            for &(i, w) in &eta.others {
                v[i] -= w * vp;
            }
        }
    }

    /// Apply `B⁻ᵀ` (etas in reverse order) to a dense vector in place.
    fn btran(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = v[eta.pos];
            for &(i, w) in &eta.others {
                s -= w * v[i];
            }
            v[eta.pos] = s / eta.diag;
        }
    }

    /// Try to pivot `col` into the factorization at the best unassigned row.
    /// On success the column becomes basic; on failure (no usable pivot —
    /// the column is dependent on those already placed) nothing changes.
    fn place(&mut self, col: usize, assigned: &mut [bool], w: &mut [f64]) -> bool {
        w.fill(0.0);
        self.inst.cols.scatter(col, w);
        self.ftran(w);
        let mut best: Option<usize> = None;
        let mut best_abs = EPS_PIVOT;
        for (i, &wi) in w.iter().enumerate() {
            if !assigned[i] && wi.abs() > best_abs {
                best = Some(i);
                best_abs = wi.abs();
            }
        }
        let Some(r) = best else { return false };
        let diag = w[r];
        // An identity image needs no eta (every slack placed at its own row
        // before any structural column hits this path).
        let trivial = (diag - 1.0).abs() < EPS_ZERO
            && w.iter()
                .enumerate()
                .all(|(i, &wi)| i == r || wi.abs() < EPS_ZERO);
        if !trivial {
            self.etas.push(Eta {
                pos: r,
                diag,
                others: w
                    .iter()
                    .enumerate()
                    .filter(|&(i, &wi)| i != r && wi.abs() > EPS_ZERO)
                    .map(|(i, &wi)| (i, wi))
                    .collect(),
            });
        }
        assigned[r] = true;
        self.basis[r] = col;
        self.pos_of[col] = r;
        self.status[col] = VarStatus::Basic;
        true
    }

    /// (Re)build the factorization from a candidate basic set. Dependent
    /// candidates are demoted to a bound; unassigned rows are repaired with
    /// slack columns. Errors only if even the slacks cannot complete the
    /// basis, which cannot happen structurally (slacks span the row space).
    fn install_basis(&mut self, candidates: &[usize]) -> Result<(), ()> {
        self.etas.clear();
        self.refactorizations += 1;
        self.basis.fill(usize::MAX);
        self.pos_of.fill(usize::MAX);
        let mut assigned = vec![false; self.m];
        let mut w = vec![0.0; self.m];
        for &c in candidates {
            if !self.place(c, &mut assigned, &mut w) {
                self.status[c] = self.inst.normalize(c, VarStatus::AtLower);
            }
        }
        // Repair: fill each uncovered row, preferring its own slack.
        for r in 0..self.m {
            if !assigned[r] {
                let s = self.inst.n_struct + r;
                if self.pos_of[s] == usize::MAX {
                    self.place(s, &mut assigned, &mut w);
                }
            }
        }
        if assigned.iter().any(|a| !a) {
            for s in self.inst.n_struct..self.n {
                if self.pos_of[s] == usize::MAX {
                    self.place(s, &mut assigned, &mut w);
                }
            }
        }
        // The factorization itself may hold many etas (a warm basis full of
        // structural columns eliminates one per placement); only etas pushed
        // by *pivots* after this point count toward the next refactorization.
        self.base_etas = self.etas.len();
        if assigned.iter().all(|a| *a) {
            Ok(())
        } else {
            Err(())
        }
    }

    /// Recompute `xb = B⁻¹(b − N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut v = self.inst.rhs.clone();
        for j in 0..self.n {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let xj = self.nb_value(j);
            if xj != 0.0 {
                for (i, a) in self.inst.cols.col(j) {
                    v[i] -= a * xj;
                }
            }
        }
        self.ftran(&mut v);
        self.xb = v;
    }

    /// Candidate basic columns in deterministic factorization order: slacks
    /// first (they factor trivially), then structurals.
    fn basic_candidates(&self) -> Vec<usize> {
        let mut c: Vec<usize> = (self.inst.n_struct..self.n)
            .filter(|&j| self.status[j] == VarStatus::Basic)
            .collect();
        c.extend((0..self.inst.n_struct).filter(|&j| self.status[j] == VarStatus::Basic));
        c
    }
}

/// Solve a lowered instance, optionally from a warm set of column statuses.
pub(crate) fn solve(
    inst: &Instance,
    start: Option<&[VarStatus]>,
) -> Result<SolveOut, SimplexError> {
    let m = inst.m;
    let mut sim = Simplex::new(inst, start);

    // Initial install. A warm start lists recorded-Basic structurals ahead
    // of the (defaulted-Basic) slacks so the carried-over basis wins rows
    // before the repair slacks claim them; the cold path keeps the
    // slacks-first order, which factors as the identity.
    let initial = if start.is_some() {
        let mut c: Vec<usize> = (0..inst.n_struct)
            .filter(|&j| sim.status[j] == VarStatus::Basic)
            .collect();
        c.extend((inst.n_struct..sim.n).filter(|&j| sim.status[j] == VarStatus::Basic));
        c
    } else {
        sim.basic_candidates()
    };
    if sim.install_basis(&initial).is_err() {
        // Degenerate fallback: restart from the all-slack identity basis,
        // which always factors.
        for j in 0..inst.n_struct {
            sim.status[j] = inst.normalize(j, VarStatus::AtLower);
        }
        for j in inst.n_struct..sim.n {
            sim.status[j] = VarStatus::Basic;
        }
        sim.install_basis(&sim.basic_candidates())
            .expect("all-slack basis is the identity");
    }
    sim.compute_xb();

    let mut out = SolveOut {
        x: Vec::new(),
        objective: 0.0,
        statuses: Vec::new(),
        phase1_pivots: 0,
        phase2_pivots: 0,
        bound_flips: 0,
        refactorizations: 0,
    };

    let mut cb = vec![0.0; m];
    let mut w = vec![0.0; m];

    for iter in 0..MAX_ITERATIONS {
        // Phase detection: any basic variable outside its bounds puts us in
        // (composite) phase 1, minimizing total violation; otherwise the
        // basic costs drive ordinary phase 2. Re-derived every iteration so
        // the loop handles arbitrary warm bases without a separate driver.
        let mut phase1 = false;
        for (i, ci) in cb.iter_mut().enumerate() {
            let b = sim.basis[i];
            let v = sim.xb[i];
            if v < inst.lower[b] - EPS_FEAS {
                *ci = -1.0;
                phase1 = true;
            } else if v > inst.upper[b] + EPS_FEAS {
                *ci = 1.0;
                phase1 = true;
            } else {
                *ci = 0.0;
            }
        }
        if !phase1 {
            for (i, ci) in cb.iter_mut().enumerate() {
                *ci = inst.cost[sim.basis[i]];
            }
        }

        // Duals: y = B⁻ᵀ c_B.
        let mut y = cb.clone();
        sim.btran(&mut y);

        // Pricing. Reduced cost d_j = c_j − y·a_j (phase-1 structural costs
        // are zero). σ is the improving direction for the entering column.
        let bland = iter >= DANTZIG_BUDGET;
        let mut entering: Option<(usize, f64)> = None; // (column, σ)
        let mut best_score = EPS_DUAL;
        for j in 0..sim.n {
            if sim.status[j] == VarStatus::Basic || inst.lower[j] == inst.upper[j] {
                continue;
            }
            let c = if phase1 { 0.0 } else { inst.cost[j] };
            let d = c - inst.cols.col_dot(j, &y);
            let free = sim.status[j] == VarStatus::AtLower && !inst.lower[j].is_finite();
            let cand: Option<(f64, f64)> = match sim.status[j] {
                VarStatus::AtLower if free => {
                    if d < -EPS_DUAL {
                        Some((1.0, -d))
                    } else if d > EPS_DUAL {
                        Some((-1.0, d))
                    } else {
                        None
                    }
                }
                VarStatus::AtLower if d < -EPS_DUAL => Some((1.0, -d)),
                VarStatus::AtUpper if d > EPS_DUAL => Some((-1.0, d)),
                _ => None,
            };
            if let Some((sigma, score)) = cand {
                if bland {
                    entering = Some((j, sigma));
                    break;
                }
                if score > best_score {
                    best_score = score;
                    entering = Some((j, sigma));
                }
            }
        }

        let Some((e, sigma)) = entering else {
            if phase1 {
                // No improving direction for the infeasibility sum: the
                // model has no feasible point.
                return Err(SimplexError::Infeasible);
            }
            // Optimal.
            return Ok(finish(inst, sim, out));
        };

        // FTRAN the entering column: w = B⁻¹ a_e.
        w.fill(0.0);
        inst.cols.scatter(e, &mut w);
        sim.ftran(&mut w);

        // Ratio test. The entering variable moves by t·σ from its rest
        // value; basic variable i moves by δ_i·t with δ_i = −σ·w_i.
        //
        // Feasible basic rows block at the bound they would cross. In phase
        // 1, a row already *violating* a bound blocks when it reaches the
        // violated bound (it becomes feasible there); rows moving deeper
        // into violation never block — the composite objective already
        // accounts for them. The entering variable's own span competes as a
        // bound flip.
        let own_span = inst.upper[e] - inst.lower[e];
        let mut t_best = if own_span.is_finite() {
            own_span
        } else {
            f64::INFINITY
        };
        // (row, pivot magnitude, leaves at upper bound)
        let mut leave: Option<(usize, f64, bool)> = None;
        for (i, &wi) in w.iter().enumerate() {
            if wi.abs() <= EPS_RATIO {
                continue;
            }
            let delta = -sigma * wi;
            let b = sim.basis[i];
            let v = sim.xb[i];
            let (l, u) = (inst.lower[b], inst.upper[b]);
            let hit: Option<(f64, bool)> = if v < l - EPS_FEAS {
                (delta > 0.0).then(|| ((l - v) / delta, false))
            } else if v > u + EPS_FEAS {
                (delta < 0.0).then(|| ((u - v) / delta, true))
            } else if delta > 0.0 && u.is_finite() {
                Some(((u - v) / delta, true))
            } else if delta < 0.0 && l.is_finite() {
                Some(((l - v) / delta, false))
            } else {
                None
            };
            let Some((ratio, to_upper)) = hit else {
                continue;
            };
            let ratio = ratio.max(0.0);
            let better = if ratio < t_best - EPS_RATIO {
                true
            } else if ratio > t_best + EPS_RATIO {
                false
            } else {
                match leave {
                    // Tied with the entering column's own bound flip: only a
                    // strictly smaller ratio displaces the flip.
                    None => ratio < t_best,
                    // Tie window between rows: Bland wants the smallest
                    // basic column for termination; otherwise prefer the
                    // biggest pivot for stability, then the smaller column
                    // for determinism.
                    Some((lr, labs, _)) => {
                        let lb = sim.basis[lr];
                        if bland {
                            b < lb
                        } else {
                            wi.abs() > labs + EPS_ZERO || (wi.abs() > labs - EPS_ZERO && b < lb)
                        }
                    }
                }
            };
            if better {
                t_best = t_best.min(ratio);
                leave = Some((i, wi.abs(), to_upper));
            }
        }

        if t_best.is_infinite() {
            // Phase 1 always has a blocking row for an improving direction,
            // so an unblocked ray is genuine unboundedness.
            return Err(if phase1 {
                SimplexError::IterationLimit
            } else {
                SimplexError::Unbounded
            });
        }

        match leave {
            None => {
                // Bound flip: the entering column crosses its whole span
                // without any basic variable blocking. No basis change.
                let t = own_span;
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        sim.xb[i] -= sigma * t * wi;
                    }
                }
                sim.status[e] = if sigma > 0.0 {
                    VarStatus::AtUpper
                } else {
                    VarStatus::AtLower
                };
                out.bound_flips += 1;
            }
            Some((r, _, to_upper)) => {
                let t = t_best;
                let xe = sim.nb_value(e) + sigma * t;
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        sim.xb[i] -= sigma * t * wi;
                    }
                }
                let lb = sim.basis[r];
                sim.status[lb] = if to_upper {
                    VarStatus::AtUpper
                } else {
                    VarStatus::AtLower
                };
                sim.pos_of[lb] = usize::MAX;
                sim.status[e] = VarStatus::Basic;
                sim.basis[r] = e;
                sim.pos_of[e] = r;
                sim.xb[r] = xe;
                sim.etas.push(Eta {
                    pos: r,
                    diag: w[r],
                    others: w
                        .iter()
                        .enumerate()
                        .filter(|&(i, &wi)| i != r && wi.abs() > EPS_ZERO)
                        .map(|(i, &wi)| (i, wi))
                        .collect(),
                });
                if phase1 {
                    out.phase1_pivots += 1;
                } else {
                    out.phase2_pivots += 1;
                }
                if sim.etas.len() - sim.base_etas >= REFACTOR_EVERY {
                    if sim.install_basis(&sim.basic_candidates()).is_err() {
                        return Err(SimplexError::IterationLimit);
                    }
                    sim.compute_xb();
                }
            }
        }
    }

    Err(SimplexError::IterationLimit)
}

fn finish(inst: &Instance, sim: Simplex<'_>, mut out: SolveOut) -> SolveOut {
    let mut x = vec![0.0; inst.n_struct];
    for (j, xv) in x.iter_mut().enumerate() {
        *xv = if sim.status[j] == VarStatus::Basic {
            sim.xb[sim.pos_of[j]]
        } else {
            sim.nb_value(j)
        };
    }
    out.objective = x.iter().zip(inst.cost.iter()).map(|(xv, c)| xv * c).sum();
    out.x = x;
    out.statuses = sim.status;
    out.refactorizations = sim.refactorizations;
    out
}
