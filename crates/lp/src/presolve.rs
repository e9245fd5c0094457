//! Presolve: shrink a [`Model`] before the simplex ever sees it.
//!
//! SherLock's encoding produces highly redundant LPs: the resolve loop pins
//! variables with singleton `x = 1` rows, repeated windows duplicate hinge
//! rows verbatim, and excluded candidates leave behind rows whose only
//! remaining job is a bound. Three reductions run to a fixpoint:
//!
//! 1. **Singleton rows become bounds** — `c·x {≤,≥,=} b` tightens `x`'s
//!    domain and drops the row (so the resolve loop's `x = 1` fixings cost
//!    nothing at all downstream).
//! 2. **Fixed-variable elimination** — a variable whose domain collapsed to
//!    a point is substituted into every row and the objective.
//! 3. **Duplicate-row dedup** — rows with identical coefficient patterns
//!    keep only the tightest right-hand side (conflicting duplicate
//!    equalities prove infeasibility outright).
//!
//! Empty rows are checked and dropped; crossed bounds report
//! [`LpError::Infeasible`] without running the simplex. The reductions are
//! exact: the reduced LP has the same optimal objective as the original, and
//! any optimum of it extends to one of the original by replaying the fixed
//! values. [`Model::presolved`] exposes the reduced model; `run` is the
//! internal entry point that also keeps the reconstruction mapping.

use crate::basis::{fold, FpMap, SIG_SEED};
use crate::model::{LpError, Model};
use crate::simplex::Relation;

/// Infeasibility declarations match the dense oracle's phase-1 tolerance so
/// differential tests agree on borderline models.
const FEAS_TOL: f64 = 1e-7;
/// Domains narrower than this collapse to a fixed value.
const FIX_TOL: f64 = 1e-12;

/// One canonicalized row: merged sorted coefficients over *original*
/// variable indices (remapped at the end), constant term folded into `rhs`.
#[derive(Clone, Debug)]
pub(crate) struct CanonRow {
    pub coeffs: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// The reduced problem plus everything needed to map a reduced solution
/// back onto the original variables.
#[derive(Clone, Debug)]
pub(crate) struct Presolved {
    /// Original index of each reduced variable.
    pub orig: Vec<usize>,
    pub lower: Vec<f64>,
    pub upper: Vec<f64>,
    /// Surviving rows over reduced indices.
    pub rows: Vec<CanonRow>,
    /// Reduced objective coefficients.
    pub cost: Vec<f64>,
    /// Objective constant (original constant + fixed-variable terms).
    pub obj_offset: f64,
    /// Per original variable: `Some(v)` if eliminated at value `v`.
    pub fixed: Vec<Option<f64>>,
    /// Rows removed (singleton, empty, duplicate).
    pub rows_dropped: usize,
    /// Variables eliminated.
    pub vars_fixed: usize,
}

fn empty_row_ok(relation: Relation, rhs: f64) -> bool {
    match relation {
        Relation::Le => rhs >= -FEAS_TOL,
        Relation::Ge => rhs <= FEAS_TOL,
        Relation::Eq => rhs.abs() <= FEAS_TOL,
    }
}

pub(crate) fn run(model: &Model) -> Result<Presolved, LpError> {
    let n = model.vars.len();
    let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
    let mut upper: Vec<f64> = model.vars.iter().map(|v| v.hi).collect();
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut rows_dropped = 0usize;
    let mut vars_fixed = 0usize;

    // Canonicalize: merged sorted coefficients, constants folded into rhs.
    let mut rows: Vec<Option<CanonRow>> = model
        .rows
        .iter()
        .map(|(expr, rel, rhs)| {
            Some(CanonRow {
                coeffs: expr.index_coefficients(),
                relation: *rel,
                rhs: rhs - expr.constant_term(),
            })
        })
        .collect();

    // Variables born fixed (lo == hi).
    for j in 0..n {
        if upper[j] - lower[j] <= FIX_TOL {
            fixed[j] = Some(lower[j]);
            vars_fixed += 1;
        }
    }

    // Fixpoint: substitution can empty a row, emptying can expose a
    // singleton, a singleton can fix a variable. Each pass either removes a
    // row or fixes a variable, so the loop is bounded by rows + vars.
    loop {
        let mut changed = false;
        for slot in rows.iter_mut() {
            let Some(row) = slot else { continue };

            // Substitute fixed variables.
            if row.coeffs.iter().any(|&(j, _)| fixed[j].is_some()) {
                let mut shift = 0.0;
                row.coeffs.retain(|&(j, c)| {
                    if let Some(v) = fixed[j] {
                        shift += c * v;
                        false
                    } else {
                        true
                    }
                });
                row.rhs -= shift;
            }

            if row.coeffs.is_empty() {
                if !empty_row_ok(row.relation, row.rhs) {
                    return Err(LpError::Infeasible);
                }
                *slot = None;
                rows_dropped += 1;
                changed = true;
                continue;
            }

            if row.coeffs.len() == 1 {
                let (j, c) = row.coeffs[0];
                let bound = row.rhs / c;
                let tightens_upper = match (row.relation, c > 0.0) {
                    (Relation::Le, true) | (Relation::Ge, false) => (true, false),
                    (Relation::Ge, true) | (Relation::Le, false) => (false, true),
                    (Relation::Eq, _) => (true, true),
                }; // (tighten upper, tighten lower)
                let (up, lo) = tightens_upper;
                if up && bound < upper[j] {
                    upper[j] = bound;
                }
                if lo && bound > lower[j] {
                    lower[j] = bound;
                }
                if lower[j] > upper[j] + FEAS_TOL {
                    return Err(LpError::Infeasible);
                }
                // A tolerance-crossed domain is still a point domain.
                if lower[j] > upper[j] {
                    upper[j] = lower[j];
                }
                *slot = None;
                rows_dropped += 1;
                changed = true;
            }
        }

        for j in 0..n {
            if fixed[j].is_none() && upper[j] - lower[j] <= FIX_TOL {
                fixed[j] = Some(lower[j]);
                vars_fixed += 1;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // Duplicate-row dedup: identical coefficient patterns keep one row with
    // the tightest rhs. Keyed on exact bit patterns — SherLock's duplicates
    // are verbatim copies of the same window encoding. Rows are hashed in
    // place; rows whose hashes match are compared exactly, and distinct rows
    // sharing a hash chain through `next_same`.
    let mut first_of: FpMap<usize> = FpMap::default();
    let mut next_same = vec![usize::MAX; rows.len()];
    for i in 0..rows.len() {
        let Some(row) = &rows[i] else { continue };
        let mut h = fold(SIG_SEED, row.relation as u64);
        for &(j, c) in &row.coeffs {
            h = fold(fold(h, j as u64), c.to_bits());
        }
        let mut at = match first_of.entry(h) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
                continue;
            }
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
        };
        let same_pattern = |other: &CanonRow| {
            other.relation == row.relation
                && other.coeffs.len() == row.coeffs.len()
                && other
                    .coeffs
                    .iter()
                    .zip(&row.coeffs)
                    .all(|(&(j1, c1), &(j2, c2))| j1 == j2 && c1.to_bits() == c2.to_bits())
        };
        let first = loop {
            if same_pattern(rows[at].as_ref().expect("kept row")) {
                break Some(at);
            }
            if next_same[at] == usize::MAX {
                next_same[at] = i;
                break None;
            }
            at = next_same[at];
        };
        let Some(first) = first else { continue };
        let rhs = row.rhs;
        let kept_row = rows[first].as_mut().expect("kept row");
        match kept_row.relation {
            Relation::Le => kept_row.rhs = kept_row.rhs.min(rhs),
            Relation::Ge => kept_row.rhs = kept_row.rhs.max(rhs),
            Relation::Eq => {
                if (kept_row.rhs - rhs).abs() > FEAS_TOL {
                    return Err(LpError::Infeasible);
                }
            }
        }
        rows[i] = None;
        rows_dropped += 1;
    }

    // Remap to reduced indices.
    let kept: Vec<usize> = (0..n).filter(|&j| fixed[j].is_none()).collect();
    let mut new_idx = vec![usize::MAX; n];
    for (new, &old) in kept.iter().enumerate() {
        new_idx[old] = new;
    }

    let out_rows: Vec<CanonRow> = rows
        .into_iter()
        .flatten()
        .map(|mut r| {
            for (j, _) in &mut r.coeffs {
                *j = new_idx[*j];
            }
            r
        })
        .collect();

    let mut cost = vec![0.0; kept.len()];
    let mut obj_offset = model.objective.constant_term();
    for (v, c) in model.objective.coefficients() {
        match fixed[v.0] {
            Some(val) => obj_offset += c * val,
            None => cost[new_idx[v.0]] += c,
        }
    }

    Ok(Presolved {
        lower: kept.iter().map(|&j| lower[j]).collect(),
        upper: kept.iter().map(|&j| upper[j]).collect(),
        orig: kept,
        rows: out_rows,
        cost,
        obj_offset,
        fixed,
        rows_dropped,
        vars_fixed,
    })
}
