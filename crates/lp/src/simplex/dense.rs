//! Dense two-phase primal simplex — the **test-only reference oracle**.
//!
//! Solves `minimize c·x subject to Σ aᵢⱼ·xⱼ {≤,≥,=} bᵢ, x ≥ 0`. Phase 1
//! minimizes the sum of artificial variables to find a basic feasible
//! solution; phase 2 optimizes the real objective. Entering columns are
//! chosen by Dantzig's rule, switching to Bland's rule after a fixed number
//! of iterations to guarantee termination under degeneracy.
//!
//! This was the production solver until the sparse revised simplex
//! (reached via [`crate::Model::solve`]) replaced it; it is kept in-tree, uninstrumented and
//! unchanged, so every sparse-solver change stays differentially checkable
//! against an independent implementation (`tests/differential.rs`,
//! `tests/proptest_lp.rs`). Do not optimize it — its value is simplicity.

use super::{Problem, Relation, SimplexError};

const EPS: f64 = 1e-9;
/// Iterations of Dantzig pivoting before switching to Bland's rule.
const DANTZIG_BUDGET: usize = 5_000;
/// Hard iteration cap.
const MAX_ITERATIONS: usize = 200_000;

/// Solves the problem, returning the optimal structural-variable assignment
/// and objective value.
///
/// # Errors
///
/// Returns [`SimplexError::Infeasible`], [`SimplexError::Unbounded`], or
/// [`SimplexError::IterationLimit`].
pub fn solve(problem: &Problem) -> Result<(Vec<f64>, f64), SimplexError> {
    let mut rec = SolveRec::default();
    Tableau::build(problem).solve(problem, &mut rec)
}

/// Per-solve flight-recorder tallies.
#[derive(Debug, Default)]
struct SolveRec {
    /// Pivots spent minimizing the artificial objective.
    phase1_iters: u64,
    /// Pivots spent optimizing the real objective.
    phase2_iters: u64,
    /// Pivots spent evicting residual basic artificials between phases.
    evict_pivots: u64,
}

struct Tableau {
    /// `rows × (cols + 1)`; the extra column is the RHS.
    data: Vec<Vec<f64>>,
    /// Objective row (reduced costs), length `cols + 1`; last entry is the
    /// negated objective value.
    obj: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    cols: usize,
    n_struct: usize,
    /// Column index where artificial variables start, `cols` if none.
    art_start: usize,
}

impl Tableau {
    fn build(p: &Problem) -> Tableau {
        let m = p.rows.len();
        let n = p.num_vars;

        // Count slack/surplus columns and artificial columns.
        let mut n_slack = 0;
        for row in &p.rows {
            if row.relation != Relation::Eq {
                n_slack += 1;
            }
        }
        // Artificials: Ge and Eq rows always; Le rows never (slack serves).
        // Rows are normalized to b >= 0 first, which can flip the relation.
        let mut data: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut relations = Vec::with_capacity(m);
        for row in &p.rows {
            let mut dense = vec![0.0; n];
            for &(j, c) in &row.coeffs {
                assert!(j < n, "coefficient column out of range");
                dense[j] += c;
            }
            let mut rel = row.relation;
            let mut rhs = row.rhs;
            if rhs < 0.0 {
                for v in &mut dense {
                    *v = -*v;
                }
                rhs = -rhs;
                rel = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            dense.push(rhs);
            data.push(dense);
            relations.push(rel);
        }

        let n_art = relations.iter().filter(|r| **r != Relation::Le).count();
        let cols = n + n_slack + n_art;
        let art_start = n + n_slack;

        // Widen rows to full column count, placing slack/artificial entries.
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n;
        let mut art_idx = art_start;
        for (i, rel) in relations.iter().enumerate() {
            let rhs = data[i].pop().expect("rhs present");
            data[i].resize(cols, 0.0);
            match rel {
                Relation::Le => {
                    data[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    data[i][slack_idx] = -1.0;
                    slack_idx += 1;
                    data[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    data[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
            }
            data[i].push(rhs);
        }

        Tableau {
            data,
            obj: vec![0.0; cols + 1],
            basis,
            cols,
            n_struct: n,
            art_start,
        }
    }

    fn solve(mut self, p: &Problem, rec: &mut SolveRec) -> Result<(Vec<f64>, f64), SimplexError> {
        // Phase 1: minimize the sum of artificials.
        if self.art_start < self.cols {
            self.obj = vec![0.0; self.cols + 1];
            for j in self.art_start..self.cols {
                self.obj[j] = 1.0;
            }
            self.price_out_basis();
            self.iterate(self.cols, &mut rec.phase1_iters)?;
            let phase1 = -self.obj[self.cols];
            if phase1 > 1e-7 {
                return Err(SimplexError::Infeasible);
            }
            rec.evict_pivots += self.evict_artificials();
        }

        // Phase 2: the real objective, excluding artificial columns.
        self.obj = vec![0.0; self.cols + 1];
        for (j, &c) in p.objective.iter().enumerate() {
            if j < self.n_struct {
                self.obj[j] = c;
            }
        }
        self.price_out_basis();
        self.iterate(self.art_start, &mut rec.phase2_iters)?;

        let mut x = vec![0.0; self.n_struct];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                x[b] = self.data[i][self.cols];
            }
        }
        let mut obj = 0.0;
        for (j, &c) in p.objective.iter().enumerate() {
            if j < self.n_struct {
                obj += c * x[j];
            }
        }
        Ok((x, obj))
    }

    /// Subtracts multiples of basic rows from the objective row so that all
    /// basic columns have zero reduced cost.
    fn price_out_basis(&mut self) {
        for (i, &b) in self.basis.iter().enumerate() {
            let c = self.obj[b];
            if c != 0.0 {
                for j in 0..=self.cols {
                    self.obj[j] -= c * self.data[i][j];
                }
            }
        }
    }

    /// Pivots until no reduced cost is negative, considering only columns
    /// `< col_limit` as entering candidates (used to exclude artificials in
    /// phase 2). Each performed pivot bumps `*pivots` (including on the
    /// error paths, so the flight recorder sees work spent before failure).
    fn iterate(&mut self, col_limit: usize, pivots: &mut u64) -> Result<(), SimplexError> {
        for iter in 0..MAX_ITERATIONS {
            let bland = iter >= DANTZIG_BUDGET;
            let entering = if bland {
                (0..col_limit).find(|&j| self.obj[j] < -EPS)
            } else {
                let mut best = None;
                let mut best_c = -EPS;
                for j in 0..col_limit {
                    if self.obj[j] < best_c {
                        best_c = self.obj[j];
                        best = Some(j);
                    }
                }
                best
            };
            let Some(e) = entering else {
                return Ok(());
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.data.len() {
                let a = self.data[i][e];
                if a > EPS {
                    let ratio = self.data[i][self.cols] / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_none_or(|l| {
                                if bland {
                                    self.basis[i] < self.basis[l]
                                } else {
                                    // Prefer kicking artificials out, then
                                    // lowest basis index for determinism.
                                    (self.basis[i] >= self.art_start, self.basis[i])
                                        > (self.basis[l] >= self.art_start, self.basis[l])
                                }
                            }));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(l) = leave else {
                return Err(SimplexError::Unbounded);
            };
            *pivots += 1;
            self.pivot(l, e);
        }
        Err(SimplexError::IterationLimit)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.data[row][col];
        debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
        for v in &mut self.data[row] {
            *v /= p;
        }
        let pivot_row = self.data[row].clone();
        for (i, r) in self.data.iter_mut().enumerate() {
            if i != row {
                let f = r[col];
                if f != 0.0 {
                    for (v, pv) in r.iter_mut().zip(&pivot_row) {
                        *v -= f * pv;
                    }
                }
            }
        }
        let f = self.obj[col];
        if f != 0.0 {
            for (v, pv) in self.obj.iter_mut().zip(&pivot_row) {
                *v -= f * pv;
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivots basic artificials out of the basis; rows where
    /// that is impossible are redundant and get zeroed (their artificial stays
    /// basic at value 0 and artificials never re-enter). Returns the number
    /// of eviction pivots performed.
    fn evict_artificials(&mut self) -> u64 {
        let mut pivots = 0;
        for i in 0..self.data.len() {
            if self.basis[i] >= self.art_start {
                let col = (0..self.art_start).find(|&j| self.data[i][j].abs() > EPS);
                if let Some(j) = col {
                    self.pivot(i, j);
                    pivots += 1;
                }
            }
        }
        pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{Problem, Relation, Row};

    fn row(coeffs: &[(usize, f64)], relation: Relation, rhs: f64) -> Row {
        Row {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        }
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        let p = Problem {
            num_vars: 2,
            rows: vec![
                row(&[(0, 1.0)], Relation::Le, 4.0),
                row(&[(1, 2.0)], Relation::Le, 12.0),
                row(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0),
            ],
            objective: vec![-3.0, -5.0],
        };
        let (x, obj) = solve(&p).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((x[1] - 6.0).abs() < 1e-7);
        assert!((obj + 36.0).abs() < 1e-7);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 → intersection (1.6, 1.2).
        let p = Problem {
            num_vars: 2,
            rows: vec![
                row(&[(0, 1.0), (1, 2.0)], Relation::Ge, 4.0),
                row(&[(0, 3.0), (1, 1.0)], Relation::Ge, 6.0),
            ],
            objective: vec![1.0, 1.0],
        };
        let (x, obj) = solve(&p).unwrap();
        assert!((x[0] - 1.6).abs() < 1e-6);
        assert!((x[1] - 1.2).abs() < 1e-6);
        assert!((obj - 2.8).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 → (6, 4), 24.
        let p = Problem {
            num_vars: 2,
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0),
                row(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0),
            ],
            objective: vec![2.0, 3.0],
        };
        let (x, obj) = solve(&p).unwrap();
        assert!((x[0] - 6.0).abs() < 1e-7);
        assert!((x[1] - 4.0).abs() < 1e-7);
        assert!((obj - 24.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let p = Problem {
            num_vars: 1,
            rows: vec![
                row(&[(0, 1.0)], Relation::Ge, 5.0),
                row(&[(0, 1.0)], Relation::Le, 3.0),
            ],
            objective: vec![1.0],
        };
        assert_eq!(solve(&p).unwrap_err(), SimplexError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = Problem {
            num_vars: 1,
            rows: vec![row(&[(0, 1.0)], Relation::Ge, 1.0)],
            objective: vec![-1.0],
        };
        assert_eq!(solve(&p).unwrap_err(), SimplexError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2 with x,y >= 0 ⇒ y >= x + 2; min y → y = 2.
        let p = Problem {
            num_vars: 2,
            rows: vec![row(&[(0, 1.0), (1, -1.0)], Relation::Le, -2.0)],
            objective: vec![0.0, 1.0],
        };
        let (x, obj) = solve(&p).unwrap();
        assert!((x[1] - 2.0).abs() < 1e-7);
        assert!((obj - 2.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equality_rows_are_harmless() {
        let p = Problem {
            num_vars: 2,
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0),
                row(&[(0, 2.0), (1, 2.0)], Relation::Eq, 8.0),
            ],
            objective: vec![1.0, 0.0],
        };
        let (x, obj) = solve(&p).unwrap();
        assert!(obj.abs() < 1e-7);
        assert!((x[1] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let p = Problem {
            num_vars: 2,
            rows: vec![
                row(&[(0, 1.0)], Relation::Le, 1.0),
                row(&[(1, 1.0)], Relation::Le, 1.0),
                row(&[(0, 1.0), (1, 1.0)], Relation::Le, 1.0),
                row(&[(0, 1.0), (1, -1.0)], Relation::Le, 0.0),
            ],
            objective: vec![-1.0, -1.0],
        };
        let (_, obj) = solve(&p).unwrap();
        assert!((obj + 1.0).abs() < 1e-7);
    }

    #[test]
    fn zero_rows_and_empty_objective() {
        let p = Problem {
            num_vars: 3,
            rows: vec![],
            objective: vec![],
        };
        let (x, obj) = solve(&p).unwrap();
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
        assert_eq!(obj, 0.0);
    }

    #[test]
    fn repeated_columns_are_summed() {
        // (x + x) <= 4 ⇒ x <= 2; max x.
        let p = Problem {
            num_vars: 1,
            rows: vec![row(&[(0, 1.0), (0, 1.0)], Relation::Le, 4.0)],
            objective: vec![-1.0],
        };
        let (x, _) = solve(&p).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-7);
    }
}
