//! Simplex solvers and their shared problem vocabulary.
//!
//! Production solving goes through the sparse revised simplex (the private
//! `revised` module, reached via [`crate::Model::solve`]); the dense
//! two-phase tableau that seeded this repo lives on in [`dense`] as a
//! slow-but-simple *reference oracle* for differential testing. The types
//! here — [`Problem`], [`Row`], [`Relation`], [`SimplexError`] — are the
//! standard-form vocabulary both solvers (and the tests comparing them)
//! share.

pub mod dense;

/// Relation of one constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `Σ aⱼxⱼ ≤ b`
    Le,
    /// `Σ aⱼxⱼ ≥ b`
    Ge,
    /// `Σ aⱼxⱼ = b`
    Eq,
}

/// One constraint: sparse coefficients over the structural variables.
#[derive(Clone, Debug)]
pub struct Row {
    /// `(column, coefficient)` pairs; columns may repeat (they are summed).
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A standard-form problem over `num_vars` nonnegative variables.
#[derive(Clone, Debug, Default)]
pub struct Problem {
    /// Number of structural variables (all constrained `x ≥ 0`).
    pub num_vars: usize,
    /// Constraint rows.
    pub rows: Vec<Row>,
    /// Objective coefficients (minimized); missing entries are zero.
    pub objective: Vec<f64>,
}

/// Why a solver could not return an optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimplexError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
    /// The pivot loop exceeded its iteration budget (numerical trouble).
    IterationLimit,
}

impl std::fmt::Display for SimplexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimplexError::Infeasible => write!(f, "problem is infeasible"),
            SimplexError::Unbounded => write!(f, "problem is unbounded"),
            SimplexError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for SimplexError {}
