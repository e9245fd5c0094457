//! Warm-start identity does not depend on variable index.
//!
//! A [`Basis`] keys structural statuses by name fingerprint and slack
//! statuses by row signature, and hinge/abs auxiliaries are named by a
//! content tag. None of the three may involve a variable's position: a model
//! rebuilt with an unrelated variable inserted first must resume from the
//! first model's basis at its optimum, with zero pivots.
//!
//! One `#[test]` only: the pivot accounting reads the process-global
//! `lp.pivots` histogram.

use sherlock_lp::{Basis, LinExpr, Model, VarId, VarStatus};

/// A SherLock-shaped model: three candidates, two windows as hinges, a
/// pairing term as an abs, and a two-variable cap row added twice. With
/// `unrelated`, a variable no row mentions is added first, which shifts
/// every other index by one. Returns every variable except that one.
fn build(unrelated: bool) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    if unrelated {
        let z = m.add_var("unrelated", 0.0, 1.0);
        m.minimize(LinExpr::term(z, 0.5));
    }
    let s = m.add_var("s^rel", 0.0, 1.0);
    let u = m.add_var("u^rel", 0.0, 1.0);
    let r = m.add_var("r^acq", 0.0, 1.0);
    let mut vars = vec![s, u, r];
    for w in [u, r] {
        let h = LinExpr::constant(1.0) - LinExpr::from(s) - LinExpr::from(w);
        vars.push(m.add_hinge(h, 2.0));
    }
    vars.push(m.add_abs(LinExpr::from(r) - LinExpr::from(s), 0.2));
    for _ in 0..2 {
        m.constrain_le(LinExpr::from(s) + LinExpr::from(u), 1.0);
    }
    for (v, c) in [(s, 0.25), (u, 0.3), (r, 0.2)] {
        m.minimize(LinExpr::term(v, c));
    }
    (m, vars)
}

#[test]
fn warm_basis_survives_an_index_shift_with_zero_pivots() {
    let pivots = sherlock_obs::histogram("lp.pivots");
    let hits = sherlock_obs::counter("lp.warm_hits");

    let (first, first_vars) = build(false);
    let mut basis = Basis::new();
    let p0 = pivots.sum();
    let cold = first.solve_warm(&mut basis).unwrap();
    assert!(pivots.sum() > p0, "the first solve must pivot");
    assert_eq!(basis.status("s^rel"), Some(VarStatus::Basic));
    assert_eq!(basis.status("missing"), None);

    let (shifted, shifted_vars) = build(true);
    let names = |m: &Model, vars: &[VarId]| -> Vec<String> {
        vars.iter().map(|&v| m.var_name(v).to_string()).collect()
    };
    // Aux names are content tags, so they match across the shift.
    assert_eq!(names(&first, &first_vars), names(&shifted, &shifted_vars));

    let (p1, h1) = (pivots.sum(), hits.get());
    let warm = shifted.solve_warm(&mut basis).unwrap();
    assert_eq!(
        hits.get() - h1,
        1,
        "the basis must map onto the rebuilt model"
    );
    assert_eq!(pivots.sum() - p1, 0, "the rebuilt model must start optimal");
    for (&a, &b) in first_vars.iter().zip(&shifted_vars) {
        assert_eq!(cold.value(a), warm.value(b), "{}", first.var_name(a));
    }
    assert_eq!(basis.status("s^rel"), Some(VarStatus::Basic));
    assert_eq!(basis.status("unrelated"), Some(VarStatus::AtLower));
}
