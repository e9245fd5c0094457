//! The Solver: SherLock's LP encoding of synchronization properties and
//! hypotheses (paper §4.2).
//!
//! Every candidate operation gets up to two `[0, 1]` variables — its acquire
//! probability and its release probability. Properties become hard
//! constraints; hypotheses become objective terms combined per Eq. 8:
//!
//! ```text
//! Σ_w (rel(w) + acq(w))
//!   + λ·[ Σ_c pair_c(c) + Σ_f pair_f(f) + Σ_v reg(v) + Σ_v rare(v) + Σ_m var(m) ]
//! ```
//!
//! λ trades the Mostly-Protected hypothesis against all the others.

use std::collections::{BTreeMap, BTreeSet};

use sherlock_lp::{Basis, LinExpr, LpError, Model, VarId};
use sherlock_trace::durations::DurationStats;
use sherlock_trace::{IdMap, MethodKind, OpId, OpKind, OpRef};

use crate::config::SherLockConfig;
use crate::observations::{Observations, WindowKey};
use crate::report::{InferenceReport, InferredOp, Role};

/// Roles an operation may hold under the Read-Acquire & Write-Release
/// property (paper §2 / Eq. 1); with the property ablated every operation may
/// hold both.
fn allowed_roles(op: &OpRef, enforce: bool) -> (bool, bool) {
    if !enforce {
        (true, true)
    } else {
        (op.can_acquire(), op.can_release())
    }
}

/// Probabilities are snapped to a 1e-9 grid before any threshold or
/// tie-break comparison. The warm and cold solve paths may walk different
/// pivot sequences to the same optimum, differing only in float noise far
/// below the solver's 1e-7 tolerances; snapping keeps the resolve loop's
/// `max_by` choice and the report's threshold cut identical either way
/// (the warm-start parity suite relies on this).
fn snap(p: f64) -> f64 {
    (p * 1e9).round() * 1e-9
}

/// Runs the Solver over all accumulated observations (cold start).
///
/// # Errors
///
/// Propagates [`LpError`] from the simplex solver (infeasibility cannot occur
/// with this encoding — all constraints admit the all-zero point except the
/// variable bounds — but iteration limits can).
pub fn solve(obs: &Observations, cfg: &SherLockConfig) -> Result<InferenceReport, LpError> {
    solve_impl(obs, cfg, None)
}

/// Runs the Solver warm-starting every LP (the initial solve *and* each
/// resolve round) from `basis`, leaving the final round's optimal basis in
/// the handle for the next call. See [`sherlock_lp::Model::solve_warm`].
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_warm(
    obs: &Observations,
    cfg: &SherLockConfig,
    basis: &mut Basis,
) -> Result<InferenceReport, LpError> {
    solve_impl(obs, cfg, Some(basis))
}

/// The encoded LP plus the variable handles the solve loop reads back.
#[derive(Debug, PartialEq)]
struct Encoding {
    model: Model,
    /// Variable creation order: by name, acquire before release per op.
    vars: Vec<((OpId, Role), VarId)>,
    num_windows: usize,
}

/// An operation's printed name, its dense name rank, and its resolved form.
struct Named {
    rank: u32,
    name: String,
    op: OpRef,
}

/// Resolves and names every op once. Ranks are dense over the sorted
/// names: ops sort by rank exactly as they sort by name, and equal names
/// (an App method and a Lib call site of one `Class::member`) share a rank.
fn name_ranks(ops: &[OpId]) -> IdMap<OpId, Named> {
    let mut named: Vec<(String, OpId, OpRef)> = ops
        .iter()
        .map(|&op| {
            let r = op.resolve();
            (r.to_string(), op, r)
        })
        .collect();
    named.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut rank = 0u32;
    let ranks: Vec<u32> = (0..named.len())
        .map(|i| {
            if i > 0 && named[i].0 != named[i - 1].0 {
                rank += 1;
            }
            rank
        })
        .collect();
    let mut out: IdMap<OpId, Named> = IdMap::default();
    out.reserve(named.len());
    for ((name, id, op), rank) in named.into_iter().zip(ranks) {
        out.insert(id, Named { rank, name, op });
    }
    out
}

/// Builds the Solver's LP from all accumulated observations.
fn encode(obs: &Observations, cfg: &SherLockConfig) -> Encoding {
    let filter_racy = cfg.feedback.race_removal;
    let racy = obs.racy_pairs();

    // Deduplicated windows surviving race removal. `OpId`s are interned in
    // first-seen order, which differs between a live process and one that
    // rehydrated the same session from disk, so every order that feeds the
    // model below — window row order, variable creation order, expression
    // term order, tie-breaks — is derived from resolved operation *names*
    // (the same process-stable key the warm-start basis and the
    // symmetry-breaking perturbation already use), through each name's
    // dense rank. That is what makes a replayed session's report
    // byte-identical to the original's.
    let mut windows: Vec<(&WindowKey, f64)> = obs
        .windows()
        .iter()
        .filter(|(k, _)| !(filter_racy && racy.contains(&k.pair)))
        .map(|(k, agg)| (k, agg.weight as f64))
        .collect();

    // Candidate operations, in `OpId` order.
    let mut ops: Vec<OpId> = windows
        .iter()
        .flat_map(|(k, _)| k.release.iter().chain(&k.acquire).map(|&(op, _)| op))
        .collect();
    ops.sort_unstable();
    ops.dedup();

    let named = {
        let mut all: Vec<OpId> = ops.clone();
        all.extend(windows.iter().flat_map(|(k, _)| [k.pair.0, k.pair.1]));
        all.sort_unstable();
        all.dedup();
        name_ranks(&all)
    };
    let rank = |op: OpId| named[&op].rank;
    // Candidate vecs inside a `WindowKey` are sorted by `OpId`; re-key them
    // by rank so the row order (and each row's term order) is intern-order
    // independent.
    let ranked = |cands: &[(OpId, u32)]| {
        let mut r: Vec<(u32, u32)> = cands.iter().map(|&(op, c)| (rank(op), c)).collect();
        r.sort_unstable();
        r
    };
    windows.sort_by_cached_key(|(k, _)| {
        (
            rank(k.pair.0),
            rank(k.pair.1),
            ranked(&k.release),
            ranked(&k.acquire),
        )
    });

    let mut ops_sorted: Vec<OpId> = ops.clone();
    ops_sorted.sort_by_key(|&op| rank(op));

    let mut model = Model::new();
    // Each op's (acquire, release) variables.
    let mut roles: IdMap<OpId, [Option<VarId>; 2]> = IdMap::default();
    // Variable creation order: by name, acquire before release per op.
    let mut vars: Vec<((OpId, Role), VarId)> = Vec::new();

    for &op in &ops_sorted {
        let Named { name, op: r, .. } = &named[&op];
        let (acq, rel) = allowed_roles(r, cfg.hypotheses.read_acq_write_rel);
        let a = acq.then(|| model.add_var(format!("{name}^acq"), 0.0, 1.0));
        let l = rel.then(|| model.add_var(format!("{name}^rel"), 0.0, 1.0));
        vars.extend(a.map(|v| ((op, Role::Acquire), v)));
        vars.extend(l.map(|v| ((op, Role::Release), v)));
        // A release synchronization cannot be an acquire and vice versa.
        if let (Some(a), Some(l)) = (a, l) {
            if cfg.hypotheses.read_acq_write_rel {
                model.constrain_le(LinExpr::from(a) + LinExpr::from(l), 1.0);
            }
        }
        roles.insert(op, [a, l]);
    }
    let var = |op: OpId, role: Role| {
        let [a, l] = *roles.get(&op)?;
        match role {
            Role::Acquire => a,
            Role::Release => l,
        }
    };
    // Every variable in `(OpId, Role)` order.
    let by_op = || {
        ops.iter()
            .flat_map(|op| roles[op].into_iter().flatten().map(move |v| (*op, v)))
    };

    // Single-Role: a library API serves one synchronization type —
    // begin(l)^rel + end(l)^acq ≤ 1 (paper §4.2).
    if cfg.hypotheses.single_role {
        for &op in &ops_sorted {
            if let OpRef::MethodBegin {
                kind: MethodKind::Lib,
                class,
                method,
            } = &named[&op].op
            {
                let end_op = OpId::intern(OpKind::MethodEnd(MethodKind::Lib), class, method);
                if let (Some(b_rel), Some(e_acq)) =
                    (var(op, Role::Release), var(end_op, Role::Acquire))
                {
                    let expr = LinExpr::from(b_rel) + LinExpr::from(e_acq);
                    if cfg.soft_single_role {
                        // The §5.5 extension: violations allowed but
                        // penalized, letting genuine double-role APIs
                        // (UpgradeToWriterLock) hold both ends.
                        model.add_hinge(expr - LinExpr::constant(1.0), cfg.lambda);
                    } else {
                        model.constrain_le(expr, 1.0);
                    }
                }
            }
        }
    }

    // Mostly-Protected: per window, hinge(1 − Σ candidate probabilities),
    // each candidate subtracted once regardless of its occurrence count
    // (Eq. 2).
    if cfg.hypotheses.mostly_protected {
        // One reused buffer holds each candidate list in rank order.
        let mut cands: Vec<OpId> = Vec::new();
        let fill_by_rank = |buf: &mut Vec<OpId>, src: &[(OpId, u32)]| {
            buf.clear();
            buf.extend(src.iter().map(|&(op, _)| op));
            buf.sort_by_key(|&op| rank(op));
        };
        for (k, weight) in &windows {
            let mut rel_expr = LinExpr::constant(1.0);
            fill_by_rank(&mut cands, &k.release);
            for &op in &cands {
                if obs.is_excluded(k.pair, op) {
                    continue;
                }
                if let Some(v) = var(op, Role::Release) {
                    rel_expr.add_term(v, -1.0);
                }
            }
            let mut acq_expr = LinExpr::constant(1.0);
            fill_by_rank(&mut cands, &k.acquire);
            for &op in &cands {
                if let Some(v) = var(op, Role::Acquire) {
                    acq_expr.add_term(v, -1.0);
                }
            }
            model.add_hinge(rel_expr, *weight);
            model.add_hinge(acq_expr, *weight);
        }
    }

    // Synchronizations-are-Rare: regularization (Eq. 3) plus the occurrence
    // penalty (Eq. 4).
    if cfg.hypotheses.synchronizations_are_rare {
        let mut rare_terms = LinExpr::zero();
        for (op, v) in by_op() {
            let rare = cfg.rare_coefficient * obs.avg_occurrence(op);
            rare_terms.add_term(v, cfg.lambda * (1.0 + rare));
        }
        model.minimize(rare_terms);
    }

    // Symmetry breaking: when several candidates explain the same windows at
    // identical cost, the LP optimum is a face rather than a vertex and the
    // solver can return fractional splits (e.g. 0.5/0.5 between a wrapper's
    // exit and the library call inside it). A deterministic, vanishingly
    // small per-variable perturbation steers the optimizer to one integral
    // corner of that face without affecting any non-degenerate comparison.
    // Derived from the variable *name* (its FNV-1a fingerprint mod a prime)
    // rather than its index: indices shift as candidates appear across
    // rounds, and a perturbation that moves between rounds would both
    // re-break ties differently round to round and fight the warm-start
    // path. The 1e-8 granularity stays above the solvers' 1e-9 dual
    // tolerance so every solver honors it.
    let mut eps_terms = LinExpr::zero();
    for (_, v) in by_op() {
        let h = model.var_fingerprint(v);
        eps_terms.add_term(v, 1e-8 * (1.0 + (h % 997) as f64));
    }
    model.minimize(eps_terms);

    // Acquisition-Time-Mostly-Varies: (1 − percentile(CV)) · begin(m)^acq
    // (Eq. 5), ranking every method candidate by its duration variability.
    if cfg.hypotheses.acquisition_time_varies {
        // A single duration sample cannot evidence "does not vary", so
        // methods with fewer than two observations take a neutral percentile
        // instead of ranking at the bottom.
        let mut cvs: Vec<(VarId, Option<f64>)> = Vec::new();
        for &op in &ops {
            if let (OpRef::MethodBegin { .. }, Some(v)) = (&named[&op].op, var(op, Role::Acquire)) {
                let cv = obs
                    .durations()
                    .get(&op)
                    .filter(|s| s.len() >= 2)
                    .and_then(|s| DurationStats::from_samples(s))
                    .map(|st| st.coefficient_of_variation());
                cvs.push((v, cv));
            }
        }
        let sorted: Vec<f64> = {
            let mut s: Vec<f64> = cvs.iter().filter_map(|&(_, cv)| cv).collect();
            s.sort_by(|a, b| a.partial_cmp(b).expect("CVs are finite"));
            s
        };
        let n = sorted.len();
        let mut atv_terms = LinExpr::zero();
        for (v, cv) in cvs {
            let pct = match cv {
                Some(cv) if n > 1 => sorted.partition_point(|&x| x < cv) as f64 / (n - 1) as f64,
                _ => 0.5,
            };
            atv_terms.add_term(v, cfg.lambda * (1.0 - pct.min(1.0)));
        }
        model.minimize(atv_terms);
    }

    // Mostly-Paired: field read/write pairing (Eq. 7) and per-class
    // acquire/release balance (Eq. 6).
    if cfg.hypotheses.mostly_paired {
        let mut fields: BTreeSet<(&str, &str)> = BTreeSet::new();
        for op in &ops {
            if let OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } =
                &named[op].op
            {
                fields.insert((class, field));
            }
        }
        for (class, field) in fields {
            let read = OpId::intern(OpKind::FieldRead, class, field);
            let write = OpId::intern(OpKind::FieldWrite, class, field);
            let mut expr = LinExpr::zero();
            if let Some(v) = var(read, Role::Acquire) {
                expr.add_term(v, 1.0);
            }
            if let Some(v) = var(write, Role::Release) {
                expr.add_term(v, -1.0);
            }
            if !expr.is_constant() {
                model.add_abs(expr, cfg.lambda);
            }
        }

        let mut classes: BTreeMap<&str, LinExpr> = BTreeMap::new();
        for &((op, role), v) in &vars {
            let e = classes.entry(named[&op].op.class()).or_default();
            match role {
                Role::Acquire => e.add_term(v, 1.0),
                Role::Release => e.add_term(v, -1.0),
            }
        }
        for (_, expr) in classes {
            if !expr.is_constant() {
                model.add_abs(expr, cfg.lambda);
            }
        }
    }

    Encoding {
        model,
        vars,
        num_windows: windows.len(),
    }
}

fn solve_impl(
    obs: &Observations,
    cfg: &SherLockConfig,
    mut basis: Option<&mut Basis>,
) -> Result<InferenceReport, LpError> {
    let Encoding {
        mut model,
        vars,
        num_windows,
    } = encode(obs, cfg);
    let racy = obs.racy_pairs();

    // Solve, then round: an LP optimum can sit on a degenerate face and
    // return fractional splits (e.g. 0.5 release + 0.5 acquire on one
    // library op satisfying two window families through the
    // acquire-xor-release cap). The paper reads off "variables assigned 1",
    // which presumes an integral vertex; we recover one by greedily fixing
    // the largest fractional variable to 1 and re-solving. Fixing a variable
    // never makes the system infeasible (every constraint admits it by
    // zeroing its competitors), so the loop terminates with an integral,
    // cost-minimal-up-to-greedy assignment.
    let run_solve = |model: &Model, basis: &mut Option<&mut Basis>| match basis {
        Some(b) => model.solve_warm(b),
        None => model.solve(),
    };
    let mut solution = run_solve(&model, &mut basis)?;
    let mut resolve_rounds: u64 = 0;
    for _ in 0..64 {
        // Iterate in name order so an exact tie in snapped probability fixes
        // the same variable in every process.
        let fractional = vars
            .iter()
            .map(|&(_, v)| (v, snap(solution.value(v))))
            .filter(|&(_, p)| p > 0.05 && p < cfg.threshold)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite probabilities"));
        let Some((v, _)) = fractional else { break };
        model.constrain_eq(LinExpr::from(v), 1.0);
        resolve_rounds += 1;
        solution = run_solve(&model, &mut basis)?;
    }
    sherlock_obs::histogram!("lp.resolve_rounds").observe(resolve_rounds);

    let mut probabilities = BTreeMap::new();
    let mut inferred = Vec::new();
    // `vars` is already (name, role) sorted, so `inferred` — and the
    // rendered report derived from it — is intern-order independent.
    for &((op, role), v) in &vars {
        let p = snap(solution.value(v)).clamp(0.0, 1.0);
        probabilities.insert((op, role), p);
        if p >= cfg.threshold {
            inferred.push(InferredOp {
                op,
                role,
                probability: p,
            });
        }
    }

    sherlock_obs::histogram!("lp.variables").observe(vars.len() as u64);
    sherlock_obs::histogram!("lp.windows").observe(num_windows as u64);
    if sherlock_obs::jsonl_enabled() {
        use sherlock_obs::json::Json;
        sherlock_obs::event(
            "solve.round",
            &[
                ("num_vars", Json::from(vars.len() as u64)),
                ("num_windows", Json::from(num_windows as u64)),
                ("racy_pairs", Json::from(racy.len() as u64)),
                ("resolve_rounds", Json::from(resolve_rounds)),
                ("inferred", Json::from(inferred.len() as u64)),
                ("objective", Json::Num(solution.objective)),
            ],
        );
    }
    Ok(InferenceReport {
        inferred,
        probabilities,
        objective: solution.objective,
        num_variables: vars.len(),
        num_windows,
        racy_pairs: racy.len(),
        telemetry: sherlock_obs::Snapshot::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherlock_trace::windows::{Candidate, Window};
    use sherlock_trace::{ObjectId, ThreadId, Time};

    fn window(a: OpId, b: OpId, rel: &[OpId], acq: &[OpId]) -> Window {
        Window {
            a_op: a,
            b_op: b,
            a_thread: ThreadId(0),
            b_thread: ThreadId(1),
            a_time: Time::ZERO,
            b_time: Time::from_micros(5),
            object: ObjectId(1),
            release: rel.iter().map(|&op| Candidate { op, count: 1 }).collect(),
            acquire: acq.iter().map(|&op| Candidate { op, count: 1 }).collect(),
            release_capable: true,
            acquire_capable: true,
        }
    }

    /// Today's name-keyed encoder, kept as the oracle the rank-ordered
    /// [`encode`] must reproduce exactly: it sorts windows, ops and
    /// candidates by resolved name strings, names variables from a fresh
    /// `OpRef` print, and resolves Mostly-Paired field twins through `OpRef`.
    fn encode_by_name(obs: &Observations, cfg: &SherLockConfig) -> Encoding {
        let filter_racy = cfg.feedback.race_removal;
        let racy = obs.racy_pairs();

        // Deduplicated windows surviving race removal. `OpId`s are interned in
        // first-seen order, which differs between a live process and one that
        // rehydrated the same session from disk, so every order that feeds the
        // model below — window row order, variable creation order, expression
        // term order, tie-breaks — is derived from resolved operation *names*
        // (the same process-stable key the warm-start basis and the
        // symmetry-breaking perturbation already use). That is what makes a
        // replayed session's report byte-identical to the original's.
        let mut windows: Vec<(&crate::observations::WindowKey, f64)> = obs
            .windows()
            .iter()
            .filter(|(k, _)| !(filter_racy && racy.contains(&k.pair)))
            .map(|(k, agg)| (k, agg.weight as f64))
            .collect();

        // Candidate operations.
        let mut ops: BTreeSet<OpId> = BTreeSet::new();
        for (k, _) in &windows {
            ops.extend(k.release.iter().map(|&(op, _)| op));
            ops.extend(k.acquire.iter().map(|&(op, _)| op));
        }

        let names: BTreeMap<OpId, String> = {
            let mut pair_ops: BTreeSet<OpId> = ops.clone();
            for (k, _) in &windows {
                pair_ops.insert(k.pair.0);
                pair_ops.insert(k.pair.1);
            }
            pair_ops
                .into_iter()
                .map(|op| (op, op.resolve().to_string()))
                .collect()
        };
        let name = |op: OpId| names[&op].as_str();
        // Candidate vecs inside a `WindowKey` are sorted by `OpId`; re-key them
        // by name so the row order (and each row's term order) is intern-order
        // independent.
        let window_key = |k: &crate::observations::WindowKey| {
            let mut rel: Vec<(&str, u32)> =
                k.release.iter().map(|&(op, c)| (name(op), c)).collect();
            let mut acq: Vec<(&str, u32)> =
                k.acquire.iter().map(|&(op, c)| (name(op), c)).collect();
            rel.sort_unstable();
            acq.sort_unstable();
            (name(k.pair.0), name(k.pair.1), rel, acq)
        };
        windows.sort_by(|(a, _), (b, _)| window_key(a).cmp(&window_key(b)));

        let mut ops_sorted: Vec<OpId> = ops.iter().copied().collect();
        ops_sorted.sort_by_key(|&op| name(op));

        let mut model = Model::new();
        let mut vars: BTreeMap<(OpId, Role), VarId> = BTreeMap::new();
        // Variable creation order: by name, acquire before release per op.
        let mut vars_ordered: Vec<((OpId, Role), VarId)> = Vec::new();
        let mut resolved: BTreeMap<OpId, OpRef> = BTreeMap::new();

        for &op in &ops_sorted {
            let r = op.resolve();
            let (acq, rel) = allowed_roles(&r, cfg.hypotheses.read_acq_write_rel);
            if acq {
                let v = model.add_var(format!("{r}^acq"), 0.0, 1.0);
                vars.insert((op, Role::Acquire), v);
                vars_ordered.push(((op, Role::Acquire), v));
            }
            if rel {
                let v = model.add_var(format!("{r}^rel"), 0.0, 1.0);
                vars.insert((op, Role::Release), v);
                vars_ordered.push(((op, Role::Release), v));
            }
            // A release synchronization cannot be an acquire and vice versa.
            if acq && rel && cfg.hypotheses.read_acq_write_rel {
                let a = vars[&(op, Role::Acquire)];
                let l = vars[&(op, Role::Release)];
                model.constrain_le(LinExpr::from(a) + LinExpr::from(l), 1.0);
            }
            resolved.insert(op, r);
        }

        // Single-Role: a library API serves one synchronization type —
        // begin(l)^rel + end(l)^acq ≤ 1 (paper §4.2).
        if cfg.hypotheses.single_role {
            for &op in &ops_sorted {
                let r = &resolved[&op];
                if let OpRef::MethodBegin {
                    kind: MethodKind::Lib,
                    ..
                } = r
                {
                    let end_op = r.method_counterpart().expect("begin has end").intern();
                    if let (Some(&b_rel), Some(&e_acq)) = (
                        vars.get(&(op, Role::Release)),
                        vars.get(&(end_op, Role::Acquire)),
                    ) {
                        let expr = LinExpr::from(b_rel) + LinExpr::from(e_acq);
                        if cfg.soft_single_role {
                            // The §5.5 extension: violations allowed but
                            // penalized, letting genuine double-role APIs
                            // (UpgradeToWriterLock) hold both ends.
                            model.add_hinge(expr - LinExpr::constant(1.0), cfg.lambda);
                        } else {
                            model.constrain_le(expr, 1.0);
                        }
                    }
                }
            }
        }

        // Mostly-Protected: per window, hinge(1 − Σ candidate probabilities),
        // each candidate subtracted once regardless of its occurrence count
        // (Eq. 2).
        if cfg.hypotheses.mostly_protected {
            let by_name = |cands: &[(OpId, u32)]| {
                let mut c: Vec<OpId> = cands.iter().map(|&(op, _)| op).collect();
                c.sort_by_key(|&op| name(op));
                c
            };
            for (k, weight) in &windows {
                let mut rel_expr = LinExpr::constant(1.0);
                for op in by_name(&k.release) {
                    if obs.is_excluded(k.pair, op) {
                        continue;
                    }
                    if let Some(&v) = vars.get(&(op, Role::Release)) {
                        rel_expr.add_term(v, -1.0);
                    }
                }
                let mut acq_expr = LinExpr::constant(1.0);
                for op in by_name(&k.acquire) {
                    if let Some(&v) = vars.get(&(op, Role::Acquire)) {
                        acq_expr.add_term(v, -1.0);
                    }
                }
                model.add_hinge(rel_expr, *weight);
                model.add_hinge(acq_expr, *weight);
            }
        }

        // Synchronizations-are-Rare: regularization (Eq. 3) plus the occurrence
        // penalty (Eq. 4).
        if cfg.hypotheses.synchronizations_are_rare {
            for (&(op, _), &v) in &vars {
                let rare = cfg.rare_coefficient * obs.avg_occurrence(op);
                model.minimize(LinExpr::term(v, cfg.lambda * (1.0 + rare)));
            }
        }

        // Symmetry breaking: when several candidates explain the same windows at
        // identical cost, the LP optimum is a face rather than a vertex and the
        // solver can return fractional splits (e.g. 0.5/0.5 between a wrapper's
        // exit and the library call inside it). A deterministic, vanishingly
        // small per-variable perturbation steers the optimizer to one integral
        // corner of that face without affecting any non-degenerate comparison.
        // Derived from the variable *name* (FNV-1a mod a prime) rather than its
        // index: indices shift as candidates appear across rounds, and a
        // perturbation that moves between rounds would both re-break ties
        // differently round to round and fight the warm-start path. The 1e-8
        // granularity stays above the solvers' 1e-9 dual tolerance so every
        // solver honors it.
        for (_, &v) in vars.iter() {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in model.var_name(v).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let eps = 1e-8 * (1.0 + (h % 997) as f64);
            model.minimize(LinExpr::term(v, eps));
        }

        // Acquisition-Time-Mostly-Varies: (1 − percentile(CV)) · begin(m)^acq
        // (Eq. 5), ranking every method candidate by its duration variability.
        if cfg.hypotheses.acquisition_time_varies {
            // A single duration sample cannot evidence "does not vary", so
            // methods with fewer than two observations take a neutral percentile
            // instead of ranking at the bottom.
            let mut cvs: Vec<(OpId, Option<f64>)> = Vec::new();
            for (&op, r) in &resolved {
                if matches!(r, OpRef::MethodBegin { .. }) && vars.contains_key(&(op, Role::Acquire))
                {
                    let cv = obs
                        .durations()
                        .get(&op)
                        .filter(|s| s.len() >= 2)
                        .and_then(|s| DurationStats::from_samples(s))
                        .map(|st| st.coefficient_of_variation());
                    cvs.push((op, cv));
                }
            }
            let sorted: Vec<f64> = {
                let mut s: Vec<f64> = cvs.iter().filter_map(|&(_, cv)| cv).collect();
                s.sort_by(|a, b| a.partial_cmp(b).expect("CVs are finite"));
                s
            };
            let n = sorted.len();
            for (op, cv) in cvs {
                let pct = match cv {
                    Some(cv) if n > 1 => {
                        sorted.partition_point(|&x| x < cv) as f64 / (n - 1) as f64
                    }
                    _ => 0.5,
                };
                let v = vars[&(op, Role::Acquire)];
                model.minimize(LinExpr::term(v, cfg.lambda * (1.0 - pct.min(1.0))));
            }
        }

        // Mostly-Paired: field read/write pairing (Eq. 7) and per-class
        // acquire/release balance (Eq. 6).
        if cfg.hypotheses.mostly_paired {
            let mut fields: BTreeSet<(String, String)> = BTreeSet::new();
            for r in resolved.values() {
                if let OpRef::FieldRead { class, field } | OpRef::FieldWrite { class, field } = r {
                    fields.insert((class.clone(), field.clone()));
                }
            }
            for (class, field) in fields {
                let read = OpRef::field_read(&class, &field).intern();
                let write = OpRef::field_write(&class, &field).intern();
                let mut expr = LinExpr::zero();
                if let Some(&v) = vars.get(&(read, Role::Acquire)) {
                    expr.add_term(v, 1.0);
                }
                if let Some(&v) = vars.get(&(write, Role::Release)) {
                    expr.add_term(v, -1.0);
                }
                if !expr.is_constant() {
                    model.add_abs(expr, cfg.lambda);
                }
            }

            let mut classes: BTreeMap<String, LinExpr> = BTreeMap::new();
            for &((op, role), v) in &vars_ordered {
                let class = resolved[&op].class().to_string();
                let e = classes.entry(class).or_insert_with(LinExpr::zero);
                match role {
                    Role::Acquire => e.add_term(v, 1.0),
                    Role::Release => e.add_term(v, -1.0),
                }
            }
            for (_, expr) in classes {
                if !expr.is_constant() {
                    model.add_abs(expr, cfg.lambda);
                }
            }
        }
        Encoding {
            model,
            vars: vars_ordered,
            num_windows: windows.len(),
        }
    }

    fn obs_from(windows: &[Window]) -> Observations {
        let mut obs = Observations::new();
        for w in windows {
            obs.add_window(w);
        }
        obs
    }

    /// A tiny xorshift64* stream for the seeded window sets below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    #[test]
    fn rank_ordered_encoding_matches_name_keyed_oracle() {
        // App/Lib twins of one printed name (`RankC::m-Begin`), field
        // read/write twins, and ops interned out of name order.
        let pool: Vec<OpId> = vec![
            OpRef::lib_end("RankC", "m").intern(),
            OpRef::field_write("RankC", "f").intern(),
            OpRef::app_begin("RankC", "m").intern(),
            OpRef::field_read("RankD", "g").intern(),
            OpRef::lib_begin("RankC", "m").intern(),
            OpRef::app_end("RankC", "m").intern(),
            OpRef::field_read("RankC", "f").intern(),
            OpRef::field_write("RankD", "g").intern(),
            OpRef::lib_begin("RankD", "lock").intern(),
            OpRef::lib_end("RankD", "lock").intern(),
            OpRef::app_begin("RankB", "n").intern(),
            OpRef::app_end("RankB", "n").intern(),
        ];
        let mut configs = vec![SherLockConfig::default()];
        let mut soft = SherLockConfig::default();
        soft.soft_single_role = true;
        configs.push(soft);
        let mut both_roles = SherLockConfig::default();
        both_roles.hypotheses.read_acq_write_rel = false;
        configs.push(both_roles);
        let mut keep_racy = SherLockConfig::default();
        keep_racy.feedback.race_removal = false;
        configs.push(keep_racy);

        let mut twins_seen = false;
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut obs = Observations::new();
            let cands = |rng: &mut Rng| {
                let mut c: Vec<Candidate> = (0..rng.below(5))
                    .map(|_| Candidate {
                        op: pool[rng.below(pool.len())],
                        count: 1 + rng.below(3) as u32,
                    })
                    .collect();
                c.sort_by_key(|c| c.op);
                c.dedup_by_key(|c| c.op);
                c
            };
            for _ in 0..4 + rng.below(40) {
                let a = pool[rng.below(pool.len())];
                let b = pool[rng.below(pool.len())];
                let mut w = window(a, b, &[], &[]);
                w.release = cands(&mut rng);
                w.acquire = cands(&mut rng);
                if let Some(c) = w.release.first().filter(|_| rng.below(3) == 0) {
                    obs.exclude_release((a, b), c.op);
                }
                if rng.below(8) == 0 {
                    obs.mark_racy((a, b));
                }
                obs.add_window(&w);
            }
            let mut d = sherlock_trace::durations::DurationMap::new();
            for &op in &pool {
                if rng.below(2) == 0 {
                    let samples = (0..rng.below(4))
                        .map(|_| Time::from_micros(1 + rng.below(90) as u64))
                        .collect();
                    d.insert(op, samples);
                }
            }
            obs.add_durations(&d);

            for cfg in &configs {
                let ranked = encode(&obs, cfg);
                let oracle = encode_by_name(&obs, cfg);
                assert_eq!(ranked, oracle, "seed {seed}");
                let mut names: Vec<&str> = ranked
                    .vars
                    .iter()
                    .map(|&(_, v)| ranked.model.var_name(v))
                    .collect();
                names.sort_unstable();
                twins_seen |= names.windows(2).any(|p| p[0] == p[1]);
            }
        }
        assert!(twins_seen, "no window set put App/Lib twins in one model");
    }

    #[test]
    fn flag_pattern_inferred_as_write_release_read_acquire() {
        let w = OpRef::field_write("Solve", "flag").intern();
        let r = OpRef::field_read("Solve", "flag").intern();
        let obs = obs_from(&[window(w, r, &[w], &[r]), window(w, r, &[w], &[r])]);
        let report = solve(&obs, &SherLockConfig::default()).unwrap();
        assert!(report.contains(w, Role::Release), "{report:?}");
        assert!(report.contains(r, Role::Acquire), "{report:?}");
    }

    #[test]
    fn read_never_releases_write_never_acquires() {
        let w = OpRef::field_write("Solve2", "f").intern();
        let r = OpRef::field_read("Solve2", "f").intern();
        let obs = obs_from(&[window(w, r, &[w], &[r])]);
        let report = solve(&obs, &SherLockConfig::default()).unwrap();
        assert_eq!(report.probability(r, Role::Release), 0.0);
        assert_eq!(report.probability(w, Role::Acquire), 0.0);
    }

    #[test]
    fn without_mostly_protected_nothing_is_inferred() {
        let w = OpRef::field_write("Solve3", "f").intern();
        let r = OpRef::field_read("Solve3", "f").intern();
        let obs = obs_from(&[window(w, r, &[w], &[r])]);
        let mut cfg = SherLockConfig::default();
        cfg.hypotheses.mostly_protected = false;
        let report = solve(&obs, &cfg).unwrap();
        assert!(report.inferred.is_empty(), "{report:?}");
    }

    #[test]
    fn rare_ops_preferred_over_frequent_ones() {
        // Two release candidates: `frequent` occurs 10× per window, `rare`
        // once. The rarity penalty must steer inference to `rare`.
        let a = OpRef::field_write("Solve4", "data").intern();
        let b = OpRef::field_read("Solve4", "data").intern();
        let frequent = OpRef::app_end("Solve4", "Busy").intern();
        let rare = OpRef::app_end("Solve4", "Publish").intern();
        let mut obs = Observations::new();
        for _ in 0..3 {
            let mut w = window(a, b, &[], &[b]);
            w.release = vec![
                Candidate {
                    op: frequent,
                    count: 10,
                },
                Candidate { op: rare, count: 1 },
            ];
            obs.add_window(&w);
        }
        let report = solve(&obs, &SherLockConfig::default()).unwrap();
        assert!(report.contains(rare, Role::Release), "{report:?}");
        assert!(!report.contains(frequent, Role::Release), "{report:?}");
    }

    #[test]
    fn racy_pairs_are_not_protected() {
        let w = OpRef::field_write("Solve5", "racy").intern();
        let r = OpRef::field_read("Solve5", "racy").intern();
        let mut obs = obs_from(&[window(w, r, &[w], &[r])]);
        obs.mark_racy((w, r));
        let report = solve(&obs, &SherLockConfig::default()).unwrap();
        assert!(report.inferred.is_empty(), "{report:?}");
        assert_eq!(report.racy_pairs, 1);

        // With race removal ablated the pair is protected again.
        let mut cfg = SherLockConfig::default();
        cfg.feedback.race_removal = false;
        let report = solve(&obs, &cfg).unwrap();
        assert!(report.contains(w, Role::Release));
    }

    #[test]
    fn exclusions_remove_release_candidates() {
        let a = OpRef::field_write("Solve6", "x").intern();
        let b = OpRef::field_read("Solve6", "x").intern();
        let decoy = OpRef::app_end("Solve6", "Decoy").intern();
        let real = OpRef::app_end("Solve6", "Real").intern();
        let mut obs = obs_from(&[window(a, b, &[decoy, real], &[b])]);
        obs.exclude_release((a, b), decoy);
        let report = solve(&obs, &SherLockConfig::default()).unwrap();
        assert!(!report.contains(decoy, Role::Release), "{report:?}");
    }

    #[test]
    fn single_role_blocks_begin_rel_plus_end_acq() {
        // One API appears as the sole release candidate in one window (via
        // its begin) and the sole acquire candidate in another (via its end):
        // UpgradeToWriterLock's double role. With Single-Role on, at most one
        // side can win.
        let upg_b = OpRef::lib_begin("Solve7.RW", "Upgrade").intern();
        let upg_e = OpRef::lib_end("Solve7.RW", "Upgrade").intern();
        let a1 = OpRef::field_write("Solve7", "d1").intern();
        let b1 = OpRef::field_read("Solve7", "d1").intern();
        let a2 = OpRef::field_write("Solve7", "d2").intern();
        let b2 = OpRef::field_read("Solve7", "d2").intern();
        let obs = obs_from(&[
            window(a1, b1, &[upg_b], &[b1]),
            window(a2, b2, &[a2], &[upg_e]),
        ]);
        let cfg = SherLockConfig::default();
        let report = solve(&obs, &cfg).unwrap();
        let both = report.contains(upg_b, Role::Release) && report.contains(upg_e, Role::Acquire);
        assert!(!both, "single-role violated: {report:?}");

        let mut ablated = SherLockConfig::default();
        ablated.hypotheses.single_role = false;
        let report = solve(&obs, &ablated).unwrap();
        assert!(
            report.contains(upg_b, Role::Release) && report.contains(upg_e, Role::Acquire),
            "without single-role both sides should win: {report:?}"
        );
    }

    #[test]
    fn pairing_pulls_in_the_matching_write() {
        // The read side is strongly supported by three windows; the write
        // side appears in only one window together with a decoy that is
        // otherwise equally cheap. Mostly-Paired must break the tie toward
        // the write of the same field.
        let w = OpRef::field_write("Solve8", "flag").intern();
        let r = OpRef::field_read("Solve8", "flag").intern();
        let decoy = OpRef::app_end("Solve8", "Decoy").intern();
        let mut obs = Observations::new();
        for _ in 0..3 {
            obs.add_window(&window(w, r, &[w, decoy], &[r]));
        }
        let cfg = SherLockConfig::default();
        let report = solve(&obs, &cfg).unwrap();
        assert!(report.contains(w, Role::Release), "{report:?}");
        assert!(!report.contains(decoy, Role::Release), "{report:?}");
    }

    #[test]
    fn acquisition_time_varies_prefers_high_cv_methods() {
        use sherlock_trace::Time;
        let a = OpRef::field_write("Solve9", "q").intern();
        let b = OpRef::field_read("Solve9", "q").intern();
        let steady = OpRef::app_begin("Solve9", "Steady").intern();
        let vary = OpRef::app_begin("Solve9", "Vary").intern();
        let mut obs = obs_from(&[window(a, b, &[a], &[steady, vary])]);
        let mut d = sherlock_trace::durations::DurationMap::new();
        d.insert(steady, vec![Time::from_micros(5); 4]);
        d.insert(
            vary,
            vec![
                Time::from_micros(1),
                Time::from_micros(50),
                Time::from_micros(2),
                Time::from_micros(80),
            ],
        );
        obs.add_durations(&d);
        // Remove the read from the acquire side so methods compete: rebuild.
        let mut cfg = SherLockConfig::default();
        cfg.hypotheses.mostly_paired = false; // isolate the duration term
        let report = solve(&obs, &cfg).unwrap();
        let p_vary = report.probability(vary, Role::Acquire);
        let p_steady = report.probability(steady, Role::Acquire);
        assert!(
            p_vary > p_steady,
            "vary={p_vary} steady={p_steady}: {report:?}"
        );
    }

    #[test]
    fn empty_observations_solve_to_empty_report() {
        let report = solve(&Observations::new(), &SherLockConfig::default()).unwrap();
        assert!(report.inferred.is_empty());
        assert_eq!(report.num_variables, 0);
        assert_eq!(report.num_windows, 0);
    }

    #[test]
    fn lambda_monotonicity_fewer_inferences_at_high_lambda() {
        // Table 6's trend: raising λ suppresses inference.
        let w = OpRef::field_write("Solve10", "m").intern();
        let r = OpRef::field_read("Solve10", "m").intern();
        let obs = obs_from(&[window(w, r, &[w], &[r])]);
        let mut low = SherLockConfig::default();
        low.lambda = 0.2;
        let mut high = SherLockConfig::default();
        high.lambda = 100.0;
        let n_low = solve(&obs, &low).unwrap().inferred.len();
        let n_high = solve(&obs, &high).unwrap().inferred.len();
        assert!(n_low >= n_high);
        assert_eq!(n_high, 0, "λ=100 should suppress this weak evidence");
    }
}
