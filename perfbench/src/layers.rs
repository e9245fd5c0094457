//! The traced run's per-layer table: self time, calls and share of a stated
//! total, built from the program's own span stacks plus rows the benchmark
//! timed from outside, with an explicit `unattributed` row.

use std::collections::BTreeMap;

use sherlock_obs::json::Json;
use sherlock_obs::Snapshot;

/// How far the attributed rows may exceed the total before the table is
/// rejected as not reconciling.
const RECONCILE_TOLERANCE: f64 = 0.05;

/// The layer a program span belongs to.
pub fn layer_of(frame: &str) -> &'static str {
    match frame {
        "phase.observe" => "sim",
        "explore.campaign" => "sim.campaign",
        "phase.windows" | "windows.extract" => "trace",
        "phase.perturb" => "core.perturber",
        "session.absorb" | "session.absorb_batch" | "driver.absorb_trace" => "core.session",
        "phase.solve" => "core.solver",
        "lp.simplex" => "lp",
        "driver.round" => "core.driver",
        "serve.request" => "serve",
        f if f.starts_with("racer.") => "racer",
        f if f.starts_with("bench.") => "perfbench",
        _ => "other",
    }
}

fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

fn parent(path: &str) -> Option<&str> {
    path.rfind(';').map(|i| &path[..i])
}

/// Self time (total minus direct children) and call count per stack path.
fn self_times(snap: &Snapshot) -> BTreeMap<&str, (u64, u64)> {
    let mut out: BTreeMap<&str, (u64, u64)> = snap
        .stacks
        .iter()
        .map(|(p, s)| (p.as_str(), (s.total_ns, s.count)))
        .collect();
    for (path, s) in &snap.stacks {
        if let Some(p) = parent(path) {
            if let Some(e) = out.get_mut(p) {
                e.0 = e.0.saturating_sub(s.total_ns);
            }
        }
    }
    out
}

/// Self time of every span named `frame`, wherever it sits in the stack.
pub fn self_ns(snap: &Snapshot, frame: &str) -> u64 {
    self_times(snap)
        .into_iter()
        .filter(|(p, _)| leaf(p) == frame)
        .map(|(_, (ns, _))| ns)
        .sum()
}

/// Total time of root spans (the spans no other span encloses).
#[cfg(test)]
fn root_ns(snap: &Snapshot) -> u64 {
    snap.stacks
        .iter()
        .filter(|(p, _)| !p.contains(';'))
        .map(|(_, s)| s.total_ns)
        .sum()
}

pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

pub fn span_total(snap: &Snapshot, name: &str) -> u64 {
    snap.spans.get(name).map_or(0, |s| s.total_ns)
}

pub fn span_count(snap: &Snapshot, name: &str) -> u64 {
    snap.spans.get(name).map_or(0, |s| s.count)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub layer: String,
    pub self_ns: u64,
    pub calls: u64,
}

/// Layer rows against a stated total; `unattributed` is what no row covers.
#[derive(Clone, Debug)]
pub struct LayerTable {
    pub basis: String,
    pub total_ns: u64,
    pub rows: Vec<Row>,
}

impl LayerTable {
    /// Rows from the span stacks of `snap`, grouped by [`layer_of`]. A
    /// layer's calls count entries into it from a different layer.
    pub fn from_spans(basis: &str, total_ns: u64, snap: &Snapshot) -> Self {
        let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
        for (path, (ns, count)) in self_times(snap) {
            let layer = layer_of(leaf(path));
            let row = rows.entry(layer).or_insert_with(|| Row {
                layer: layer.to_string(),
                self_ns: 0,
                calls: 0,
            });
            row.self_ns += ns;
            if parent(path).map(|p| layer_of(leaf(p))) != Some(layer) {
                row.calls += count;
            }
        }
        LayerTable {
            basis: basis.to_string(),
            total_ns,
            rows: rows.into_values().collect(),
        }
    }

    /// A table from rows the benchmark measured itself.
    pub fn from_rows(basis: &str, total_ns: u64, rows: Vec<Row>) -> Self {
        LayerTable {
            basis: basis.to_string(),
            total_ns,
            rows,
        }
    }

    pub fn push(&mut self, layer: &str, self_ns: u64, calls: u64) {
        self.rows.push(Row {
            layer: layer.to_string(),
            self_ns,
            calls,
        });
    }

    pub fn attributed_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.self_ns).sum()
    }

    /// Time no layer row accounts for (never negative).
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.attributed_ns())
    }

    /// Fails when the rows claim more than the total (beyond a 5%
    /// tolerance for timer skew), i.e. the layers do not add up.
    pub fn check(&self) -> Result<(), String> {
        let attributed = self.attributed_ns() as f64;
        let total = self.total_ns as f64;
        if total <= 0.0 || attributed > total * (1.0 + RECONCILE_TOLERANCE) {
            return Err(format!(
                "layer table does not reconcile: rows sum to {attributed:.0} ns against a \
                 {total:.0} ns total ({})",
                self.basis
            ));
        }
        Ok(())
    }

    fn share(&self, ns: u64) -> f64 {
        ratio(ns, self.total_ns)
    }

    pub fn render(&self) -> String {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.layer.cmp(&b.layer)));
        let mut out = format!(
            "layer table, basis: {} = {:.3} ms\n{:<28} {:>14} {:>10} {:>8}\n",
            self.basis,
            self.total_ns as f64 / 1e6,
            "layer",
            "self_ms",
            "calls",
            "share"
        );
        for r in &rows {
            out.push_str(&format!(
                "{:<28} {:>14.3} {:>10} {:>7.1}%\n",
                r.layer,
                r.self_ns as f64 / 1e6,
                r.calls,
                self.share(r.self_ns) * 100.0
            ));
        }
        let un = self.unattributed_ns();
        out.push_str(&format!(
            "{:<28} {:>14.3} {:>10} {:>7.1}%\n",
            "unattributed",
            un as f64 / 1e6,
            "",
            self.share(un) * 100.0
        ));
        out
    }

    pub fn to_json(&self) -> Json {
        let row = |layer: &str, ns: u64, calls: u64| {
            Json::Obj(vec![
                ("layer".to_string(), Json::from(layer)),
                ("self_ns".to_string(), Json::from(ns)),
                ("calls".to_string(), Json::from(calls)),
                ("share".to_string(), Json::Num(self.share(ns))),
            ])
        };
        let mut rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| row(&r.layer, r.self_ns, r.calls))
            .collect();
        rows.push(row("unattributed", self.unattributed_ns(), 0));
        Json::Obj(vec![
            ("basis".to_string(), Json::from(self.basis.as_str())),
            ("total_ns".to_string(), Json::from(self.total_ns)),
            ("rows".to_string(), Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherlock_obs::SpanSnap;

    fn snap(stacks: &[(&str, u64, u64)]) -> Snapshot {
        let mut s = Snapshot::default();
        for &(path, count, total_ns) in stacks {
            s.stacks.insert(
                path.to_string(),
                SpanSnap {
                    count,
                    total_ns,
                    max_ns: total_ns,
                },
            );
        }
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_and_groups_by_layer() {
        let s = snap(&[
            ("driver.round", 3, 100),
            ("driver.round;phase.solve", 3, 60),
            ("driver.round;phase.solve;lp.simplex", 5, 45),
            ("driver.round;session.absorb", 9, 30),
            ("driver.round;session.absorb;phase.windows", 9, 20),
            (
                "driver.round;session.absorb;phase.windows;windows.extract",
                9,
                18,
            ),
        ]);
        let t = LayerTable::from_spans("wall", 120, &s);
        let get = |l: &str| t.rows.iter().find(|r| r.layer == l).unwrap().clone();
        assert_eq!(get("lp").self_ns, 45);
        assert_eq!(get("core.solver").self_ns, 15);
        assert_eq!(get("core.driver").self_ns, 10);
        assert_eq!(get("core.session").self_ns, 10);
        // phase.windows and windows.extract are one layer: 2 + 18, entered
        // 9 times (the nested frame is not a new entry).
        assert_eq!(get("trace").self_ns, 20);
        assert_eq!(get("trace").calls, 9);
        assert_eq!(t.attributed_ns(), root_ns(&s));
        assert_eq!(t.unattributed_ns(), 20);
        assert!(t.check().is_ok());
        assert_eq!(self_ns(&s, "phase.solve"), 15);
    }

    #[test]
    fn over_attributed_table_fails_the_check() {
        let mut t = LayerTable::from_rows("wall", 100, Vec::new());
        t.push("sim", 80, 1);
        assert!(t.check().is_ok());
        t.push("lp", 40, 1);
        assert_eq!(t.unattributed_ns(), 0);
        assert!(t.check().is_err(), "120 ns of rows against a 100 ns total");
    }
}
