//! `--compare OLD NEW`: reads the result files of two sets of runs (each a
//! directory of result files, or one file), prints per-workload medians and
//! quartiles of every end-to-end metric and per-layer self-time deltas, and
//! fails only when a count that repeats exactly for a fixed seed drifts.
//! Timings are reported, never gated.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use sherlock_obs::json::Json;

use crate::stats::{median, quartiles};
use crate::END_TO_END;

/// The parts of one result file the comparison reads.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, u64>,
    layers: BTreeMap<String, f64>,
}

fn parse_run(doc: &Json) -> Option<Run> {
    let meta = doc.get("meta")?;
    let metrics = doc
        .get("metrics")?
        .as_array()?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect();
    let exact = doc
        .get("exact")?
        .as_object()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect();
    let layers = doc
        .get("tables")
        .and_then(Json::as_array)
        .and_then(|t| t.first())
        .and_then(|t| t.get("rows"))
        .and_then(Json::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    Some((
                        r.get("layer")?.as_str()?.to_string(),
                        r.get("self_ns")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Some(Run {
        workload: meta.get("workload")?.as_str()?.to_string(),
        seed: meta.get("seed")?.as_u64()?,
        trace: matches!(meta.get("trace"), Some(Json::Bool(true))),
        metrics,
        exact,
        layers,
    })
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        runs.push(parse_run(&doc).ok_or_else(|| format!("{}: not a result file", f.display()))?);
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{:>30}", "-");
    }
    let (q1, q3) = quartiles(values);
    format!(
        "{:>11.4} [{:>.4}, {:>.4}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

fn delta_pct(old: &[f64], new: &[f64]) -> String {
    if old.is_empty() || new.is_empty() || median(old) == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (median(new) / median(old) - 1.0) * 100.0)
}

/// One exactly-repeating count compared between the two sets.
#[derive(Debug, PartialEq)]
pub struct CountCheck {
    pub workload: String,
    pub seed: u64,
    pub name: String,
    pub old: Vec<u64>,
    pub new: Vec<u64>,
}

impl CountCheck {
    /// The old runs agree among themselves (the count is exact for this
    /// seed).
    pub fn repeats(&self) -> bool {
        self.old.windows(2).all(|w| w[0] == w[1])
    }

    /// An exact count the new runs do not reproduce.
    pub fn drifted(&self) -> bool {
        self.repeats() && !self.old.is_empty() && self.new.iter().any(|&v| v != self.old[0])
    }
}

fn count_checks(old: &[Run], new: &[Run]) -> Vec<CountCheck> {
    let mut checks: BTreeMap<(String, u64, String), CountCheck> = BTreeMap::new();
    for (side, runs) in [(0, old), (1, new)] {
        for r in runs {
            for (name, &v) in &r.exact {
                let c = checks
                    .entry((r.workload.clone(), r.seed, name.clone()))
                    .or_insert_with(|| CountCheck {
                        workload: r.workload.clone(),
                        seed: r.seed,
                        name: name.clone(),
                        old: Vec::new(),
                        new: Vec::new(),
                    });
                if side == 0 {
                    c.old.push(v);
                } else {
                    c.new.push(v);
                }
            }
        }
    }
    checks
        .into_values()
        .filter(|c| !c.old.is_empty() && !c.new.is_empty())
        .collect()
}

pub fn run(old: &Path, new: &Path) -> ExitCode {
    let (old, new) = match (load(old), load(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workloads: Vec<&str> = old
        .iter()
        .chain(&new)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let values =
        |runs: &[Run], w: &str, trace: bool, f: &dyn Fn(&Run) -> Option<f64>| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == w && r.trace == trace)
                .filter_map(f)
                .collect()
        };
    for w in &workloads {
        println!("\n== {w}: end-to-end (median [q1, q3], untraced runs)");
        println!(
            "{:<24} {:>40} {:>40} {:>8}",
            "metric", "old", "new", "delta"
        );
        // The bounded metrics first, then every other metric the untraced
        // runs reported (tails, workload-level figures).
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let mut rest: Vec<&str> = old
            .iter()
            .chain(&new)
            .filter(|r| r.workload == *w && !r.trace)
            .flat_map(|r| r.metrics.keys().map(String::as_str))
            .filter(|n| !names.contains(n))
            .collect();
        rest.sort_unstable();
        rest.dedup();
        names.extend(rest);
        for name in names {
            let get = |r: &Run| r.metrics.get(name).copied();
            let (o, n) = (values(&old, w, false, &get), values(&new, w, false, &get));
            println!(
                "{name:<24} {:>40} {:>40} {:>8}",
                summary(&o),
                summary(&n),
                delta_pct(&o, &n)
            );
        }
        let mut layers: Vec<&String> = old
            .iter()
            .chain(&new)
            .filter(|r| r.workload == *w && r.trace)
            .flat_map(|r| r.layers.keys())
            .collect();
        layers.sort();
        layers.dedup();
        if !layers.is_empty() {
            println!("-- {w}: layer self time, ms (median over traced runs)");
            for l in layers {
                let get = |r: &Run| r.layers.get(l).map(|ns| ns / 1e6);
                let (o, n) = (values(&old, w, true, &get), values(&new, w, true, &get));
                println!(
                    "{l:<40} {:>40} {:>40} {:>8}",
                    summary(&o),
                    summary(&n),
                    delta_pct(&o, &n)
                );
            }
        }
    }
    let checks = count_checks(&old, &new);
    let mut drift = 0;
    if !checks.is_empty() {
        println!("\n== counts per (workload, seed): exact = repeats across the old runs");
        for c in &checks {
            let verdict = if c.drifted() {
                drift += 1;
                "DRIFT"
            } else if c.repeats() {
                "exact, ok"
            } else {
                "varies"
            };
            println!(
                "{:<12} seed {:<6} {:<28} old {:?} new {:?} {verdict}",
                c.workload, c.seed, c.name, c.old, c.new
            );
        }
    }
    if drift > 0 {
        eprintln!("{drift} exactly-repeating count(s) drifted");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(seed: u64, pivots: u64) -> Run {
        Run {
            workload: "infer".into(),
            seed,
            trace: true,
            metrics: BTreeMap::new(),
            exact: [("simplex.pivots".to_string(), pivots)]
                .into_iter()
                .collect(),
            layers: BTreeMap::new(),
        }
    }

    #[test]
    fn a_drifting_exact_count_is_caught_and_a_varying_one_is_not() {
        let old = vec![
            run_with(1, 100),
            run_with(1, 100),
            run_with(2, 7),
            run_with(2, 8),
        ];
        let same = vec![run_with(1, 100), run_with(2, 9)];
        let checks = count_checks(&old, &same);
        assert!(
            checks.iter().all(|c| !c.drifted()),
            "seed 2 varies, so it is not gated"
        );
        let changed = vec![run_with(1, 101)];
        let checks = count_checks(&old, &changed);
        assert_eq!(checks.len(), 1);
        assert!(checks[0].repeats() && checks[0].drifted());
    }

    #[test]
    fn result_files_round_trip() {
        let doc = Json::parse(
            r#"{"meta":{"workload":"explore","seed":3,"trace":true},
                "metrics":[{"name":"ops_per_s","value":2.5,"unit":"1/s","samples":4}],
                "exact":{"kernel.steps":42},
                "tables":[{"rows":[{"layer":"sim","self_ns":10,"calls":1,"share":0.5}]}]}"#,
        )
        .unwrap();
        let r = parse_run(&doc).unwrap();
        assert_eq!((r.workload.as_str(), r.seed, r.trace), ("explore", 3, true));
        assert_eq!(r.metrics["ops_per_s"], 2.5);
        assert_eq!(r.exact["kernel.steps"], 42);
        assert_eq!(r.layers["sim"], 10.0);
    }
}
