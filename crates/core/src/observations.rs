use std::collections::{BTreeMap, BTreeSet, HashMap};

use sherlock_obs::json::Json;
use sherlock_trace::durations::DurationMap;
use sherlock_trace::windows::Window;
use sherlock_trace::{OpId, Time};

/// Identity of a deduplicated window shape: the static location pair plus the
/// exact candidate multisets. Many dynamic windows (e.g. from a loop) share
/// one shape; the Solver weighs the shape by its observation count instead of
/// encoding thousands of identical hinge terms.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowKey {
    /// Ordered static location pair `(a, b)`.
    pub pair: (OpId, OpId),
    /// Release-side candidates with occurrence counts, sorted by op.
    pub release: Vec<(OpId, u32)>,
    /// Acquire-side candidates with occurrence counts, sorted by op.
    pub acquire: Vec<(OpId, u32)>,
}

/// Aggregate for one window shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowAgg {
    /// Number of dynamic windows with this shape observed so far.
    pub weight: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct OccStat {
    total: u64,
    windows: u64,
}

/// Everything SherLock has observed so far, accumulated across runs
/// (paper §4.3): window shapes, candidate occurrence statistics, method
/// durations, witnessed data races, and Perturber-derived exclusions.
#[derive(Clone, Debug, Default)]
pub struct Observations {
    windows: BTreeMap<WindowKey, WindowAgg>,
    racy_pairs: BTreeSet<(OpId, OpId)>,
    exclusions: BTreeSet<((OpId, OpId), OpId)>,
    occ: HashMap<OpId, OccStat>,
    durations: HashMap<OpId, Vec<Time>>,
    runs: usize,
}

impl Observations {
    /// Empty state (before the first run).
    pub fn new() -> Self {
        Observations::default()
    }

    /// Ingests one extracted window.
    pub fn add_window(&mut self, w: &Window) {
        let key = WindowKey {
            pair: w.pair(),
            release: w.release.iter().map(|c| (c.op, c.count)).collect(),
            acquire: w.acquire.iter().map(|c| (c.op, c.count)).collect(),
        };
        for (op, count) in key.release.iter().chain(&key.acquire) {
            let s = self.occ.entry(*op).or_default();
            s.total += u64::from(*count);
            s.windows += 1;
        }
        self.windows.entry(key).or_default().weight += 1;
    }

    /// Records that the pair's windows witness a data race; the Solver drops
    /// their Mostly-Protected terms (paper §4.3).
    pub fn mark_racy(&mut self, pair: (OpId, OpId)) {
        self.racy_pairs.insert(pair);
    }

    /// Records a Perturber conclusion: `op` is *not* the release protecting
    /// `pair` (its injected delay failed to propagate, Fig. 2b).
    pub fn exclude_release(&mut self, pair: (OpId, OpId), op: OpId) {
        self.exclusions.insert((pair, op));
    }

    /// Merges one run's method durations.
    pub fn add_durations(&mut self, durations: &DurationMap) {
        for (op, samples) in durations {
            self.durations
                .entry(*op)
                .or_default()
                .extend_from_slice(samples);
        }
    }

    /// Marks the end of one observed run.
    pub fn finish_run(&mut self) {
        self.runs += 1;
    }

    /// Window shapes and their weights.
    pub fn windows(&self) -> &BTreeMap<WindowKey, WindowAgg> {
        &self.windows
    }

    /// Pairs witnessed racing.
    pub fn racy_pairs(&self) -> &BTreeSet<(OpId, OpId)> {
        &self.racy_pairs
    }

    /// Whether `op` has been excluded as the release for `pair`.
    pub fn is_excluded(&self, pair: (OpId, OpId), op: OpId) -> bool {
        self.exclusions.contains(&(pair, op))
    }

    /// Number of Perturber exclusions recorded.
    pub fn num_exclusions(&self) -> usize {
        self.exclusions.len()
    }

    /// Average number of occurrences of `op` per window it appears in
    /// (the statistic behind the rarity penalty, Eq. 4).
    pub fn avg_occurrence(&self, op: OpId) -> f64 {
        match self.occ.get(&op) {
            Some(s) if s.windows > 0 => s.total as f64 / s.windows as f64,
            _ => 0.0,
        }
    }

    /// Duration samples per method-begin op.
    pub fn durations(&self) -> &HashMap<OpId, Vec<Time>> {
        &self.durations
    }

    /// Runs observed so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Serializes the accumulated state as a [`Json`] value tree for
    /// `sherlock-store` snapshots. Ops serialize as resolved [`OpRef`]s
    /// (raw `OpId`s are intern-order accidents and do not survive a process
    /// restart); map-shaped state is emitted in `OpId` order so the bytes are
    /// deterministic within one process.
    pub fn to_value(&self) -> Json {
        use sherlock_trace::json::op_to_value;
        let op = op_to_value;
        let pair = |p: (OpId, OpId)| Json::Arr(vec![op(p.0), op(p.1)]);
        let cands = |c: &[(OpId, u32)]| {
            Json::Arr(
                c.iter()
                    .map(|&(o, n)| Json::Arr(vec![op(o), Json::from(u64::from(n))]))
                    .collect(),
            )
        };
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|(k, agg)| {
                Json::Obj(vec![
                    ("pair".to_string(), pair(k.pair)),
                    ("release".to_string(), cands(&k.release)),
                    ("acquire".to_string(), cands(&k.acquire)),
                    ("weight".to_string(), Json::from(agg.weight)),
                ])
            })
            .collect();
        let racy: Vec<Json> = self.racy_pairs.iter().map(|&p| pair(p)).collect();
        let exclusions: Vec<Json> = self
            .exclusions
            .iter()
            .map(|&((a, b), o)| Json::Arr(vec![op(a), op(b), op(o)]))
            .collect();
        let mut occ: Vec<(&OpId, &OccStat)> = self.occ.iter().collect();
        occ.sort_by_key(|(o, _)| **o);
        let occ: Vec<Json> = occ
            .into_iter()
            .map(|(&o, s)| Json::Arr(vec![op(o), Json::from(s.total), Json::from(s.windows)]))
            .collect();
        let mut durations: Vec<(&OpId, &Vec<Time>)> = self.durations.iter().collect();
        durations.sort_by_key(|(o, _)| **o);
        let durations: Vec<Json> = durations
            .into_iter()
            .map(|(&o, samples)| {
                let s: Vec<Json> = samples.iter().map(|t| Json::from(t.as_nanos())).collect();
                Json::Arr(vec![op(o), Json::Arr(s)])
            })
            .collect();
        Json::Obj(vec![
            ("windows".to_string(), Json::Arr(windows)),
            ("racy".to_string(), Json::Arr(racy)),
            ("exclusions".to_string(), Json::Arr(exclusions)),
            ("occ".to_string(), Json::Arr(occ)),
            ("durations".to_string(), Json::Arr(durations)),
            ("runs".to_string(), Json::from(self.runs as u64)),
        ])
    }

    /// Rebuilds observations from a value produced by [`Observations::to_value`],
    /// re-interning every op in this process's registry. `WindowKey` candidate
    /// vecs are re-sorted under the *new* `OpId` order so keys loaded from a
    /// snapshot aggregate with keys produced by replayed extraction.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first schema violation.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        use sherlock_trace::json::op_from_value;
        let arr = |name: &str| {
            v.get(name)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("observations: missing {name:?} array"))
        };
        let op = |v: &Json, ctx: &str| op_from_value(v).map_err(|e| format!("{ctx}: {e}"));
        let pair = |v: &Json, ctx: &str| -> Result<(OpId, OpId), String> {
            match v.as_array() {
                Some([a, b]) => Ok((op(a, ctx)?, op(b, ctx)?)),
                _ => Err(format!("{ctx}: pair must be a 2-array")),
            }
        };
        let cands = |v: &Json, ctx: &str| -> Result<Vec<(OpId, u32)>, String> {
            let items = v
                .as_array()
                .ok_or_else(|| format!("{ctx}: candidates must be an array"))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let Some([o, n]) = item.as_array() else {
                    return Err(format!("{ctx}: candidate must be [op, count]"));
                };
                let n = n
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| format!("{ctx}: bad candidate count"))?;
                out.push((op(o, ctx)?, n));
            }
            out.sort_unstable();
            Ok(out)
        };

        let mut obs = Observations::new();
        for (i, w) in arr("windows")?.iter().enumerate() {
            let ctx = format!("window {i}");
            let key = WindowKey {
                pair: pair(
                    w.get("pair").ok_or_else(|| format!("{ctx}: no pair"))?,
                    &ctx,
                )?,
                release: cands(
                    w.get("release")
                        .ok_or_else(|| format!("{ctx}: no release"))?,
                    &ctx,
                )?,
                acquire: cands(
                    w.get("acquire")
                        .ok_or_else(|| format!("{ctx}: no acquire"))?,
                    &ctx,
                )?,
            };
            let weight = w
                .get("weight")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{ctx}: missing weight"))?;
            obs.windows.entry(key).or_default().weight += weight;
        }
        for (i, p) in arr("racy")?.iter().enumerate() {
            obs.racy_pairs.insert(pair(p, &format!("racy {i}"))?);
        }
        for (i, e) in arr("exclusions")?.iter().enumerate() {
            let ctx = format!("exclusion {i}");
            let Some([a, b, o]) = e.as_array() else {
                return Err(format!("{ctx}: must be a 3-array"));
            };
            obs.exclusions
                .insert(((op(a, &ctx)?, op(b, &ctx)?), op(o, &ctx)?));
        }
        for (i, o) in arr("occ")?.iter().enumerate() {
            let ctx = format!("occ {i}");
            let Some([id, total, windows]) = o.as_array() else {
                return Err(format!("{ctx}: must be [op, total, windows]"));
            };
            let s = OccStat {
                total: total.as_u64().ok_or_else(|| format!("{ctx}: bad total"))?,
                windows: windows
                    .as_u64()
                    .ok_or_else(|| format!("{ctx}: bad windows"))?,
            };
            obs.occ.insert(op(id, &ctx)?, s);
        }
        for (i, d) in arr("durations")?.iter().enumerate() {
            let ctx = format!("duration {i}");
            let Some([id, samples]) = d.as_array() else {
                return Err(format!("{ctx}: must be [op, samples]"));
            };
            let samples = samples
                .as_array()
                .ok_or_else(|| format!("{ctx}: samples must be an array"))?
                .iter()
                .map(|t| {
                    t.as_u64()
                        .map(Time::from_nanos)
                        .ok_or_else(|| format!("{ctx}: bad sample"))
                })
                .collect::<Result<Vec<Time>, String>>()?;
            obs.durations.insert(op(id, &ctx)?, samples);
        }
        obs.runs = usize::try_from(
            v.get("runs")
                .and_then(Json::as_u64)
                .ok_or("observations: missing runs")?,
        )
        .map_err(|_| "observations: runs out of range")?;
        Ok(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherlock_trace::windows::{Candidate, Window};
    use sherlock_trace::{ObjectId, OpRef, ThreadId};

    fn mk_window(a: OpId, b: OpId, rel: &[(OpId, u32)], acq: &[(OpId, u32)]) -> Window {
        Window {
            a_op: a,
            b_op: b,
            a_thread: ThreadId(0),
            b_thread: ThreadId(1),
            a_time: Time::ZERO,
            b_time: Time::from_micros(10),
            object: ObjectId(1),
            release: rel
                .iter()
                .map(|&(op, count)| Candidate { op, count })
                .collect(),
            acquire: acq
                .iter()
                .map(|&(op, count)| Candidate { op, count })
                .collect(),
            release_capable: true,
            acquire_capable: true,
        }
    }

    #[test]
    fn identical_windows_aggregate_by_weight() {
        let a = OpRef::field_write("Obs", "x").intern();
        let b = OpRef::field_read("Obs", "x").intern();
        let mut obs = Observations::new();
        for _ in 0..5 {
            obs.add_window(&mk_window(a, b, &[(a, 1)], &[(b, 3)]));
        }
        assert_eq!(obs.windows().len(), 1);
        assert_eq!(obs.windows().values().next().unwrap().weight, 5);
        assert_eq!(obs.avg_occurrence(b), 3.0);
        assert_eq!(obs.avg_occurrence(a), 1.0);
    }

    #[test]
    fn different_shapes_stay_separate() {
        let a = OpRef::field_write("Obs", "y").intern();
        let b = OpRef::field_read("Obs", "y").intern();
        let c = OpRef::app_end("Obs", "m").intern();
        let mut obs = Observations::new();
        obs.add_window(&mk_window(a, b, &[(a, 1)], &[(b, 1)]));
        obs.add_window(&mk_window(a, b, &[(a, 1), (c, 1)], &[(b, 1)]));
        assert_eq!(obs.windows().len(), 2);
    }

    #[test]
    fn avg_occurrence_mixes_windows() {
        let a = OpRef::field_write("Obs", "z").intern();
        let b = OpRef::field_read("Obs", "z").intern();
        let mut obs = Observations::new();
        obs.add_window(&mk_window(a, b, &[(a, 1)], &[(b, 1)]));
        obs.add_window(&mk_window(a, b, &[(a, 1)], &[(b, 5)]));
        assert_eq!(obs.avg_occurrence(b), 3.0);
        assert_eq!(
            obs.avg_occurrence(OpRef::field_read("Obs", "none").intern()),
            0.0
        );
    }

    #[test]
    fn racy_and_exclusion_bookkeeping() {
        let a = OpRef::field_write("Obs", "w").intern();
        let b = OpRef::field_read("Obs", "w").intern();
        let r = OpRef::app_end("Obs", "rel").intern();
        let mut obs = Observations::new();
        obs.mark_racy((a, b));
        obs.exclude_release((a, b), r);
        assert!(obs.racy_pairs().contains(&(a, b)));
        assert!(obs.is_excluded((a, b), r));
        assert!(!obs.is_excluded((b, a), r));
        assert_eq!(obs.num_exclusions(), 1);
    }

    #[test]
    fn value_round_trip_preserves_everything() {
        let a = OpRef::field_write("ObsRt", "x").intern();
        let b = OpRef::field_read("ObsRt", "x").intern();
        let c = OpRef::app_end("ObsRt", "m").intern();
        let m = OpRef::app_begin("ObsRt", "m").intern();
        let mut obs = Observations::new();
        obs.add_window(&mk_window(a, b, &[(a, 1), (c, 2)], &[(b, 3)]));
        obs.add_window(&mk_window(a, b, &[(a, 1), (c, 2)], &[(b, 3)]));
        obs.add_window(&mk_window(a, b, &[(a, 1)], &[(b, 1)]));
        obs.mark_racy((a, b));
        obs.exclude_release((a, b), c);
        let mut d = DurationMap::new();
        d.insert(m, vec![Time::from_micros(3), Time::from_micros(1)]);
        obs.add_durations(&d);
        obs.finish_run();
        obs.finish_run();

        let v = obs.to_value();
        let back = Observations::from_value(&v).expect("round trip");
        assert_eq!(back.windows(), obs.windows());
        assert_eq!(back.racy_pairs(), obs.racy_pairs());
        assert!(back.is_excluded((a, b), c));
        assert_eq!(back.num_exclusions(), 1);
        assert_eq!(back.avg_occurrence(c), obs.avg_occurrence(c));
        assert_eq!(back.durations()[&m], obs.durations()[&m]);
        assert_eq!(back.runs(), 2);
        // Bytes are deterministic within one process.
        assert_eq!(v.render(), back.to_value().render());
    }

    #[test]
    fn from_value_rejects_malformed() {
        assert!(Observations::from_value(&Json::Obj(vec![])).is_err());
        let v = Json::parse(r#"{"windows":[{"pair":[1,2]}],"racy":[],"exclusions":[],"occ":[],"durations":[],"runs":0}"#).unwrap();
        assert!(Observations::from_value(&v).is_err());
    }

    #[test]
    fn durations_accumulate_across_runs() {
        let m = OpRef::app_begin("Obs", "m").intern();
        let mut obs = Observations::new();
        let mut d1 = DurationMap::new();
        d1.insert(m, vec![Time::from_micros(1)]);
        obs.add_durations(&d1);
        let mut d2 = DurationMap::new();
        d2.insert(m, vec![Time::from_micros(9)]);
        obs.add_durations(&d2);
        obs.finish_run();
        obs.finish_run();
        assert_eq!(obs.durations()[&m].len(), 2);
        assert_eq!(obs.runs(), 2);
    }
}
