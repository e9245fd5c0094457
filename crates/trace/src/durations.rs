//! Method-duration extraction for the Acquisition-Time-Mostly-Varies
//! hypothesis (paper §2, Eq. 5).
//!
//! SherLock computes every method's duration distribution; a method whose
//! executions all take roughly the same time is unlikely to be an acquire,
//! since acquires block for workload-dependent periods. Durations are matched
//! per thread by pairing each `MethodEnd` with the most recent unmatched
//! `MethodBegin` of the same method on the same thread (handles nesting and
//! recursion LIFO-style).

use std::collections::HashMap;

use crate::event::Trace;
use crate::op::{IdMap, OpId, OpRef};
use crate::time::Time;

/// Duration samples for one method, keyed by the *begin* operation id (the
/// candidate acquire variable the statistic penalizes).
pub type DurationMap = HashMap<OpId, Vec<Time>>;

/// Extracts per-method duration samples from a trace.
///
/// Unmatched begins (method still running at trace end) and unmatched ends
/// (trace started mid-method; cannot happen with our simulator) are ignored.
pub fn extract(trace: &Trace) -> DurationMap {
    /// What an operation means for duration matching, resolved once per
    /// distinct operation of the trace.
    #[derive(Clone, Copy)]
    enum Role {
        Begin,
        /// A method end, with the id of its matching begin.
        End(OpId),
        Other,
    }
    let mut roles: IdMap<OpId, Role> = IdMap::default();
    let mut open: HashMap<(u32, OpId), Vec<Time>> = HashMap::new();
    let mut out: DurationMap = HashMap::new();

    for ev in trace.events() {
        let role = *roles.entry(ev.op).or_insert_with(|| match ev.op.resolve() {
            OpRef::MethodBegin { .. } => Role::Begin,
            end @ OpRef::MethodEnd { .. } => Role::End(
                end.method_counterpart()
                    .expect("MethodEnd has a counterpart")
                    .intern(),
            ),
            _ => Role::Other,
        });
        match role {
            Role::Begin => {
                open.entry((ev.thread.0, ev.op)).or_default().push(ev.time);
            }
            Role::End(begin) => {
                if let Some(stack) = open.get_mut(&(ev.thread.0, begin)) {
                    if let Some(start) = stack.pop() {
                        out.entry(begin).or_default().push(ev.time - start);
                    }
                }
            }
            Role::Other => {}
        }
    }
    out
}

/// Summary statistics of a duration sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurationStats {
    /// Number of samples.
    pub count: usize,
    /// Mean duration in nanoseconds.
    pub mean: f64,
    /// Population standard deviation in nanoseconds.
    pub std_dev: f64,
}

impl DurationStats {
    /// Computes stats over a sample set. Returns `None` for an empty set.
    pub fn from_samples(samples: &[Time]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().map(|t| t.as_nanos() as f64).sum::<f64>() / n;
        let var = samples
            .iter()
            .map(|t| {
                let d = t.as_nanos() as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some(DurationStats {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
        })
    }

    /// Coefficient of variation (σ/μ): how much a method's duration varies
    /// relative to its mean. Zero for constant-duration methods and for a
    /// zero mean.
    pub fn coefficient_of_variation(&self) -> f64 {
        if self.mean <= f64::EPSILON {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    fn begin(m: &str) -> OpId {
        OpRef::app_begin("Dur", m).intern()
    }
    fn end(m: &str) -> OpId {
        OpRef::app_end("Dur", m).intern()
    }

    #[test]
    fn simple_duration() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(10), 0, begin("m"), 1);
        tb.push(Time::from_micros(25), 0, end("m"), 1);
        let d = extract(&tb.finish());
        assert_eq!(d[&begin("m")], vec![Time::from_micros(15)]);
    }

    #[test]
    fn nested_and_recursive_calls_match_lifo() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(0), 0, begin("outer"), 1);
        tb.push(Time::from_micros(1), 0, begin("outer"), 1); // recursion
        tb.push(Time::from_micros(2), 0, end("outer"), 1);
        tb.push(Time::from_micros(10), 0, end("outer"), 1);
        let d = extract(&tb.finish());
        let mut durs = d[&begin("outer")].clone();
        durs.sort();
        assert_eq!(durs, vec![Time::from_micros(1), Time::from_micros(10)]);
    }

    #[test]
    fn per_thread_matching() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(0), 0, begin("p"), 1);
        tb.push(Time::from_micros(1), 1, begin("p"), 1);
        tb.push(Time::from_micros(5), 1, end("p"), 1);
        tb.push(Time::from_micros(9), 0, end("p"), 1);
        let d = extract(&tb.finish());
        let mut durs = d[&begin("p")].clone();
        durs.sort();
        assert_eq!(durs, vec![Time::from_micros(4), Time::from_micros(9)]);
    }

    #[test]
    fn unmatched_begin_ignored() {
        let mut tb = TraceBuilder::new();
        tb.push(Time::from_micros(0), 0, begin("u"), 1);
        let d = extract(&tb.finish());
        assert!(!d.contains_key(&begin("u")));
    }

    #[test]
    fn stats_constant_duration_has_zero_cv() {
        let s = DurationStats::from_samples(&[
            Time::from_micros(5),
            Time::from_micros(5),
            Time::from_micros(5),
        ])
        .unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean - 5000.0).abs() < 1e-9);
        assert_eq!(s.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn stats_varying_duration_has_positive_cv() {
        let s = DurationStats::from_samples(&[Time::from_micros(1), Time::from_micros(9)]).unwrap();
        assert!(s.coefficient_of_variation() > 0.5);
    }

    #[test]
    fn stats_empty_is_none() {
        assert!(DurationStats::from_samples(&[]).is_none());
    }
}
