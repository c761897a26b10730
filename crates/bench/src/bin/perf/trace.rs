//! In-memory span recorder for the traced run. The harness times calls
//! into the program's public functions from outside; nothing here runs
//! inside the program. Spans are kept in memory and written as JSONL
//! when the run ends.
//!
//! The traced run *peels* the stack: the same-shaped input is sent
//! through the wire, then in-process through each layer below it, so a
//! span's parent is the next layer out — a logical link, not a temporal
//! one. A span's self time is its duration minus the time its children
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span of the next layer out, if any.
    pub parent: Option<SpanId>,
    /// Spans of one peeled op share an id.
    pub op_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span sink; timestamps are nanoseconds since creation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Times `f` as a span called `name` under `parent`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let mut spans = self.spans.lock().expect("a span recording panicked");
        spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            op_id,
        });
        (out, spans.len() - 1)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span recording panicked")
    }
}

/// Per-span self time in nanoseconds (duration minus the union of the
/// children's intervals, clamped at zero) and the total that clamping
/// cut off: independent measurements of a child can exceed its parent.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, u64) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut negative = 0u64;
    let selfs = spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            let d = s.duration_ns();
            negative += covered.saturating_sub(d);
            d.saturating_sub(covered)
        })
        .collect();
    (selfs, negative)
}

/// Per-op sums of one span name: total and self time, milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTimes {
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Groups spans by `(name, op_id)`, summing same-named spans within an
/// op (a block runs four linears, each with its own slicing span).
/// Returns the per-op sums for every name, plus the clamped negative
/// self time in milliseconds.
pub fn per_op_times(spans: &[Span]) -> (BTreeMap<&'static str, Vec<OpTimes>>, f64) {
    let (selfs, negative) = self_times(spans);
    let mut by_op: BTreeMap<(&'static str, u64), OpTimes> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let t = by_op.entry((s.name, s.op_id)).or_default();
        t.total_ms += s.duration_ns() as f64 / 1e6;
        t.self_ms += self_ns as f64 / 1e6;
    }
    let mut by_name: BTreeMap<&'static str, Vec<OpTimes>> = BTreeMap::new();
    for ((name, _), t) in by_op {
        by_name.entry(name).or_default().push(t);
    }
    (by_name, negative as f64 / 1e6)
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 40, Some(0), 0),
            span("b", 30, 60, Some(0), 0), // overlaps a by 10
            span("leaf", 12, 20, Some(1), 0),
        ];
        let (selfs, negative) = self_times(&spans);
        assert_eq!(selfs, vec![50, 22, 30, 8]);
        assert_eq!(negative, 0);
    }

    #[test]
    fn a_child_longer_than_its_parent_is_clamped_and_counted() {
        // Peeled layers are timed by separate calls, so a child can
        // come out slower than its parent.
        let spans = vec![
            span("outer", 0, 100, None, 7),
            span("inner", 200, 330, Some(0), 7),
        ];
        let (selfs, negative) = self_times(&spans);
        assert_eq!(selfs, vec![0, 130]);
        assert_eq!(negative, 30);
    }

    #[test]
    fn per_op_times_sum_same_named_spans_within_an_op() {
        let spans = vec![
            span("linear", 0, 10_000_000, None, 1),
            span("slice", 0, 2_000_000, Some(0), 1),
            span("linear", 20_000_000, 26_000_000, None, 1),
            span("slice", 20_000_000, 21_000_000, Some(2), 1),
            span("linear", 40_000_000, 44_000_000, None, 2),
        ];
        let (by_name, negative) = per_op_times(&spans);
        assert_eq!(negative, 0.0);
        let linear = &by_name["linear"];
        assert_eq!(linear.len(), 2);
        assert_eq!(
            linear[0],
            OpTimes {
                total_ms: 16.0,
                self_ms: 13.0
            }
        );
        assert_eq!(
            linear[1],
            OpTimes {
                total_ms: 4.0,
                self_ms: 4.0
            }
        );
        assert_eq!(by_name["slice"][0].total_ms, 3.0);
    }

    #[test]
    fn recorder_links_parents_and_dumps_jsonl() {
        let rec = Recorder::new();
        let ((), outer) = rec.span("outer", None, 3, || {});
        let (v, inner) = rec.span("inner", Some(outer), 3, || 5);
        assert_eq!((v, outer, inner), (5, 0, 1));
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[0].start_ns);

        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
        assert!(serde_json::from_str(text.lines().next().unwrap()).is_ok());
    }
}
