//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is a name, a start and an end on the system-wide monotonic
//! clock, the span that caused it, and the trial / iteration it belongs
//! to. Client threads (or client processes, in the process world) stamp
//! into their own `Vec<u64>` and hand it back when the run ends; the
//! parent turns those stamps into spans here, so nothing is shared or
//! locked while the simulation runs. The whole trace lives in memory
//! until the benchmark ends and is then written as one JSON file.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::sys::now_ns;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Trial the span belongs to (spans of one launch share it).
    pub trial: Option<u32>,
    /// Simulation iteration, for spans inside the client loop.
    pub iteration: Option<u64>,
    /// Who recorded it: 0 is the benchmark's main thread, `1 + id` is
    /// simulation client `id`.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// All spans of one benchmark run, in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished span and return its id (for use as a parent).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` on the main thread as a root span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let out = f();
        self.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            parent: None,
            trial: None,
            iteration: None,
            lane: 0,
        });
        out
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its direct children (children of different
    /// lanes may overlap, so the union is taken, clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration_ns() - union_len(kids))
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        by_name
    }

    /// The trace file: every span plus the per-name self-time totals.
    pub fn to_json(&self, header: Vec<(String, Json)>) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::count);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::count(id as u64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::count(s.start_ns)),
                    ("end_ns", Json::count(s.end_ns)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("trial", opt(s.trial.map(u64::from))),
                    ("iteration", opt(s.iteration)),
                    ("lane", Json::count(u64::from(s.lane))),
                ])
            })
            .collect();
        let self_ms = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, ns)| (name, Json::Num(ns as f64 / 1e6)));
        let mut fields = header;
        fields.push(("self_time_ms".into(), Json::obj(self_ms)));
        fields.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(fields)
    }
}

/// Total length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, lane: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trial: Some(0),
            iteration: None,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let mut t = Trace::default();
        let iter = t.push(span("iteration", 100, 200, None, 1));
        t.push(span("step", 100, 160, Some(iter), 1));
        t.push(span("write", 165, 190, Some(iter), 1));
        assert_eq!(t.self_times_ns(), vec![100 - 60 - 25, 60, 25]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        let mut t = Trace::default();
        let trial = t.push(span("trial", 0, 100, None, 0));
        // Two clients overlap on [20, 60); together they cover [10, 80).
        t.push(span("client", 10, 60, Some(trial), 1));
        t.push(span("client", 20, 80, Some(trial), 2));
        // A child reaching past its parent is clipped to it.
        t.push(span("drain", 90, 130, Some(trial), 0));
        let own = t.self_times_ns();
        assert_eq!(own[trial], 100 - 70 - 10);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["client"], 50 + 60);
        assert_eq!(by_name["trial"], 20);
    }

    #[test]
    fn nested_levels_only_subtract_direct_children() {
        let mut t = Trace::default();
        let a = t.push(span("a", 0, 100, None, 0));
        let b = t.push(span("b", 10, 90, Some(a), 0));
        t.push(span("c", 20, 30, Some(b), 0));
        assert_eq!(t.self_times_ns(), vec![20, 70, 10]);
    }

    #[test]
    fn scope_records_a_root_span_on_the_main_lane() {
        let mut t = Trace::default();
        assert_eq!(t.scope("probe", || 7), 7);
        let s = &t.spans()[0];
        assert_eq!((s.name, s.parent, s.lane), ("probe", None, 0));
        assert!(s.end_ns >= s.start_ns);
    }

    #[test]
    fn trace_file_lists_spans_and_totals() {
        let mut t = Trace::default();
        let a = t.push(span("a", 0, 2_000_000, None, 0));
        t.push(span("b", 0, 500_000, Some(a), 1));
        let text = t
            .to_json(vec![("workload".into(), Json::str("w"))])
            .render();
        assert!(text
            .starts_with(r#"{"workload": "w", "self_time_ms": {"a": 1.5, "b": 0.5}, "spans": ["#));
        assert!(text.contains(r#"{"id": 1, "name": "b", "start_ns": 0, "end_ns": 500000, "parent": 0, "trial": 0, "iteration": null, "lane": 1}"#));
    }
}
