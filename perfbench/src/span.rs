//! In-memory spans recorded by the benchmark around its calls into
//! each layer.
//!
//! A span has a name, a start, an end, the request it belongs to and
//! the span that caused it. Spans stay in memory while the benchmark
//! runs and are written out as JSON lines when it ends. A layer's self
//! time is its duration minus the part of its interval that its child
//! spans cover; children may overlap each other or reach outside their
//! parent, and neither is counted twice or charged to the parent.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer-qualified name, e.g. `core.execute_billed`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            request: 1,
            name: "t",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 70, Some(0)),
            span(45, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(100, 200, None),
            span(50, 120, Some(0)),  // 20 inside
            span(190, 260, Some(0)), // 10 inside
            span(300, 400, Some(0)), // none inside
            span(0, 90, Some(0)),    // none inside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(10, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut r = Recorder::new();
        let root = r.begin(7, "root", None);
        let child = r.begin(7, "child", Some(root));
        r.end(child);
        r.end(root);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_root = r.self_times()[0];
        assert_eq!(self_root, spans[0].duration_ns() - spans[1].duration_ns());
        let json = r.to_json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":7"));
    }
}
