//! Spans around every call the benchmark makes into a layer, kept in memory
//! and written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it, the workload and the repetition. Counts (work items,
//! allocations) are taken at the same boundaries. A layer's self time is its
//! span minus the part its child spans cover. With tracing off every call
//! here is a no-op, and end-to-end numbers never come from this module.

use crate::alloc::AllocSnapshot;
use serde_json::{json, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (ops, records, bytes — the name says).
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// True for a span that sums many short calls the benchmark could only
    /// time from a wrapper (a `TimedSink`, a `TimedTransport`): its duration
    /// is the calls' total, laid at the start of its parent.
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sum over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub spans: u64,
    pub ns: u64,
    pub self_ns: u64,
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Totals {
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.ns as f64, self.count as f64)
    }
}

/// `a / b`, or 0 when there was no work to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Recorder {
    enabled: bool,
    workload: String,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<(usize, AllocSnapshot)>,
}

impl Recorder {
    pub fn new(workload: &str, enabled: bool) -> Recorder {
        Recorder {
            enabled,
            workload: workload.to_string(),
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Repetition number stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            rep: self.rep,
            start_ns: now,
            end_ns: now,
            count: 0,
            allocs: 0,
            alloc_bytes: 0,
            aggregate: false,
        });
        self.open.push((idx, AllocSnapshot::now()));
        Some(idx)
    }

    /// Closes the span `id` (which must be the innermost open one) having
    /// covered `count` work items.
    pub fn exit(&mut self, id: SpanId, count: u64) {
        let Some(idx) = id else { return };
        let now = self.now_ns();
        let Some((open_idx, before)) = self.open.pop() else {
            return;
        };
        debug_assert_eq!(open_idx, idx, "spans must close innermost-first");
        let allocs = AllocSnapshot::now().since(before);
        let span = &mut self.spans[idx];
        span.end_ns = now;
        span.count = count;
        span.allocs = allocs.calls;
        span.alloc_bytes = allocs.bytes;
    }

    /// Records the total of many short calls made *inside* the innermost
    /// open span, as one aggregate child of it.
    pub fn aggregate(&mut self, name: &str, total_ns: u64, count: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&(i, _)| i);
        let start = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            rep: self.rep,
            start_ns: start,
            end_ns: start + total_ns,
            count,
            allocs: 0,
            alloc_bytes: 0,
            aggregate: true,
        });
    }

    /// A span's duration minus the durations of its direct children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(children)
    }

    /// Totals over every span called `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            t.spans += 1;
            t.ns += s.duration_ns();
            t.self_ns += self.self_ns(i);
            t.count += s.count;
            t.allocs += s.allocs;
            t.alloc_bytes += s.alloc_bytes;
        }
        t
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span with its self time, in recording order.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "id": i as u64,
                    "name": s.name.clone(),
                    "parent": s.parent.map(|p| p as u64),
                    "workload": self.workload.clone(),
                    "rep": u64::from(s.rep),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self.self_ns(i),
                    "count": s.count,
                    "allocs": s.allocs,
                    "alloc_bytes": s.alloc_bytes,
                    "aggregate": s.aggregate,
                })
            })
            .collect();
        json!({ "workload": self.workload.clone(), "spans": spans })
    }

    /// Writes the span file; does nothing when tracing is off.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let text = serde_json::to_string(&self.to_json())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new("w", false);
        let id = r.enter("a.b");
        assert_eq!(id, None);
        r.aggregate("a.c", 10, 1);
        r.exit(id, 5);
        assert!(r.spans().is_empty());
        assert_eq!(r.totals("a.b"), Totals::default());
    }

    #[test]
    fn self_time_plus_children_equals_the_parent() {
        let mut r = Recorder::new("w", true);
        r.set_rep(3);
        let outer = r.enter("layer.outer");
        let inner = r.enter("layer.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner, 7);
        r.aggregate("layer.many", 500, 40);
        r.exit(outer, 1);

        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].aggregate);
        assert_eq!(spans[0].rep, 3);
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(r.self_ns(0) + children, spans[0].duration_ns());
        assert_eq!(r.self_ns(1), spans[1].duration_ns());

        let t = r.totals("layer.inner");
        assert_eq!((t.spans, t.count), (1, 7));
        assert!(t.ns >= 2_000_000);
        assert_eq!(r.totals("layer.many").ns_per_item(), 12.5);
    }

    #[test]
    fn span_file_lists_every_span_with_its_parent() {
        let mut r = Recorder::new("month_1k", true);
        let a = r.enter("x.a");
        let b = r.enter("x.b");
        r.exit(b, 1);
        r.exit(a, 2);
        let doc = r.to_json();
        let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Value::as_u64), Some(0));
        assert!(spans[0].get("parent").is_some_and(Value::is_null));
        assert_eq!(
            spans[0].get("workload").and_then(Value::as_str),
            Some("month_1k")
        );
    }
}
