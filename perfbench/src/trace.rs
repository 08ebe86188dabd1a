//! Spans the benchmark opens around its own calls into each layer:
//! name, start, end, parent and op id, kept in memory and written once at
//! exit in Chrome `trace_event` form.
//!
//! Replayed layers are recorded as logical children of the layer that
//! calls them in the program (`ctrl.access` under `channel.submit`), even
//! though a replay runs after its parent rather than inside it. A span's
//! self time is its duration minus its children's durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its result and the span id, the
    /// parent for the span's children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                op,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        (out, id)
    }

    /// Self time per span id: duration minus the children's durations.
    fn self_ns(&self) -> Vec<i64> {
        let spans = self.spans.borrow();
        let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Duration of span `id`, nanoseconds.
    pub fn total_ns_of(&self, id: usize) -> u64 {
        self.spans.borrow()[id].dur_ns()
    }

    /// Total duration of every span named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time summed per span name, nanoseconds (may be negative when
    /// replayed children take longer than their parent did).
    pub fn self_by_name(&self) -> BTreeMap<&'static str, i64> {
        let own = self.self_ns();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.borrow().iter().zip(own) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (times in µs).
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde::Value> = self
            .spans
            .borrow()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns() as f64 / 1e3,
                    "args": {
                        "id": s.id,
                        "parent": s.parent,
                        "op": s.op
                    }
                })
            })
            .collect();
        serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
            .expect("span documents serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let ((), p) = t.span("parent", None, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.span("child", Some(p), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let own = t.self_by_name();
        let parent = t.total_ns("parent") as i64;
        let child = t.total_ns("child") as i64;
        assert_eq!(own["parent"], parent - child);
        assert_eq!(own["child"], child);
        assert!(t.chrome_json().contains("\"traceEvents\""));
    }
}
