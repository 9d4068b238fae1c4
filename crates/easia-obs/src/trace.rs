//! Span-style tracing keyed to simulated time.
//!
//! A [`Tracer`] records named spans whose start/end instants are
//! *simulated* seconds supplied by the caller — typically `SimNet::now()`
//! or the archive clock. No wall-clock is ever consulted, so traces from
//! seeded runs are part of the run's deterministic output and can be
//! hashed into reproducibility digests alongside metrics.
//!
//! The span log is bounded: it is a ring of the most recent spans, and
//! past the capacity each new span pushes out the oldest, which is
//! counted as dropped, instead of growing memory without limit.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers, e.g. `transfer` or `reconcile`.
    pub name: String,
    /// Simulated start instant (seconds).
    pub start: f64,
    /// Simulated end instant (seconds).
    pub end: f64,
    /// Free-form attributes, in the order they were attached.
    pub attrs: Vec<(String, String)>,
}

/// Handle to a span opened with [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

struct Open {
    id: u64,
    name: String,
    start: f64,
    attrs: Vec<(String, String)>,
}

struct Inner {
    open: Vec<Open>,
    done: VecDeque<Span>,
    next_id: u64,
    capacity: usize,
    dropped: u64,
}

/// The span recorder: a cheap-to-clone handle to a shared span log.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<RefCell<Inner>>,
}

/// How many completed spans a default tracer keeps. A portal records an
/// `easia.med.query` span (≈ 0.7 KB with its attributes) per federated
/// statement for as long as it runs, so the bound is what caps the log's
/// memory: a few MB here.
const DEFAULT_CAPACITY: usize = 4_096;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A tracer with the default span capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer keeping at most `capacity` completed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(Inner {
                open: Vec::new(),
                done: VecDeque::new(),
                next_id: 0,
                capacity,
                dropped: 0,
            })),
        }
    }

    /// Open a span named `name` at simulated instant `at`.
    pub fn begin(&self, name: &str, at: f64) -> SpanId {
        let mut t = self.inner.borrow_mut();
        let id = t.next_id;
        t.next_id += 1;
        t.open.push(Open {
            id,
            name: name.to_string(),
            start: at,
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Attach an attribute to an open span. Unknown ids are ignored
    /// (the span may have been dropped at capacity).
    pub fn attr(&self, id: SpanId, key: &str, value: &str) {
        let mut t = self.inner.borrow_mut();
        if let Some(o) = t.open.iter_mut().find(|o| o.id == id.0) {
            o.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Close a span at simulated instant `at`.
    pub fn end(&self, id: SpanId, at: f64) {
        let mut t = self.inner.borrow_mut();
        if let Some(pos) = t.open.iter().position(|o| o.id == id.0) {
            let o = t.open.swap_remove(pos);
            push_done(
                &mut t,
                Span {
                    name: o.name,
                    start: o.start,
                    end: at,
                    attrs: o.attrs,
                },
            );
        }
    }

    /// Record a complete span in one call — the common shape on paths
    /// that only know the outcome at the end (e.g. a retried transfer).
    pub fn record(&self, name: &str, start: f64, end: f64, attrs: &[(&str, String)]) {
        let mut t = self.inner.borrow_mut();
        push_done(
            &mut t,
            Span {
                name: name.to_string(),
                start,
                end,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        );
    }

    /// Record an instantaneous event (zero-length span).
    pub fn event(&self, name: &str, at: f64, attrs: &[(&str, String)]) {
        self.record(name, at, at, attrs);
    }

    /// Completed spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().done.len()
    }

    /// True when no span has completed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Oldest spans discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Clone out the completed spans kept (completion order).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().done.iter().cloned().collect()
    }

    /// Render the span log as deterministic text, one span per line:
    /// `name start end duration k=v ...` with fixed-point instants.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let t = self.inner.borrow();
        let mut out = String::new();
        for s in &t.done {
            let _ = write!(
                out,
                "span {} start={:.6} end={:.6} dur={:.6}",
                s.name,
                s.start,
                s.end,
                s.end - s.start
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        if t.dropped > 0 {
            let _ = writeln!(out, "dropped {}", t.dropped);
        }
        out
    }
}

fn push_done(t: &mut Inner, span: Span) {
    t.done.push_back(span);
    if t.done.len() > t.capacity {
        t.done.pop_front();
        t.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_attr_end_records_span() {
        let t = Tracer::new();
        let id = t.begin("transfer", 1.5);
        t.attr(id, "attempts", "3");
        t.end(id, 4.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "transfer");
        assert_eq!(spans[0].attrs, vec![("attempts".into(), "3".into())]);
        assert!(t
            .render()
            .contains("span transfer start=1.500000 end=4.000000 dur=2.500000 attempts=3"));
    }

    #[test]
    fn record_and_event_are_deterministic() {
        let build = || {
            let t = Tracer::new();
            t.record("xfer", 0.0, 2.0, &[("bytes", "10".into())]);
            t.event("crash", 5.0, &[]);
            t.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn capacity_bounds_the_log() {
        let t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record("s", i as f64, i as f64, &[]);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.render().ends_with("dropped 3\n"));
    }

    #[test]
    fn a_full_log_drops_the_oldest_span() {
        let t = Tracer::with_capacity(2);
        for name in ["a", "b", "c"] {
            t.record(name, 0.0, 0.0, &[]);
        }
        let names: Vec<String> = t.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(t.dropped(), 1);
    }
}
