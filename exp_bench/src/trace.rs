//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer.
//!
//! This PR may not add spans inside the program, so a layer is timed by
//! *re-execution at its seam*: the harness times the real call, then
//! replays the same inputs through the layer's public functions on a
//! twin archive. A replayed child therefore runs *after* its parent in
//! wall time; it is tied to the parent by `parent`, and self time is
//! `duration − Σ child durations` (children never overlap each other).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric (or operand) this span feeds.
    pub name: &'static str,
    /// The op that caused it; spans of one op share the id.
    pub op: u32,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: always carries its start instant, so an untraced run
/// gets the same elapsed time without storing anything.
pub struct Open {
    id: Option<SpanId>,
    t0: Instant,
}

impl Open {
    /// The span id to hang children off (None in an untraced run).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

/// Span recorder. Disabled, it only measures elapsed time.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A recorder; `enabled` is `--trace 1`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Add `n` to a count taken at a layer boundary during a replay.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            let c = self.counts.entry(name).or_default();
            c.0 += n;
            c.1 += 1;
        }
    }

    /// `(total, times counted)` of a replay count.
    pub fn counted(&self, name: &str) -> (u64, u64) {
        self.counts.get(name).copied().unwrap_or_default()
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next op: spans begun from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Begin a span. The clock is read last, so recording cost stays
    /// outside the measured interval.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Open {
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as SpanId
        });
        Open {
            id,
            t0: Instant::now(),
        }
    }

    /// End a span; returns its elapsed ns (also when disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let t1 = Instant::now();
        if let Some(id) = open.id {
            let s = &mut self.spans[id as usize];
            s.start_ns = (open.t0 - self.epoch).as_nanos() as u64;
            s.end_ns = (t1 - self.epoch).as_nanos() as u64;
        }
        (t1 - open.t0).as_nanos() as u64
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let o = self.begin(name, parent);
        let out = f();
        self.end(o);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96 + 2);
        s.push('[');
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.op, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]\n");
        s
    }
}

/// Self time per span: its duration minus its children's durations.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total wall ns and number of distinct ops per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Summed duration.
    pub ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Spans with this name.
    pub spans: u64,
    /// Distinct ops that have at least one such span.
    pub ops: u64,
}

impl NameTotal {
    /// Mean µs per op that used the layer (0 when none did).
    pub fn us_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.ops as f64
        }
    }
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    let mut last_op: BTreeMap<&'static str, u32> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.ns += s.dur_ns();
        t.self_ns += own;
        t.spans += 1;
        // Ops are numbered in execution order, so "distinct" is "differs
        // from the last op seen under this name".
        if last_op.insert(s.name, s.op) != Some(s.op) {
            t.ops += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_from_a_span_tree() {
        // op 1: root 100 ns with replayed children 30 + 50, one of which
        // has its own child of 20.
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 100, 130),
            span("b", 1, Some(0), 130, 180),
            span("b.inner", 1, Some(2), 180, 200),
            span("root", 2, None, 300, 340),
        ];
        assert_eq!(self_ns(&spans), vec![20, 30, 30, 20, 40]);
        let t = totals(&spans);
        assert_eq!(t["root"].ns, 140);
        assert_eq!(t["root"].self_ns, 60);
        assert_eq!(t["root"].ops, 2);
        assert_eq!(t["b"].ops, 1);
        assert!((t["root"].us_per_op() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let spans = vec![span("p", 1, None, 0, 10), span("c", 1, Some(0), 10, 40)];
        assert_eq!(self_ns(&spans)[0], 0);
    }

    #[test]
    fn disabled_tracer_measures_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x", None);
        assert!(o.id().is_none());
        let _ = t.end(o);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.next_op();
        let o = t.begin("x", None);
        let id = o.id();
        t.time("y", id, || std::hint::black_box(1 + 1));
        t.end(o);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }
}
