//! The closed-loop driver shared by the four workloads: set up (timed,
//! several times), replay the seeded script in whole rounds for the
//! measured window, check every answer, and turn samples, counter
//! deltas and spans into the metric catalogue.
//!
//! One client, one process, one thread: `WebApp::handle_at` is a
//! synchronous `&mut self` call, so more clients would measure the
//! scheduler, and open-loop queueing is already modelled in simulated
//! time by E14.

use crate::calib::{self, Calibrator, SpeedCurve};
use crate::metrics;
use crate::stats::{median, tail_percentile, TAIL_SAMPLES};
use crate::trace::{totals, NameTotal, Tracer};
use easia_crypto::sha256::{hex, sha256};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Rounds whose fixed op count the deterministic numbers (counter
/// deltas, simulated seconds, both digests) are taken over. Simulated
/// time, time-of-day link profiles and cache contents carry across
/// rounds, so a faster machine that fits more rounds into the window
/// must not change them.
pub const DET_ROUNDS: usize = 5;

/// Smallest window the tail rule accepts: ten samples beyond p99.
pub const MIN_WINDOW_OPS: usize = TAIL_SAMPLES * 100;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of the generated script; the program under test sees only
    /// the generated requests.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Divide every size by this (1 = the stated sizes, 50 = `--smoke`).
    pub shrink: usize,
    /// Where trace files and the ingest workload's directories go.
    pub out_dir: PathBuf,
}

impl Config {
    /// `n` scaled down for smoke runs, never below `floor`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        (n / self.shrink).max(floor)
    }

    /// Whether this is a reduced-size run (tail rule relaxed).
    pub fn smoke(&self) -> bool {
        self.shrink > 1
    }
}

/// Raw cumulative counters of the measured instance, by name.
pub type Counters = BTreeMap<&'static str, f64>;

/// `after − before`, per name.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// One workload: an instance under test plus its seeded script.
pub trait Workload {
    /// Replay the script once. Every op goes through [`Recorder::op`].
    fn round(&mut self, rec: &mut Recorder, tr: &mut Tracer);
    /// Cumulative counters of the measured instance (registry values,
    /// simulated clock, file sizes). Reading must not disturb it.
    fn counters(&self) -> Counters;
    /// SHA-256 of the generated script.
    fn script_digest(&self) -> String;
    /// Fill in this workload's counts and derived layer numbers from
    /// the counter deltas over the first [`DET_ROUNDS`] rounds.
    fn layer_counts(&self, d: &Counters, ops: f64, rep: &mut Report);
    /// Fixed-input kernel probes (traced run only).
    fn probes(&mut self, rep: &mut Report);
}

/// What the harness learned about one op, for the correctness gate.
pub struct Answer {
    /// Request class (index into [`metrics::CLASSES`]).
    pub class: usize,
    /// Wall ns of the real call.
    pub ns: u64,
    /// HTTP status (200 for direct calls that returned `Ok`).
    pub status: u16,
    /// Rows in the answer, where the op returns rows.
    pub rows: Option<usize>,
    /// Body length. An access token's length depends only on host and
    /// path, never on its expiry, so lengths are time-independent and
    /// token bytes never enter the digest.
    pub body_len: usize,
    /// Why the op failed its check, if it did.
    pub error: Option<String>,
}

/// Collects samples, failures, the answers digest and the machine's
/// speed curve (see [`crate::calib`]).
#[derive(Default)]
pub struct Recorder {
    /// `(class, wall ns)` per op, in execution order.
    samples: Vec<(u16, u64)>,
    /// Number of samples recorded when each round closed.
    round_ends: Vec<usize>,
    cal: Option<Calibrator>,
    curve: SpeedCurve,
    clock_ns: u64,
    last_cal_ns: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    errors: Vec<String>,
    answers: String,
    det_ops: u64,
    det_html_bytes: u64,
    allocs: (u64, u64),
    det_allocs: (u64, u64),
}

/// Per-op latencies and per-round rates, raw and at reference speed.
pub struct Timings {
    /// `(class, raw ms, ms at reference speed)` per op.
    pub ops: Vec<(u16, f64, f64)>,
    /// Ops ÷ seconds inside the program, per round, at reference speed.
    pub round_rates: Vec<f64>,
    /// The same from raw wall time.
    pub raw_round_rates: Vec<f64>,
}

impl Recorder {
    /// A recorder that also samples the machine's speed between ops.
    pub fn calibrated() -> Self {
        let mut cal = Calibrator::default();
        let mut curve = SpeedCurve::default();
        curve.push(0, cal.slowdown());
        Recorder {
            cal: Some(cal),
            curve,
            ..Recorder::default()
        }
    }

    fn calibrate(&mut self) {
        if let Some(c) = &mut self.cal {
            self.curve.push(self.clock_ns, c.slowdown());
            self.last_cal_ns = self.clock_ns;
        }
    }

    /// Record one op.
    pub fn op(&mut self, a: Answer) {
        self.attempted += 1;
        self.samples.push((a.class as u16, a.ns));
        self.clock_ns += a.ns;
        if let Some(e) = &a.error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors
                    .push(format!("{}: {e}", metrics::CLASSES[a.class]));
            }
        }
        if self.rounds() < DET_ROUNDS {
            self.det_ops += 1;
            self.det_html_bytes += a.body_len as u64;
            let _ = writeln!(
                self.answers,
                "{}|{}|{}|{}|{}",
                metrics::CLASSES[a.class],
                a.status,
                a.rows.map_or(-1, |r| r as i64),
                a.body_len,
                u8::from(a.error.is_none()),
            );
        }
        if self.clock_ns - self.last_cal_ns >= calib::EVERY_NS {
            self.calibrate();
        }
    }

    /// Allocations made inside the real call of the last op.
    pub fn allocs(&mut self, count: u64, bytes: u64) {
        self.allocs.0 += count;
        self.allocs.1 += bytes;
    }

    /// Close a round.
    pub fn end_round(&mut self) {
        self.round_ends.push(self.samples.len());
        if self.rounds() == DET_ROUNDS {
            self.det_allocs = self.allocs;
        }
    }

    /// Rounds completed.
    pub fn rounds(&self) -> usize {
        self.round_ends.len()
    }

    /// Take the last calibration and turn the samples into latencies and
    /// round rates. A round's rate is its ops ÷ the seconds spent inside
    /// the program under test (client think time is zero; the harness's
    /// own checking and calibrating is not the program's time).
    pub fn timings(&mut self) -> Timings {
        self.calibrate();
        let mut ops = Vec::with_capacity(self.samples.len());
        let mut at = 0u64;
        for (class, ns) in &self.samples {
            // The factor at the op's midpoint on the op-time axis.
            let f = self.curve.at(at + ns / 2);
            let raw = *ns as f64 / 1e6;
            ops.push((*class, raw, raw / f));
            at += ns;
        }
        let (mut round_rates, mut raw_round_rates) = (Vec::new(), Vec::new());
        let mut start = 0;
        for end in &self.round_ends {
            let n = (end - start) as f64;
            let (raw, norm) = ops[start..*end]
                .iter()
                .fold((0.0, 0.0), |(r, m), o| (r + o.1, m + o.2));
            if raw > 0.0 {
                raw_round_rates.push(n / (raw / 1e3));
                round_rates.push(n / (norm / 1e3));
            }
            start = *end;
        }
        Timings {
            ops,
            round_rates,
            raw_round_rates,
        }
    }

    /// First failure messages.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

/// Metric values plus the operands of derived ones.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
        self.notes.remove(name);
    }

    /// Set a derived metric and say what it was computed from.
    pub fn derived(&mut self, name: &str, value: f64, operands: String) {
        self.set(name, value);
        self.notes.insert(name.to_string(), operands);
    }

    /// `num ÷ den`, 0 when the denominator is 0, with the operands.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        let v = if den == 0.0 { 0.0 } else { num / den };
        self.derived(name, v, format!("{num} / {den}"));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// µs per op that used the layer, from the span totals.
    pub fn span_us(&mut self, name: &'static str, t: &BTreeMap<&'static str, NameTotal>) {
        let nt = t.get(name).copied().unwrap_or_default();
        self.derived(
            name,
            nt.us_per_op(),
            format!("{} ns over {} op(s), {} span(s)", nt.ns, nt.ops, nt.spans),
        );
    }

    fn line(&self, name: &str, unit: &str) -> String {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        match self.notes.get(name) {
            Some(n) => format!("{name} = {v} {unit}   [{n}]"),
            None => format!("{name} = {v} {unit}"),
        }
    }
}

/// What one run produced.
pub struct Outcome {
    /// Every op passed and every gate held.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The metrics of the final JSON line, in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable report.
    pub text: String,
    /// Digest of the generated script.
    pub script_digest: String,
    /// Digest of the answers of the first [`DET_ROUNDS`] rounds.
    pub answers_digest: String,
}

impl Outcome {
    /// The one-line summary the driver reads.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced rounds a traced run makes after its window, as the
/// reference rate for `trace.overhead_pct`. (After, so that traced and
/// untraced runs measure the same rounds of the same instance and their
/// deterministic numbers agree.)
const REFERENCE_ROUNDS: usize = 3;

/// Run one workload to completion.
pub fn run(name: &str, cfg: &Config, build: &dyn Fn(&Config) -> Box<dyn Workload>) -> Outcome {
    let mut text = String::new();
    let mut gate_errors: Vec<String> = Vec::new();
    let mut off = Tracer::new(false);

    // Set-up: build + seed + XUIS generation + one warm-up round. The
    // previous instance is dropped first so peak RSS is one instance.
    // Timed at reference speed: the machine is calibrated before and
    // after each set-up.
    let mut cal = Calibrator::default();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut w: Option<Box<dyn Workload>> = None;
    let mut warm = Recorder::default();
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        drop(w.take());
        warm = Recorder::default();
        let f0 = cal.slowdown();
        let t = Instant::now();
        let mut x = build(cfg);
        x.round(&mut warm, &mut off);
        let raw = t.elapsed().as_secs_f64();
        let f1 = cal.slowdown();
        raw_setup_s.push(raw);
        setup_s.push(raw / ((f0 + f1) / 2.0));
        warm.end_round();
        w = Some(x);
    }
    let mut w = w.expect("at least one set-up");
    if warm.failed > 0 {
        gate_errors.push(format!(
            "{} of {} warm-up op(s) failed: {:?}",
            warm.failed,
            warm.attempted,
            warm.errors()
        ));
    }

    // The measured window: whole rounds until the time is up.
    let mut tr = Tracer::new(cfg.trace);
    let mut rec = Recorder::calibrated();
    let c0 = w.counters();
    let mut c_det = None;
    let t0 = Instant::now();
    loop {
        w.round(&mut rec, &mut tr);
        rec.end_round();
        if rec.rounds() == DET_ROUNDS {
            c_det = Some(w.counters());
        }
        if rec.rounds() >= DET_ROUNDS && t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    let d = delta(&c0, &c_det.expect("DET_ROUNDS rounds ran"));
    let det_ops = rec.det_ops as f64;
    let timings = rec.timings();

    // Every time below is at reference speed; the raw wall value is
    // printed beside it.
    let mut rep = Report::default();
    let sorted_by = |pick: fn(&(u16, f64, f64)) -> f64| {
        let mut v: Vec<f64> = timings.ops.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (sorted, raw_sorted) = (sorted_by(|o| o.2), sorted_by(|o| o.1));
    rep.derived(
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        format!(
            "median of {} set-up(s); raw {} s",
            setup_s.len(),
            median(&raw_setup_s).unwrap_or(0.0)
        ),
    );
    rep.derived(
        "ops_per_s",
        median(&timings.round_rates).unwrap_or(0.0),
        format!(
            "median of {} round(s); raw {} 1/s",
            rec.rounds(),
            median(&timings.raw_round_rates).unwrap_or(0.0)
        ),
    );
    rep.derived(
        "p50_ms",
        median(&sorted).unwrap_or(0.0),
        format!(
            "{} sample(s); raw {} ms",
            sorted.len(),
            median(&raw_sorted).unwrap_or(0.0)
        ),
    );
    match tail_percentile(&sorted, 0.99) {
        Some(p) => rep.derived(
            "p99_ms",
            p,
            format!(
                "raw {} ms",
                tail_percentile(&raw_sorted, 0.99).unwrap_or(0.0)
            ),
        ),
        None if cfg.smoke() || cfg.trace => {
            rep.derived(
                "p99_ms",
                sorted.last().copied().unwrap_or(0.0),
                "max: window too small for a p99".into(),
            );
        }
        None => gate_errors.push(format!(
            "window holds {} op(s), p99 needs {MIN_WINDOW_OPS}: resize the workload",
            sorted.len()
        )),
    }
    rep.set("peak_rss_mb", peak_rss_mb());

    // Per-class medians.
    for class in 0..metrics::CLASSES.len() {
        let v: Vec<f64> = timings
            .ops
            .iter()
            .filter(|o| o.0 as usize == class)
            .map(|o| o.2)
            .collect();
        if let Some(m) = median(&v) {
            rep.derived(
                &metrics::class_metric(class),
                m,
                format!("{} sample(s)", v.len()),
            );
        }
    }

    // Counts over the first DET_ROUNDS rounds, then the spans.
    rep.ratio(
        "easia-web.html_bytes_per_op",
        rec.det_html_bytes as f64,
        det_ops,
    );
    rep.ratio("alloc.count_per_op", rec.det_allocs.0 as f64, det_ops);
    rep.ratio("alloc.bytes_per_op", rec.det_allocs.1 as f64, det_ops);
    w.layer_counts(&d, det_ops, &mut rep);
    if cfg.trace {
        let t = totals(tr.spans());
        span_metrics(&t, &mut rep);
        let (transfers, ops) = tr.counted("easia-net.transfers");
        rep.ratio("easia-net.transfers_per_op", transfers as f64, ops as f64);
        w.probes(&mut rep);
        let mut reference = Recorder::calibrated();
        for _ in 0..REFERENCE_ROUNDS {
            w.round(&mut reference, &mut off);
            reference.end_round();
        }
        let reference_rate = median(&reference.timings().round_rates).unwrap_or(0.0);
        let traced = median(&timings.round_rates).unwrap_or(0.0);
        rep.derived(
            "trace.overhead_pct",
            100.0 * (reference_rate - traced) / reference_rate,
            format!("untraced {reference_rate} 1/s over {REFERENCE_ROUNDS} round(s), traced {traced} 1/s"),
        );
        let path = cfg.out_dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| std::fs::write(&path, tr.to_json()))
        {
            Ok(()) => {
                let _ = writeln!(
                    text,
                    "trace: {} span(s) in {}",
                    tr.spans().len(),
                    path.display()
                );
            }
            Err(e) => gate_errors.push(format!("write {}: {e}", path.display())),
        }
    }

    // Gates that hold on every workload.
    for must_be_zero in ["easia-core.shed", "easia-med.scan_retries"] {
        if rep.get(must_be_zero).unwrap_or(0.0) != 0.0 {
            gate_errors.push(format!("{must_be_zero} must be 0"));
        }
    }
    if rec.failed > 0 {
        gate_errors.push(format!("failed ops: {:?}", rec.errors()));
    }

    let script_digest = w.script_digest();
    let answers_digest = hex(&sha256(rec.answers.as_bytes()));
    let _ = writeln!(
        text,
        "workload {name}: seed {} window {window_s:.3} s, {} round(s), {} op(s) measured, \
         {} failed of {} attempted; deterministic numbers over the first {DET_ROUNDS} round(s) = {} op(s)",
        cfg.seed,
        rec.rounds(),
        sorted.len(),
        rec.failed,
        rec.attempted,
        rec.det_ops
    );
    let (lo, mid, hi) = rec.curve.summary();
    let _ = writeln!(
        text,
        "machine slowdown vs reference over {} calibration(s): min {lo:.3} median {mid:.3} max {hi:.3} \
         (times below are at reference speed; raw wall values in brackets)",
        rec.curve.len()
    );
    let _ = writeln!(text, "script_digest = {script_digest}");
    let _ = writeln!(text, "answers_digest = {answers_digest}");
    for m in metrics::END_TO_END {
        let _ = writeln!(text, "{}", rep.line(m.name, m.unit));
    }
    let layers = metrics::per_layer();
    for (n, unit, _) in &layers {
        // The untraced run still prints the counts and the issue's
        // workload-specific end-to-end numbers; times need the trace.
        if cfg.trace || rep.values.contains_key(n) {
            let _ = writeln!(text, "{}", rep.line(n, unit));
        }
    }
    for e in &gate_errors {
        let _ = writeln!(text, "GATE FAILED: {e}");
    }

    let metrics: Vec<(String, f64, &'static str)> = if cfg.trace {
        layers
            .iter()
            .map(|(n, u, _)| (n.clone(), rep.get(n).unwrap_or(0.0), *u))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), rep.get(m.name).unwrap_or(0.0), m.unit))
            .collect()
    };
    // A gate failure that no single op owns still counts as a failed op.
    let failed = rec.failed.max(u64::from(!gate_errors.is_empty()));
    Outcome {
        correct: gate_errors.is_empty(),
        attempted: rec.attempted,
        failed,
        metrics,
        text,
        script_digest,
        answers_digest,
    }
}

/// Layer times read straight off span names, and the three derived by
/// subtraction (printed with their operands).
fn span_metrics(t: &BTreeMap<&'static str, NameTotal>, rep: &mut Report) {
    for name in [
        "easia-web.form_decode_us",
        "easia-web.qbe_build_us",
        "easia-web.render_us",
        "easia-core.transfer_us",
        "easia-db.lex_us",
        "easia-db.parse_us",
        "easia-db.plan_us",
        "easia-med.plan_us",
        "easia-med.req_codec_us",
        "easia-med.remote_scan_us",
        "easia-med.batch_codec_us",
        "easia-net.engine_us",
        "easia-fs.read_us",
        "easia-ops.job_us",
        "easia-sci.edf_decode_us",
        "easia-sci.slice_us",
        "easia-sci.render_us",
        "easia-sci.stats_us",
        "easia-obs.render_us",
    ] {
        rep.span_us(name, t);
    }
    let get = |n: &str| t.get(n).copied().unwrap_or_default();
    // Per call, not per op: an ingest op makes six to twenty-four
    // INSERTs, and a window's staged commits are not flushes.
    for name in ["easia-db.insert_us", "easia-db.commit_us"] {
        let nt = get(name);
        rep.derived(
            name,
            if nt.spans == 0 {
                0.0
            } else {
                nt.ns as f64 / 1e3 / nt.spans as f64
            },
            format!("{} ns over {} call(s)", nt.ns, nt.spans),
        );
    }
    // Self time of a span name: its total minus its children's totals,
    // per op that has the span.
    let mut self_us = |metric: &str, span: &str| {
        let nt = get(span);
        let v = if nt.ops == 0 {
            0.0
        } else {
            nt.self_ns as f64 / 1e3 / nt.ops as f64
        };
        rep.derived(
            metric,
            v,
            format!(
                "{span} {} ns - children {} ns, over {} op(s)",
                nt.ns,
                nt.ns - nt.self_ns,
                nt.ops
            ),
        );
    };
    self_us("easia-db.exec_us", "easia-db.statement");
    self_us("easia-med.gather_merge_us", "easia-med.query");
    self_us("easia-core.handle_self_us", "op.http");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_not_mean() {
        let mut r = Recorder::default();
        // Three rounds of 10 ops at 1 ms, 1 ms and 10 ms per op.
        for per_op_ms in [1u64, 1, 10] {
            for _ in 0..10 {
                r.op(Answer {
                    class: 0,
                    ns: per_op_ms * 1_000_000,
                    status: 200,
                    rows: None,
                    body_len: 0,
                    error: None,
                });
            }
            r.end_round();
        }
        assert_eq!(r.rounds(), 3);
        // Uncalibrated recorder: reference speed is raw speed.
        let t = r.timings();
        assert_eq!(t.round_rates, t.raw_round_rates);
        let rate = median(&t.round_rates).unwrap();
        assert!((rate - 1000.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn failures_and_digest_cover_first_rounds_only() {
        let mut r = Recorder::default();
        let one = |r: &mut Recorder, err: Option<&str>| {
            r.op(Answer {
                class: 1,
                ns: 5,
                status: 200,
                rows: Some(3),
                body_len: 10,
                error: err.map(str::to_string),
            });
        };
        for _ in 0..DET_ROUNDS {
            one(&mut r, None);
            r.end_round();
        }
        let digest_after_det = r.answers.clone();
        one(&mut r, Some("wrong row count"));
        r.end_round();
        assert_eq!(r.answers, digest_after_det);
        assert_eq!((r.attempted, r.failed), (DET_ROUNDS as u64 + 1, 1));
        assert_eq!(r.det_ops, DET_ROUNDS as u64);
    }

    #[test]
    fn summary_line_parses_back() {
        let o = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                ("p50_ms".into(), 0.123456789, "ms"),
                ("ops_per_s".into(), 1.5e3, "1/s"),
            ],
            text: String::new(),
            script_digest: String::new(),
            answers_digest: String::new(),
        };
        let v = crate::json::parse(&o.json_line()).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(|a| a.num()), Some(1234.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("p50_ms").unwrap().get("value").unwrap().num(),
            Some(0.123456789)
        );
        assert_eq!(
            m.get("ops_per_s").unwrap().get("unit").unwrap().str(),
            Some("1/s")
        );
    }
}
