//! Speed normalisation of wall times.
//!
//! The sandbox this benchmark runs in is a small shared VM whose speed
//! drifts by 20–30 % for seconds to minutes at a time (README, "Speed
//! normalisation"). No statistic taken inside a 12 s window survives
//! that, so the harness measures the machine while it measures the
//! program: between ops, about every 100 ms of op time, it runs a fixed
//! calibration kernel of its own. The kernel's time over its reference
//! time is the machine's *slowdown factor* at that moment; every op's
//! wall time is divided by the factor interpolated at the op. Reported
//! times are therefore wall times **at reference speed**: equal to raw
//! wall time on a quiet container, and comparable between runs made
//! minutes apart.
//!
//! The kernel is the benchmark's own code and never calls the program,
//! so a change to the program cannot move it.

use std::fmt::Write as _;
use std::time::Instant;

/// Reference time of [`Calibrator::allocating`]: its best-of-three on
/// this container when nothing else runs.
pub const REF_ALLOCATING_MS: f64 = 1.40;
/// Reference time of [`Calibrator::in_place`].
pub const REF_IN_PLACE_MS: f64 = 0.77;
/// Op time between two calibrations.
pub const EVERY_NS: u64 = 100_000_000;

/// Runs the calibration kernel. Its large buffers are allocated once, so
/// calibrating never moves the process's peak memory.
pub struct Calibrator {
    strings: Vec<String>,
    keys: Vec<u64>,
    stream: Vec<u64>,
    text: String,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            strings: Vec::with_capacity(8_000),
            keys: vec![0; 16_000],
            stream: (0..400_000u64).collect(),
            text: String::with_capacity(64),
        }
    }
}

impl Calibrator {
    /// Format 8,000 keys into fresh `String`s, sort them, stream 3.2 MB:
    /// the allocator and string comparison, as the portal's result
    /// pages exercise them.
    fn allocating(&mut self) -> f64 {
        let t = Instant::now();
        self.strings
            .extend((0..8_000u32).map(|i| format!("key-{:08}", i.wrapping_mul(2_654_435_761))));
        self.strings.sort();
        let s: u64 = self.stream.iter().step_by(3).sum::<u64>()
            + self.strings.iter().map(|x| x.len() as u64).sum::<u64>();
        std::hint::black_box(s);
        self.strings.clear();
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Format, hash and sort 16,000 keys in place, stream 3.2 MB: branchy
    /// integer work over a cache-resident set plus a pass that is not.
    fn in_place(&mut self) -> f64 {
        let t = Instant::now();
        for (i, k) in self.keys.iter_mut().enumerate() {
            self.text.clear();
            let _ = write!(
                self.text,
                "key-{:08}",
                (i as u32).wrapping_mul(2_654_435_761)
            );
            *k = self.text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
        }
        self.keys.sort_unstable();
        let s: u64 = self.stream.iter().step_by(3).sum::<u64>() ^ self.keys[0];
        std::hint::black_box(s);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The machine's slowdown factor now (1.0 = reference speed): the
    /// mean of the two parts' slowdowns, each the best of three so a
    /// preemption during one repetition is not mistaken for a slow
    /// machine. Ten runs of each workload spread least under this mean
    /// (README, "Bounds").
    pub fn slowdown(&mut self) -> f64 {
        let a = (0..3).map(|_| self.allocating()).fold(f64::MAX, f64::min);
        let b = (0..3).map(|_| self.in_place()).fold(f64::MAX, f64::min);
        (a / REF_ALLOCATING_MS + b / REF_IN_PLACE_MS) / 2.0
    }
}

/// Slowdown factors sampled along the cumulative op-time axis.
#[derive(Default)]
pub struct SpeedCurve {
    points: Vec<(u64, f64)>,
}

impl SpeedCurve {
    /// Record `factor` at cumulative op time `at_ns`.
    pub fn push(&mut self, at_ns: u64, factor: f64) {
        self.points.push((at_ns, factor));
    }

    /// Number of calibrations taken.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no calibration was taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The factor at cumulative op time `at_ns`: linear between the two
    /// nearest calibrations, flat outside them, 1.0 with none.
    pub fn at(&self, at_ns: u64) -> f64 {
        let i = self.points.partition_point(|(t, _)| *t <= at_ns);
        match (i.checked_sub(1).map(|j| self.points[j]), self.points.get(i)) {
            (Some((t0, f0)), Some(&(t1, f1))) if t1 > t0 => {
                f0 + (f1 - f0) * (at_ns - t0) as f64 / (t1 - t0) as f64
            }
            (Some((_, f)), _) | (None, Some(&(_, f))) => f,
            (None, None) => 1.0,
        }
    }

    /// `(min, median, max)` of the factors seen.
    pub fn summary(&self) -> (f64, f64, f64) {
        let mut f: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        f.sort_by(f64::total_cmp);
        match f.len() {
            0 => (1.0, 1.0, 1.0),
            n => (f[0], f[n / 2], f[n - 1]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates_and_clamps() {
        let mut c = SpeedCurve::default();
        assert_eq!(c.at(5), 1.0);
        c.push(100, 1.0);
        c.push(300, 2.0);
        assert_eq!(c.at(0), 1.0);
        assert_eq!(c.at(100), 1.0);
        assert_eq!(c.at(200), 1.5);
        assert_eq!(c.at(300), 2.0);
        assert_eq!(c.at(900), 2.0);
        assert_eq!(c.summary(), (1.0, 2.0, 2.0));
    }

    #[test]
    fn kernel_reports_a_plausible_factor() {
        let f = Calibrator::default().slowdown();
        assert!(f > 0.05 && f < 50.0, "{f}");
    }
}
