//! The shared retry/backoff policy.
//!
//! Every client-side recovery discipline in the system — the file
//! transfer client in `easia-core::transfer` and the federated scan
//! executor in `easia-med` — retries under the same shape: a stall
//! timeout that abandons an attempt making no progress, a bounded
//! number of retries, and capped exponential backoff whose jitter is
//! drawn deterministically from a seed, so chaos runs reproduce
//! bit-for-bit. This module is the single definition of that policy;
//! the clients differ only in *what* they resume (byte offsets for
//! file transfers, batch sequence numbers for federated scans).

/// Retry/backoff policy for fault-tolerant clients over [`crate::SimNet`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Abort an attempt when no byte has moved for this long (seconds).
    pub stall_timeout_s: f64,
    /// Retries allowed after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry (seconds).
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff per retry.
    pub backoff_factor: f64,
    /// Upper bound on a single backoff (seconds).
    pub max_backoff_s: f64,
    /// Fraction of each backoff randomised away (0 = fixed delays,
    /// 1 = full jitter). Jitter is drawn deterministically from
    /// `jitter_seed` and the attempt number.
    pub jitter_frac: f64,
    /// Seed for the deterministic jitter draw.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            stall_timeout_s: 30.0,
            max_retries: 10,
            base_backoff_s: 2.0,
            backoff_factor: 2.0,
            max_backoff_s: 120.0,
            jitter_frac: 0.5,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retry number `retry` (1-based), jittered
    /// deterministically.
    pub fn backoff(&self, retry: u32) -> f64 {
        let exp = self
            .base_backoff_s
            .max(0.0)
            .mul_add(self.backoff_factor.powi(retry as i32 - 1), 0.0)
            .min(self.max_backoff_s);
        let u = unit_from(self.jitter_seed, u64::from(retry));
        // Jitter shortens the delay by up to `jitter_frac`: spreads
        // retries out without ever exceeding the exponential envelope.
        exp * (1.0 - self.jitter_frac.clamp(0.0, 1.0) * u)
    }
}

/// Compute a `Retry-After` hint (whole seconds, ≥ 1) for a 503 response.
///
/// Every layer that sheds or refuses work — the file-server availability
/// check, the federation's fail-closed ladder, the circuit breaker, and
/// the portal admission controller — derives the header the same way: if
/// the caller knows *when* service resumes (`recovery_at`, on the same
/// simulated clock as `now`), the hint is the time until then, rounded up
/// and floored at one second; otherwise it falls back to `default_secs`.
/// A single definition keeps the layers' headers consistent, which the
/// cross-layer tests pin.
pub fn retry_after_secs(now: f64, recovery_at: Option<f64>, default_secs: u64) -> u64 {
    match recovery_at {
        Some(t) if t.is_finite() => ((t - now).ceil()).max(1.0) as u64,
        _ => default_secs.max(1),
    }
}

/// Deterministic uniform draw in `[0, 1)` from `(seed, n)` — SplitMix64
/// of the pair, so jitter depends only on the policy seed and attempt.
pub fn unit_from(seed: u64, n: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(n.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            base_backoff_s: 10.0,
            backoff_factor: 2.0,
            max_backoff_s: 100.0,
            jitter_frac: 0.5,
            jitter_seed: 99,
            ..RetryPolicy::default()
        };
        for retry in 1..8 {
            let d1 = p.backoff(retry);
            let d2 = p.backoff(retry);
            assert_eq!(d1.to_bits(), d2.to_bits(), "jitter must be deterministic");
            let envelope = (10.0 * 2.0f64.powi(retry as i32 - 1)).min(100.0);
            assert!(d1 <= envelope && d1 >= envelope * 0.5);
        }
        let q = RetryPolicy {
            jitter_seed: 100,
            ..p.clone()
        };
        assert_ne!(p.backoff(1).to_bits(), q.backoff(1).to_bits());
    }

    #[test]
    fn retry_after_rounds_up_floors_at_one_and_falls_back() {
        assert_eq!(retry_after_secs(100.0, Some(130.5), 30), 31);
        assert_eq!(retry_after_secs(100.0, Some(100.2), 30), 1);
        assert_eq!(
            retry_after_secs(100.0, Some(99.0), 30),
            1,
            "past recovery still ≥ 1"
        );
        assert_eq!(retry_after_secs(100.0, None, 30), 30);
        assert_eq!(retry_after_secs(100.0, Some(f64::INFINITY), 30), 30);
        assert_eq!(
            retry_after_secs(100.0, None, 0),
            1,
            "default is floored too"
        );
    }

    #[test]
    fn zero_jitter_is_the_exact_exponential_envelope() {
        let p = RetryPolicy {
            base_backoff_s: 3.0,
            backoff_factor: 2.0,
            max_backoff_s: 20.0,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), 3.0);
        assert_eq!(p.backoff(2), 6.0);
        assert_eq!(p.backoff(3), 12.0);
        assert_eq!(p.backoff(4), 20.0, "capped at max_backoff_s");
    }
}
