//! A fault-tolerant transfer client over [`SimNet`].
//!
//! The raw engine aborts a transfer the instant a host on its path
//! crashes and stalls it for the duration of a link outage. This module
//! adds the client-side discipline the paper's wide-area setting
//! demands: a stall timeout, bounded retries, exponential backoff with
//! deterministic jitter, and offset-based resume so a 544 MB file does
//! not restart from byte zero after a flap. Everything is a pure
//! function of the simulation state and the policy (including the
//! jitter seed), so chaos runs reproduce bit-for-bit.

use easia_net::{HostId, SimNet, TransferStatus};
use easia_obs::{Counter, Obs, Tracer};

pub use easia_net::RetryPolicy;

/// Telemetry for the retrying transfer client. All series live on the
/// shared registry under the `easia_transfer_` prefix; spans are keyed
/// to simulated seconds, so same-seed chaos runs render identically.
#[derive(Clone)]
pub struct TransferMetrics {
    /// Attempts started (first tries plus retries).
    pub attempts: Counter,
    /// Attempts beyond the first of each transfer.
    pub retries: Counter,
    /// Attempts aborted by the stall timeout.
    pub stall_aborts: Counter,
    /// Transfers that delivered every byte.
    pub completed: Counter,
    /// Transfers that gave up (retries exhausted or host down for good).
    pub failed: Counter,
    /// Payload bytes delivered by completed transfers.
    pub bytes_delivered: Counter,
    /// Partial-progress bytes kept by offset-based resume.
    pub bytes_resumed: Counter,
    /// Simulated seconds spent in backoff waits.
    pub backoff_seconds: Counter,
    /// Simulated seconds spent waiting out endpoint downtime.
    pub downtime_wait_seconds: Counter,
    tracer: Tracer,
}

impl TransferMetrics {
    /// Register the transfer series on `obs`.
    pub fn register(obs: &Obs) -> Self {
        let r = &obs.metrics;
        TransferMetrics {
            attempts: r.counter(
                "easia_transfer_attempts_total",
                "Transfer attempts started (first tries plus retries).",
            ),
            retries: r.counter(
                "easia_transfer_retries_total",
                "Transfer attempts beyond the first of each transfer.",
            ),
            stall_aborts: r.counter(
                "easia_transfer_stall_aborts_total",
                "Transfer attempts aborted by the stall timeout.",
            ),
            completed: r.counter(
                "easia_transfer_completed_total",
                "Transfers that delivered every byte.",
            ),
            failed: r.counter(
                "easia_transfer_failed_total",
                "Transfers that exhausted retries or hit a dead host.",
            ),
            bytes_delivered: r.counter(
                "easia_transfer_bytes_delivered_total",
                "Payload bytes delivered by completed transfers.",
            ),
            bytes_resumed: r.counter(
                "easia_transfer_bytes_resumed_total",
                "Partial-progress bytes kept by offset-based resume.",
            ),
            backoff_seconds: r.counter(
                "easia_transfer_backoff_seconds_total",
                "Simulated seconds spent in backoff waits.",
            ),
            downtime_wait_seconds: r.counter(
                "easia_transfer_downtime_wait_seconds_total",
                "Simulated seconds spent waiting out endpoint downtime.",
            ),
            tracer: obs.tracer.clone(),
        }
    }
}

/// How a [`transfer_with_retry_observed`] call ended successfully.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// Total payload delivered (the requested size).
    pub bytes: f64,
    /// Attempts made (1 = no retries needed).
    pub attempts: u32,
    /// Simulated instant the first attempt started.
    pub started_at: f64,
    /// Simulated instant the final byte arrived.
    pub finished_at: f64,
    /// Simulated seconds spent waiting in backoff or for a host restart.
    pub waiting_secs: f64,
}

impl TransferOutcome {
    /// Wall-clock duration of the whole retried transfer.
    pub fn duration(&self) -> f64 {
        self.finished_at - self.started_at
    }
}

/// Why a retried transfer gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferClientError {
    /// All attempts were used without delivering every byte.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// Bytes delivered by the last attempt chain.
        bytes_moved: f64,
    },
    /// A path host stayed down with no restart scheduled.
    HostDownIndefinitely(HostId),
}

impl std::fmt::Display for TransferClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferClientError::RetriesExhausted {
                attempts,
                bytes_moved,
            } => write!(
                f,
                "transfer failed after {attempts} attempts ({bytes_moved:.0} bytes moved)"
            ),
            TransferClientError::HostDownIndefinitely(h) => {
                write!(f, "host {h:?} is down with no scheduled restart")
            }
        }
    }
}

/// Move `bytes` from `src` to `dst`, surviving outages and crashes
/// according to `policy`. Advances the simulation clock as needed
/// (transfer time, backoff waits, waiting out host downtime) and no
/// further: a successful attempt returns at the instant its last byte
/// lands. Every attempt, stall abort, resumed byte and wait is counted
/// into `obs` when given; a transfer that needed a retry or a wait is
/// also recorded as one `transfer` span over simulated time.
pub fn transfer_with_retry_observed(
    net: &mut SimNet,
    src: HostId,
    dst: HostId,
    bytes: f64,
    policy: &RetryPolicy,
    obs: Option<&TransferMetrics>,
) -> Result<TransferOutcome, TransferClientError> {
    let started_at = net.now();
    let mut remaining = bytes;
    let mut attempts = 0u32;
    let mut waiting = 0.0f64;

    loop {
        // Wait out endpoint downtime before spending an attempt: the
        // engine would fail the transfer instantly against a dead host.
        for h in [src, dst] {
            if !net.host_up(h) {
                let up = net.host_up_after(h);
                if !up.is_finite() {
                    if let Some(m) = obs {
                        m.failed.inc();
                    }
                    return Err(TransferClientError::HostDownIndefinitely(h));
                }
                if let Some(m) = obs {
                    m.downtime_wait_seconds.add(up - net.now());
                }
                waiting += up - net.now();
                net.run_until(up);
            }
        }

        attempts += 1;
        if let Some(m) = obs {
            m.attempts.inc();
            if attempts > 1 {
                m.retries.inc();
            }
        }
        let id = net.transfer(src, dst, remaining);
        let mut last_moved = 0.0f64;
        let failed_moved;
        loop {
            let deadline = net.now() + policy.stall_timeout_s;
            net.run_until_any_settled(&[id], deadline);
            let status = net.transfer_status(id);
            // A final status is read once, here: release it (a no-op
            // while the transfer is in flight).
            net.release_transfer(id);
            match status {
                TransferStatus::Done(rec) => {
                    if let Some(m) = obs {
                        m.completed.inc();
                        m.bytes_delivered.add(bytes);
                        // The span log is bounded: only the transfers
                        // an operator asks about take a slot.
                        if attempts > 1 || waiting > 0.0 {
                            m.tracer.record(
                                "transfer",
                                started_at,
                                rec.end,
                                &[
                                    ("bytes", format!("{bytes:.0}")),
                                    ("attempts", attempts.to_string()),
                                ],
                            );
                        }
                    }
                    return Ok(TransferOutcome {
                        bytes,
                        attempts,
                        started_at,
                        finished_at: rec.end,
                        waiting_secs: waiting,
                    });
                }
                TransferStatus::Failed { bytes_moved, .. } => {
                    failed_moved = bytes_moved;
                    break;
                }
                TransferStatus::InFlight { bytes_moved } => {
                    if bytes_moved > last_moved + 1e-6 {
                        last_moved = bytes_moved;
                    } else {
                        // No progress for a full stall window: abort the
                        // attempt and back off.
                        net.cancel_transfer(id);
                        net.release_transfer(id);
                        if let Some(m) = obs {
                            m.stall_aborts.inc();
                        }
                        failed_moved = bytes_moved;
                        break;
                    }
                }
            }
        }

        // Resume from the delivered offset: partial progress is kept.
        remaining -= failed_moved;
        if let Some(m) = obs {
            m.bytes_resumed.add(failed_moved);
        }

        if attempts > policy.max_retries {
            if let Some(m) = obs {
                m.failed.inc();
            }
            return Err(TransferClientError::RetriesExhausted {
                attempts,
                bytes_moved: bytes - remaining,
            });
        }
        let delay = policy.backoff(attempts);
        if let Some(m) = obs {
            m.backoff_seconds.add(delay);
        }
        waiting += delay;
        net.run_until(net.now() + delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easia_net::{FaultSchedule, LinkSpec, Mbit, SimNet};

    const MB: f64 = 1_000_000.0;

    fn paper_pair(
        bps: f64,
    ) -> (
        SimNet,
        easia_net::HostId,
        easia_net::HostId,
        easia_net::LinkId,
    ) {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let l = net.connect(a, b, LinkSpec::symmetric(bps, 0.0));
        (net, a, b, l)
    }

    #[test]
    fn clean_network_takes_one_attempt() {
        let (mut net, a, b, _) = paper_pair(Mbit(8.0)); // 1 MB/s
        let out =
            transfer_with_retry_observed(&mut net, a, b, 10.0 * MB, &RetryPolicy::default(), None)
                .unwrap();
        assert_eq!(out.attempts, 1);
        assert!((out.duration() - 10.0).abs() < 1e-6);
        assert_eq!(out.waiting_secs, 0.0);
    }

    #[test]
    fn outage_triggers_stall_retry_and_resume() {
        let (mut net, a, b, l) = paper_pair(Mbit(8.0)); // 1 MB/s
        let mut faults = FaultSchedule::new();
        faults.link_outage(l, 5.0, 200.0);
        net.set_fault_schedule(faults);
        let policy = RetryPolicy {
            stall_timeout_s: 10.0,
            base_backoff_s: 20.0,
            backoff_factor: 2.0,
            max_backoff_s: 400.0,
            max_retries: 8,
            jitter_frac: 0.0,
            jitter_seed: 1,
        };
        let out = transfer_with_retry_observed(&mut net, a, b, 50.0 * MB, &policy, None).unwrap();
        // 5 MB move before the outage; the rest resumes afterwards.
        assert!(out.attempts > 1, "outage must force retries");
        assert!(out.finished_at > 200.0, "cannot finish during the outage");
        // With resume, total bytes over the link equal the payload:
        assert!((net.link_bytes(l) - 50.0 * MB).abs() < 1.0);
    }

    #[test]
    fn crash_waits_for_restart_then_succeeds() {
        let (mut net, a, b, _) = paper_pair(Mbit(8.0));
        let mut faults = FaultSchedule::new();
        faults.host_crash(b, 2.0, 60.0);
        net.set_fault_schedule(faults);
        let policy = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let out = transfer_with_retry_observed(&mut net, a, b, 10.0 * MB, &policy, None).unwrap();
        assert!(out.attempts >= 2);
        assert!(out.waiting_secs > 0.0, "waited out downtime/backoff");
        assert!(out.finished_at >= 60.0);
    }

    #[test]
    fn retries_exhaust_against_permanent_outage() {
        let (mut net, a, b, l) = paper_pair(Mbit(8.0));
        let mut faults = FaultSchedule::new();
        faults.link_outage(l, 0.0, 1e7);
        net.set_fault_schedule(faults);
        let policy = RetryPolicy {
            stall_timeout_s: 5.0,
            max_retries: 3,
            base_backoff_s: 1.0,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let err =
            transfer_with_retry_observed(&mut net, a, b, 10.0 * MB, &policy, None).unwrap_err();
        assert_eq!(
            err,
            TransferClientError::RetriesExhausted {
                attempts: 4,
                bytes_moved: 0.0
            }
        );
    }

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
    fn whole_run_is_reproducible() {
        let run = || {
            let (mut net, a, b, l) = paper_pair(Mbit(8.0));
            let mut faults = FaultSchedule::new();
            faults.link_outage(l, 3.0, 40.0).host_crash(b, 60.0, 90.0);
            net.set_fault_schedule(faults);
            let policy = RetryPolicy {
                jitter_seed: 7,
                ..RetryPolicy::default()
            };
            let out =
                transfer_with_retry_observed(&mut net, a, b, 80.0 * MB, &policy, None).unwrap();
            format!("{out:?}")
        };
        assert_eq!(run(), run());
    }
}
