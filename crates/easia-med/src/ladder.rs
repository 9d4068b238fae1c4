//! The degradation ladder a site outage climbs instead of surfacing
//! immediately: retry with resume, the circuit breaker, the stale
//! replica, then skip or fail (see [`crate::federation`]).

use crate::explain::{FedExplain, StaleSite};
use crate::federation::{FedError, Federation, PartialPolicy, Site, DEFAULT_BREAKER_COOLDOWN_SECS};
use crate::gather::{Pending, TableGather};
use crate::metrics::{BREAKER_STATE, CACHE_STALE_SERVED, SCAN_RETRIES};
use easia_db::{Database, Value};
use easia_net::{HostId, SimNet};
use easia_obs::Obs;

impl Federation {
    /// Rung 1, the retry loop for one failed stream: back off (extended
    /// to the host's scheduled recovery when known), move the request's
    /// `resume_from` up to the cursor and re-enter the pump with that
    /// one stream. Returns whether the stream completed.
    pub(crate) fn recover(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        obs: Option<&Obs>,
        p: &mut Pending<'_>,
        deadline: f64,
    ) -> Result<bool, FedError> {
        for attempt in 1..=self.retry.max_retries {
            let wait_start = net.now();
            let mut resume_at = wait_start + self.retry.backoff(attempt);
            if !net.host_up(p.site.host) {
                let up = net.host_up_after(p.site.host);
                if !up.is_finite() {
                    return Ok(false); // down indefinitely
                }
                resume_at = resume_at.max(up);
            }
            // Exclusive deadline boundary, matching the pump: a resume
            // that would land at or past the deadline is not launched.
            if resume_at >= deadline {
                return Ok(false); // budget exhausted
            }
            net.run_until(resume_at);
            p.retries += 1;
            SCAN_RETRIES.add(obs, &p.site.name, 1);
            if let Some(o) = obs {
                o.tracer.record(
                    "easia.med.retry_wait",
                    wait_start,
                    net.now(),
                    &[
                        ("site", p.site.name.clone()),
                        ("attempt", attempt.to_string()),
                    ],
                );
            }
            // The site re-runs the deterministic scan and ships only
            // the batches past the cursor.
            p.request.resume_from = p.cursor;
            p.failed = false;
            self.pump(
                net,
                hub_host,
                obs,
                &mut [(std::slice::from_mut(p), deadline)],
            )?;
            if !p.failed {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Record a failed exchange on the site's breaker, handing it the
    /// fault schedule's recovery time when one exists.
    pub(crate) fn note_failure(&self, net: &SimNet, obs: Option<&Obs>, site: &Site) {
        let up = net.host_up_after(site.host);
        let hint = (site.is_up() && up.is_finite()).then_some(up);
        site.breaker.borrow_mut().on_failure(
            net.now(),
            self.breaker_threshold,
            DEFAULT_BREAKER_COOLDOWN_SECS,
            hint,
        );
        self.set_breaker_gauge(obs, site);
    }

    /// Apply the partial-results policy to a site that stayed dead
    /// after the ladder's retry rungs: fail closed, skip, or serve the
    /// stale replica.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fallback(
        &self,
        net: &SimNet,
        hub_db: &Database,
        obs: Option<&Obs>,
        site: &Site,
        g: &TableGather<'_>,
        explain: &mut FedExplain,
        gathered: &mut Vec<Vec<Value>>,
        retry_after: Option<u64>,
    ) -> Result<(), FedError> {
        if self.policy == PartialPolicy::FailClosed {
            return Err(match retry_after {
                Some(retry_after_secs) => FedError::SiteUnavailable {
                    site: site.name.clone(),
                    retry_after_secs,
                },
                None => self.unavailable(net, site),
            });
        }
        // Under `Degraded` the replica's raw full-partition rows are
        // converted the same way a live reply would be.
        let served = match &self.cache {
            Some(cache) if self.policy == PartialPolicy::Degraded => {
                cache.borrow_mut().any(&site.name, &g.ft.name).map(|e| {
                    (
                        e.rows.clone(),
                        (net.now() - e.fetched_at).ceil().max(0.0) as u64,
                    )
                })
            }
            _ => None,
        };
        match served {
            Some((raw, age_secs)) => {
                let rows = g.shipped_from_raw(hub_db, &raw)?;
                CACHE_STALE_SERVED.add(obs, &site.name, 1);
                explain.stale.push(StaleSite {
                    site: site.name.clone(),
                    age_secs,
                    rows: rows.len() as u64,
                });
                gathered.extend(rows);
            }
            // `Partial`, or stale beats absent but there is no copy: a
            // skip. A JOIN can hit the same dead site once per leg: one
            // banner entry is enough.
            None if explain.skipped.contains(&site.name) => {}
            None => explain.skipped.push(site.name.clone()),
        }
        Ok(())
    }

    fn unavailable(&self, net: &SimNet, site: &Site) -> FedError {
        let up = net.host_up_after(site.host);
        let recovery_at = if site.is_up() { Some(up) } else { None };
        let retry_after_secs =
            easia_net::retry_after_secs(net.now(), recovery_at, crate::DEFAULT_RETRY_AFTER_SECS);
        FedError::SiteUnavailable {
            site: site.name.clone(),
            retry_after_secs,
        }
    }

    pub(crate) fn set_breaker_gauge(&self, obs: Option<&Obs>, site: &Site) {
        if let Some(o) = obs {
            BREAKER_STATE.set(o, &site.name, site.breaker.borrow().state().as_gauge());
        }
    }
}
