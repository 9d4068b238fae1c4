//! One table's scatter-gather: prepare → pump → finish.
//!
//! [`Federation::prepare_gather`] walks the partitions (prune, scan the
//! local one in place, serve fresh replica hits, apply the breaker and
//! outage pre-checks) and leaves one [`Pending`] stream per partition
//! that must cross the WAN. [`Federation::pump`] is the only code that
//! drives those streams — first attempts and resumed retries alike.
//! [`Federation::finish_gather`] sends what the pump left unfinished up
//! the degradation ladder ([`crate::ladder`]) and books the outcome.

use crate::breaker::BreakerCheck;
use crate::catalog::{CatalogError, ForeignTable};
use crate::explain::{FedExplain, Shipping, SiteExplain, SiteSource};
use crate::federation::{FedError, Federation, Site, DEFAULT_WINDOW};
use crate::merge::partial_from_raw;
use crate::metrics::{
    BYTES_WIRE, CACHE_HITS, DEADLINE_CANCELLED, PARTIAL_AGG_GROUPS_SHIPPED, ROWS_PRUNED,
    ROWS_SHIPPED,
};
use crate::remote::{scan_rows, serve_scan};
use crate::wire::{decode_batch, ScanRequest};
use easia_db::{Database, Value};
use easia_net::{HostId, SimNet, TransferId, TransferStatus};
use easia_obs::Obs;

/// In-flight state for one remote partition's scan.
pub(crate) struct Pending<'a> {
    pub(crate) site: &'a Site,
    /// The request this site is serving (the pushed scan, or a
    /// full-partition scan when refilling the replica cache); a retry
    /// moves its `resume_from` up to the cursor.
    pub(crate) request: ScanRequest,
    frames: std::vec::IntoIter<Vec<u8>>,
    /// Accepted rows, in request-column order.
    rows: Vec<Vec<Value>>,
    /// Count of fully-received batches == next expected sequence
    /// number == the `resume_from` cursor for a retry.
    pub(crate) cursor: u64,
    /// Write counter from the most recent batch header.
    last_write_counter: u64,
    /// Wire bytes this stream *actually* moved over the WAN: request
    /// frames (including retry re-ships) plus every **delivered** batch
    /// frame — even one the sequence check then discards. This is
    /// transport accounting, not useful-payload accounting, so after a
    /// mid-stream failure `bytes` exceeds what `rows` alone would
    /// imply; `rows_shipped` is the useful-row measure (see DESIGN.md
    /// "Wire accounting").
    bytes: u64,
    pub(crate) retries: u32,
    pub(crate) failed: bool,
    /// The query deadline expired while this scan was still streaming:
    /// the pump stopped issuing batch requests for it. Unlike a
    /// transport failure this is *client-side cancellation*, so a
    /// first-attempt stream that expires is not retried and does not
    /// penalise the site's breaker.
    expired: bool,
    /// Whether this scan ships the full partition to refill the cache.
    cache_fill: bool,
}

/// One leg's scatter-gather work order: everything the partition walk
/// needs.
pub(crate) struct TableGather<'a> {
    /// The foreign table being gathered.
    pub(crate) ft: &'a ForeignTable,
    /// Shipped projection (request-column order).
    pub(crate) columns: &'a [String],
    /// The pushed scan every surviving site runs.
    pub(crate) request: ScanRequest,
    /// What the leg's site entries report, pruning handle included.
    pub(crate) shipping: Shipping,
    /// Skip every partition outright: an empty semi-join key set proves
    /// no row of this table can join.
    pub(crate) skip_all: bool,
}

/// One table-gather's streams between [`Federation::prepare_gather`]
/// and [`Federation::finish_gather`]: the unit the event pump
/// schedules. Several states (sibling queries, independent JOIN legs)
/// can be pumped together so their WAN round trips overlap.
pub(crate) struct GatherState<'a> {
    /// Remote streams, in partition order.
    pub(crate) pending: Vec<Pending<'a>>,
    /// Rows contributed without streaming (local scans, fresh cache
    /// hits, stale fallbacks); WAN rows are appended by the finish.
    gathered: Vec<Vec<Value>>,
    /// Where this gather's entries start in its explain report.
    first_entry: usize,
    /// The owning query's absolute deadline (simulated time).
    pub(crate) deadline: f64,
}

/// What one stream currently has on the wire.
enum Flight {
    /// Nothing — ready to launch the request or the next batch, or the
    /// stream is complete.
    Idle,
    /// The EMQ1 scan-request frame, kept so the site decodes exactly
    /// what was delivered.
    Request {
        /// The in-flight transfer.
        id: TransferId,
        /// The frame bytes.
        frame: Vec<u8>,
    },
    /// An EMB1 row-batch frame, kept so the hub can account and decode
    /// it the moment it is delivered.
    Batch {
        /// The in-flight transfer.
        id: TransferId,
        /// The frame bytes.
        frame: Vec<u8>,
    },
}

/// Project full-partition rows (all `ft` columns, site-schema order)
/// onto the plan's shipped column subset.
fn project(rows: &[Vec<Value>], ft: &ForeignTable, cols: &[String]) -> Vec<Vec<Value>> {
    let idx: Vec<usize> = cols
        .iter()
        .filter_map(|c| ft.columns.iter().position(|(n, _)| n == c))
        .collect();
    rows.iter()
        .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
        .collect()
}

impl TableGather<'_> {
    /// Raw full-partition rows (a replica copy or a cache-refilling
    /// scan) as the rows a live site would have shipped for this leg: a
    /// partial-aggregate request re-runs its grouped statement over
    /// them, anything else projects the shipped columns.
    pub(crate) fn shipped_from_raw(
        &self,
        hub_db: &Database,
        raw: &[Vec<Value>],
    ) -> Result<Vec<Vec<Value>>, FedError> {
        if self.request.partial_agg.is_some() {
            partial_from_raw(hub_db, self.ft, &self.request, raw)
        } else {
            Ok(project(raw, self.ft, self.columns))
        }
    }
}

impl Federation {
    /// Phase 1 of a gather: walk the table's partitions, pruning,
    /// scanning local partitions in place, serving fresh replica hits,
    /// and applying the breaker/outage pre-checks — building one
    /// [`Pending`] stream per partition that must go over the WAN.
    /// Touches no wire; the pump does that.
    pub(crate) fn prepare_gather<'s>(
        &'s self,
        net: &mut SimNet,
        hub_db: &mut Database,
        obs: Option<&Obs>,
        g: &TableGather<'_>,
        deadline: f64,
        explain: &mut FedExplain,
    ) -> Result<GatherState<'s>, FedError> {
        let ft = g.ft;
        let request = &g.request;
        // Entries this gather appends start here: a JOIN visits the
        // same site once per leg, so later bookkeeping must not touch
        // an earlier leg's entries.
        let first_entry = explain.sites.len();
        let mut gathered: Vec<Vec<Value>> = Vec::new();
        let mut pending: Vec<Pending<'s>> = Vec::new();

        for p in &ft.partitions {
            let base = g.shipping.entry(p);
            // An empty semi-join key set skips every partition: no row
            // of this table can join.
            if g.skip_all || base.pruned {
                ROWS_PRUNED.add(obs, &base.site, p.est_rows.get());
                explain.sites.push(SiteExplain {
                    pruned: true,
                    ..base
                });
                continue;
            }
            match &p.server {
                None => {
                    // Local partition: scan in place, no wire traffic.
                    gathered.extend(scan_rows(hub_db, request)?);
                    explain.sites.push(base);
                }
                Some(server) => {
                    let site = self.sites.get(server).ok_or_else(|| {
                        FedError::Catalog(CatalogError::UnknownServer(server.clone()))
                    })?;
                    // Rung 2 first: an open breaker denies the site
                    // without touching the WAN at all.
                    let verdict = site.breaker.borrow_mut().check(net.now());
                    self.set_breaker_gauge(obs, site);
                    // `Some(hint)`: the site is out for this query;
                    // the hint is an open breaker's retry-after.
                    let mut dead = None;
                    if let BreakerCheck::Deny { retry_after_secs } = verdict {
                        dead = Some(Some(retry_after_secs));
                    } else if !site.is_up() {
                        // Software outage: nothing schedules its end, so
                        // retrying inside this query cannot help.
                        self.note_failure(net, obs, site);
                        dead = Some(None);
                    } else if !net.host_up(site.host) {
                        let up = net.host_up_after(site.host);
                        if !(up.is_finite() && up <= deadline) {
                            // Down past the deadline (or indefinitely):
                            // don't burn the budget waiting.
                            self.note_failure(net, obs, site);
                            dead = Some(None);
                        }
                        // Otherwise recovery is scheduled inside the
                        // deadline: the retry ladder will wait it out.
                    }
                    if let Some(retry_after) = dead {
                        self.fallback(
                            net,
                            hub_db,
                            obs,
                            site,
                            g,
                            explain,
                            &mut gathered,
                            retry_after,
                        )?;
                        continue;
                    }
                    // Rung 3 (happy side): a fresh replica copy answers
                    // with zero WAN traffic.
                    if let Some(cache) = &self.cache {
                        let mut c = cache.borrow_mut();
                        if let Some(e) = c.fresh(&site.name, &ft.name, net.now()) {
                            let rows = g.shipped_from_raw(hub_db, &e.rows)?;
                            drop(c);
                            CACHE_HITS.add(obs, &site.name, 1);
                            explain.sites.push(SiteExplain {
                                source: SiteSource::CacheFresh,
                                ..base
                            });
                            gathered.extend(rows);
                            continue;
                        }
                    }
                    // WAN scan. Cacheable partitions ship the *full*
                    // partition (all columns, no predicate/top-k) so the
                    // reply can refill the replica cache.
                    let cache_fill = self
                        .cache
                        .as_ref()
                        .is_some_and(|c| c.borrow().cacheable(p.est_rows.get()));
                    let req = if cache_fill {
                        ScanRequest {
                            table: ft.name.clone(),
                            columns: ft.columns.iter().map(|(c, _)| c.clone()).collect(),
                            predicate: String::new(),
                            params: vec![],
                            order_by: vec![],
                            limit: None,
                            resume_from: 0,
                            key_filter: None,
                            partial_agg: None,
                        }
                    } else {
                        request.clone()
                    };
                    pending.push(Pending {
                        site,
                        request: req,
                        frames: Vec::new().into_iter(),
                        rows: Vec::new(),
                        cursor: 0,
                        last_write_counter: 0,
                        bytes: 0,
                        retries: 0,
                        failed: false,
                        expired: false,
                        cache_fill,
                    });
                    explain.sites.push(SiteExplain {
                        source: if cache_fill {
                            SiteSource::CacheFill
                        } else {
                            SiteSource::Wan
                        },
                        ..base
                    });
                }
            }
        }

        Ok(GatherState {
            pending,
            gathered,
            first_entry,
            deadline,
        })
    }

    /// Phase 2 of a gather, the event-driven pump: every stream of
    /// every listed group (a gather's streams and its query's deadline)
    /// shares one clock-ordered loop over
    /// [`SimNet::run_until_any_settled`].
    ///
    /// Scan requests all launch immediately and overlap; each site then
    /// streams its row batches one frame in flight (at most
    /// [`DEFAULT_WINDOW`] concurrent batch frames per group), and
    /// `accept_batch` runs the moment a frame is delivered — merge work
    /// starts when the *first* batch lands, not when the slowest site's
    /// last one does. Each
    /// stream keeps its own stall clock: a transfer that moves no bytes
    /// for a full stall quantum is cancelled alone while its peers keep
    /// streaming. The wait is scoped to the pump's own transfers:
    /// unrelated traffic shares bandwidth and keeps flowing, but is
    /// never waited on, settled or cancelled.
    ///
    /// A stream leaves the pump complete or `failed`; a failed one
    /// re-enters through [`Federation::recover`] with its request's
    /// `resume_from` at the cursor.
    pub(crate) fn pump(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        obs: Option<&Obs>,
        groups: &mut [(&mut [Pending<'_>], f64)],
    ) -> Result<(), FedError> {
        let stall = self.retry.stall_timeout_s.max(1e-3);
        let mut flights: Vec<Vec<Flight>> = groups
            .iter()
            .map(|(ps, _)| ps.iter().map(|_| Flight::Idle).collect())
            .collect();
        let mut requested: Vec<Vec<bool>> =
            groups.iter().map(|(ps, _)| vec![false; ps.len()]).collect();
        // Per-stream stall clock: (last progress time, bytes then).
        let mut progress: Vec<Vec<(f64, f64)>> = groups
            .iter()
            .map(|(ps, _)| vec![(0.0, 0.0); ps.len()])
            .collect();
        loop {
            // Launch phase: start whatever each idle stream needs next.
            let now = net.now();
            for (gi, (ps, deadline)) in groups.iter_mut().enumerate() {
                let mut batches_inflight = flights[gi]
                    .iter()
                    .filter(|f| matches!(f, Flight::Batch { .. }))
                    .count();
                for (pi, p) in ps.iter_mut().enumerate() {
                    if p.failed || !matches!(flights[gi][pi], Flight::Idle) {
                        continue;
                    }
                    let wants_request = !requested[gi][pi];
                    if !wants_request && p.frames.len() == 0 {
                        // Request delivered and every frame accepted —
                        // the stream is complete.
                        continue;
                    }
                    // Deadline backpressure covers the scatter and the
                    // stream: at `now >= deadline` nothing more leaves
                    // either end — a shed or abandoned query must not
                    // keep streaming WAN work nobody will consume.
                    if now >= *deadline {
                        p.failed = true;
                        p.expired = true;
                        DEADLINE_CANCELLED.add(obs, &p.site.name, 1);
                        continue;
                    }
                    let launched = if wants_request {
                        requested[gi][pi] = true;
                        let frame = p.request.encode();
                        net.try_transfer(hub_host, p.site.host, frame.len() as f64)
                            .map(|id| Flight::Request { id, frame })
                    } else if batches_inflight >= DEFAULT_WINDOW {
                        continue;
                    } else {
                        let frame = p.frames.next().expect("len checked above");
                        net.try_transfer(p.site.host, hub_host, frame.len() as f64)
                            .map(|id| {
                                batches_inflight += 1;
                                Flight::Batch { id, frame }
                            })
                    };
                    match launched {
                        Some(flight) => {
                            progress[gi][pi] = (now, 0.0);
                            flights[gi][pi] = flight;
                        }
                        None => p.failed = true,
                    }
                }
            }
            // Wait phase: sleep until the first of *our* transfers
            // settles or the nearest stall horizon passes.
            let mut ids: Vec<TransferId> = Vec::new();
            let mut horizon = f64::INFINITY;
            for (gi, fl) in flights.iter().enumerate() {
                for (pi, f) in fl.iter().enumerate() {
                    let id = match f {
                        Flight::Request { id, .. } | Flight::Batch { id, .. } => *id,
                        Flight::Idle => continue,
                    };
                    ids.push(id);
                    horizon = horizon.min(progress[gi][pi].0 + stall);
                }
            }
            if ids.is_empty() {
                return Ok(());
            }
            let now = net.run_until_any_settled(&ids, horizon);
            // Process phase: account deliveries the moment they land.
            for (gi, (ps, _)) in groups.iter_mut().enumerate() {
                for (pi, p) in ps.iter_mut().enumerate() {
                    let fl = &mut flights[gi][pi];
                    let id = match fl {
                        Flight::Request { id, .. } | Flight::Batch { id, .. } => *id,
                        Flight::Idle => continue,
                    };
                    let status = net.transfer_status(id);
                    // A final status is read once, here: release it (a no-op
                    // while the transfer is in flight).
                    net.release_transfer(id);
                    match status {
                        TransferStatus::Done(_) => match std::mem::replace(fl, Flight::Idle) {
                            Flight::Request { frame, .. } => {
                                p.bytes += frame.len() as u64;
                                self.serve_request(p, &frame)?;
                            }
                            Flight::Batch { frame, .. } => {
                                // All delivered wire traffic counts,
                                // even a frame the sequence check then
                                // discards (DESIGN.md "Wire
                                // accounting").
                                p.bytes += frame.len() as u64;
                                self.accept_batch(p, &frame)?;
                            }
                            Flight::Idle => unreachable!("matched above"),
                        },
                        TransferStatus::Failed { .. } => {
                            *fl = Flight::Idle;
                            p.failed = true;
                        }
                        TransferStatus::InFlight { bytes_moved } => {
                            let (t_last, b_last) = &mut progress[gi][pi];
                            if bytes_moved > *b_last + 1e-9 {
                                *b_last = bytes_moved;
                                *t_last = now;
                            } else if now >= *t_last + stall - 1e-9 {
                                // Individual stall cancellation: this
                                // stream's peers keep streaming.
                                net.cancel_transfer(id);
                                net.release_transfer(id);
                                *fl = Flight::Idle;
                                p.failed = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The site end of a delivered scan request: unless its service is
    /// down, the site decodes the frame and executes the scan at
    /// request-delivery time, framing the batches past the request's
    /// resume cursor and stamping its write counter.
    fn serve_request(&self, p: &mut Pending<'_>, frame: &[u8]) -> Result<(), FedError> {
        if !p.site.is_up() {
            p.failed = true;
            return Ok(());
        }
        let frames = serve_scan(&mut p.site.db.borrow_mut(), frame, self.batch_rows)?;
        p.frames = frames.into_iter();
        Ok(())
    }

    /// Decode a delivered batch frame into `p`, enforcing sequence
    /// contiguity and feeding the write counter to the replica cache's
    /// invalidation protocol.
    ///
    /// Callers account `frame.len()` into `p.bytes` *before* this runs:
    /// a delivered-but-out-of-sequence frame still crossed the WAN, so
    /// its bytes count even though its rows are discarded and re-shipped
    /// after resume. `bytes_wire` is deliberately transport accounting
    /// (all delivered traffic); `rows_shipped` is the useful measure.
    fn accept_batch(&self, p: &mut Pending<'_>, frame: &[u8]) -> Result<(), FedError> {
        let batch = decode_batch(frame).map_err(|e| FedError::Wire(e.to_string()))?;
        if u64::from(batch.seq) != p.cursor {
            // A gap means an earlier frame was lost: resume will
            // re-request from the cursor.
            p.failed = true;
            return Ok(());
        }
        p.cursor += 1;
        p.last_write_counter = batch.write_counter;
        if let Some(cache) = &self.cache {
            cache
                .borrow_mut()
                .note_write_counter(&p.site.name, batch.write_counter);
        }
        p.rows.extend(batch.rows);
        Ok(())
    }

    /// Phase 3 of a gather: the sequential degradation ladder for
    /// whatever the pump left unfinished, then metrics/EXPLAIN
    /// bookkeeping and the replica-cache refill. Returns the gathered
    /// rows (request-column order).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_gather(
        &self,
        net: &mut SimNet,
        hub_host: HostId,
        hub_db: &Database,
        obs: Option<&Obs>,
        g: &TableGather<'_>,
        st: GatherState<'_>,
        explain: &mut FedExplain,
    ) -> Result<Vec<Vec<Value>>, FedError> {
        let GatherState {
            mut pending,
            mut gathered,
            first_entry,
            deadline,
        } = st;

        // Rung 1: failed streams go through the retry/resume loop under
        // the deadline budget; the verdict feeds each site's breaker.
        for p in &mut pending {
            if p.failed && p.expired {
                // Client-side deadline cancellation: the budget is
                // already spent, so retrying cannot help, and the site
                // did nothing wrong, so its breaker must not trip —
                // otherwise an overloaded *hub* would lock healthy
                // sites out for subsequent queries.
                continue;
            }
            if !p.failed || self.recover(net, hub_host, obs, p, deadline)? {
                p.failed = false;
                p.site.breaker.borrow_mut().on_success();
            } else {
                self.note_failure(net, obs, p.site);
            }
            self.set_breaker_gauge(obs, p.site);
        }

        // Outcome per remote site: still-dead sites climb the rest of
        // the ladder; live ones contribute rows and fill metrics/explain.
        for p in pending {
            // Only the entry this gather added for the site; a JOIN's
            // other legs keep theirs.
            let entry = explain
                .sites
                .iter()
                .skip(first_entry)
                .position(|s| s.site == p.site.name && s.table == g.shipping.table)
                .map(|i| i + first_entry);
            if p.failed {
                if let Some(pos) = entry {
                    explain.sites.remove(pos);
                }
                self.fallback(net, hub_db, obs, p.site, g, explain, &mut gathered, None)?;
                continue;
            }
            let nrows = p.rows.len() as u64;
            ROWS_SHIPPED.add(obs, &p.site.name, nrows);
            BYTES_WIRE.add(obs, &p.site.name, p.bytes);
            if g.request.partial_agg.is_some() && !p.cache_fill {
                PARTIAL_AGG_GROUPS_SHIPPED.add(obs, &p.site.name, nrows);
            }
            if let Some(pos) = entry {
                let s = &mut explain.sites[pos];
                s.rows_shipped = nrows;
                s.bytes_wire = p.bytes;
                s.retries = p.retries;
            }
            if p.cache_fill {
                // A cache-refilling scan shipped the raw partition; the
                // replica keeps it even when this statement cannot use it.
                let shipped = g.shipped_from_raw(hub_db, &p.rows);
                if let Some(cache) = &self.cache {
                    cache.borrow_mut().store(
                        &p.site.name,
                        &g.ft.name,
                        p.rows,
                        p.last_write_counter,
                        net.now(),
                    );
                }
                gathered.extend(shipped?);
            } else {
                gathered.extend(p.rows);
            }
        }

        Ok(gathered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::frame_batches;

    #[test]
    fn wire_accounting_counts_every_delivered_frame() {
        // Pins the transport-accounting semantics from DESIGN.md "Wire
        // accounting": a delivered-but-out-of-sequence frame is real
        // WAN traffic, so its bytes stay booked even though the gap
        // check discards its rows; the resume re-ship is booked again;
        // rows count exactly once.
        let mut fed = Federation::default();
        let cam = SimNet::new().add_host("cam", 2);
        fed.add_site("cam", cam, Database::new_in_memory());
        let site = fed.site("cam").unwrap();
        let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
        let frames = frame_batches(&rows, 2, 0, 7);
        assert_eq!(frames.len(), 2);
        let mut p = Pending {
            site,
            request: ScanRequest {
                table: "SIM".into(),
                columns: vec!["N".into()],
                predicate: String::new(),
                params: vec![],
                order_by: vec![],
                limit: None,
                resume_from: 0,
                key_filter: None,
                partial_agg: None,
            },
            frames: Vec::new().into_iter(),
            rows: Vec::new(),
            cursor: 0,
            last_write_counter: 0,
            bytes: 0,
            retries: 0,
            failed: false,
            expired: false,
            cache_fill: false,
        };
        // Frame seq 1 arrives while seq 0 was lost: the caller books
        // its bytes before accept_batch detects the gap.
        p.bytes += frames[1].len() as u64;
        fed.accept_batch(&mut p, &frames[1]).unwrap();
        assert!(p.failed, "a sequence gap fails the stream");
        assert_eq!(p.rows.len(), 0, "discarded frame contributes no rows");
        assert_eq!(p.cursor, 0);
        // Resume re-ships from the cursor; every delivered frame is
        // accounted again.
        p.failed = false;
        for f in frame_batches(&rows, 2, p.cursor, 7) {
            p.bytes += f.len() as u64;
            fed.accept_batch(&mut p, &f).unwrap();
        }
        assert!(!p.failed);
        assert_eq!(p.rows.len(), 4, "rows are counted exactly once");
        assert_eq!(p.cursor, 2);
        let expected = (frames[0].len() + 2 * frames[1].len()) as u64;
        assert_eq!(
            p.bytes, expected,
            "wire bytes = all delivered traffic, not useful payload"
        );
    }
}
