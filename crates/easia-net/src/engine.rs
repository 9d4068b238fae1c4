//! The fluid-flow discrete-event simulation engine.
//!
//! Transfers are modelled as fluid flows: while active, a transfer
//! proceeds at the minimum over its path's directed links of
//! `capacity(link, t) / concurrent_flows(link)` — equal sharing at every
//! link, which for the star/dumbbell topologies of the experiments equals
//! max–min fairness. CPU jobs similarly share a host's cores equally.
//! The clock advances directly to the next "interesting" instant: a
//! transfer activation (after path latency), a completion, or a bandwidth
//! profile boundary, recomputing rates at each step. With piecewise-
//! constant profiles this is exact, not an approximation.

use crate::fault::FaultSchedule;
use crate::topology::{Hop, HostId, LinkId, LinkSpec, Topology};
use std::collections::HashMap;

/// Identifier of a transfer started on a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId(u64);

/// Identifier of a CPU job started on a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

/// Completion record for a transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// When the transfer was initiated.
    pub start: f64,
    /// When the last byte arrived.
    pub end: f64,
    /// Payload size in bytes.
    pub bytes: f64,
}

impl TransferRecord {
    /// End-to-end duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Completion record for a CPU job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// When the job was submitted.
    pub start: f64,
    /// When it finished.
    pub end: f64,
    /// CPU-seconds of work it contained.
    pub cpu_secs: f64,
}

impl JobRecord {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Why a transfer stopped without delivering all its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferFailure {
    /// A host on the transfer's path crashed mid-flight.
    HostDown(HostId),
    /// The transfer was cancelled by [`SimNet::cancel_transfer`].
    Cancelled,
}

/// Observable state of a transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferStatus {
    /// Still moving (or stalled waiting for capacity).
    InFlight {
        /// Bytes delivered so far.
        bytes_moved: f64,
    },
    /// All bytes delivered.
    Done(TransferRecord),
    /// Aborted mid-flight.
    Failed {
        /// Instant the transfer failed.
        at: f64,
        /// Bytes delivered before the failure (usable for offset resume).
        bytes_moved: f64,
        /// What went wrong.
        reason: TransferFailure,
    },
}

/// A transfer the engine still moves: everything the event loop needs.
#[derive(Debug)]
struct Flow {
    /// Its [`TransferId`].
    id: usize,
    bytes: f64,
    remaining: f64,
    hops: Vec<Hop>,
    /// Every host the flow traverses (endpoints included): a crash of
    /// any of them aborts the transfer.
    path_hosts: Vec<HostId>,
    start: f64,
    /// Instant the flow begins moving bytes (start + path latency).
    activate_at: f64,
}

impl Flow {
    /// This flow aborted at `at`: delivered bytes stay counted so clients
    /// can resume from an offset.
    fn aborted(&self, at: f64, reason: TransferFailure) -> TransferStatus {
        TransferStatus::Failed {
            at,
            bytes_moved: self.bytes - self.remaining,
            reason,
        }
    }
}

/// One slot of the job history: a settled job shrinks to its record.
#[derive(Debug)]
enum Job {
    Running {
        host: HostId,
        cpu_secs: f64,
        remaining: f64,
        start: f64,
    },
    Done(JobRecord),
    Failed,
}

/// The simulator. See the crate docs for the model.
#[derive(Debug, Default)]
pub struct SimNet {
    topo: Topology,
    clock: f64,
    /// The transfers still moving, in id order (so flows are advanced,
    /// and `link_bytes` summed, in id order): all the event loop walks.
    flows: Vec<Flow>,
    /// The final status of every settled transfer not yet released.
    settled: HashMap<usize, TransferStatus>,
    /// The id the next transfer gets.
    next_transfer: usize,
    jobs: Vec<Job>,
    /// Indices of the jobs that may still be running, in ascending
    /// order; an entry that settled is dropped by
    /// [`SimNet::apply_host_faults`].
    live_jobs: Vec<usize>,
    /// Cumulative bytes carried per link (both directions), for
    /// bytes-over-bottleneck accounting in the experiments.
    link_bytes: HashMap<LinkId, f64>,
    /// Injected faults; empty by default.
    faults: FaultSchedule,
}

/// Comparison slack for event times, in seconds.
const EPS: f64 = 1e-9;
/// Completion slack for residual work (bytes / CPU-seconds): after the
/// scheduled completion instant, accumulated f64 error can leave a
/// residual too small to advance the clock but larger than a purely
/// relative threshold; a micro-byte / microsecond absolute floor
/// guarantees termination.
const BYTE_EPS: f64 = 1e-6;

impl SimNet {
    /// Create an empty network with the clock at 0.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Jump the clock forward to `t` (processing events on the way).
    /// Panics if `t` is in the past.
    pub fn run_until(&mut self, t: f64) {
        assert!(t + EPS >= self.clock, "cannot run backwards");
        self.drive(Some(t));
    }

    /// Run until no transfer or job remains active. Returns the clock.
    pub fn run_until_idle(&mut self) -> f64 {
        self.drive(None);
        self.clock
    }

    /// Advance the clock event-by-event until **any** transfer in `ids`
    /// settles (delivers its last byte, fails on a crashed host, or was
    /// already cancelled), or until `t_max`, whichever comes first.
    /// Returns the clock.
    ///
    /// Unlisted transfers keep flowing normally — they share bandwidth
    /// and may complete during the wait, but they never end it. This is
    /// the primitive event-driven callers use to wait on *their own*
    /// transfers without settling the whole network, so concurrent
    /// streams can interleave their waits. Returns immediately (clock
    /// unchanged) when a listed transfer has already settled or when
    /// `t_max` is not in the future.
    pub fn run_until_any_settled(&mut self, ids: &[TransferId], t_max: f64) -> f64 {
        let target = t_max.max(self.clock);
        self.drive_until(Some(target), Some(ids));
        self.clock
    }

    /// Add a host with `cpus` cores.
    pub fn add_host(&mut self, name: &str, cpus: u32) -> HostId {
        self.topo.add_host(name, cpus)
    }

    /// Host name lookup.
    pub fn host_name(&self, h: HostId) -> &str {
        &self.topo.hosts[h.0 as usize].name
    }

    /// Find a host by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.topo
            .hosts
            .iter()
            .position(|h| h.name == name)
            .map(|i| HostId(i as u32))
    }

    /// Connect two hosts with a duplex link.
    pub fn connect(&mut self, a: HostId, b: HostId, spec: LinkSpec) -> LinkId {
        self.topo.connect(a, b, spec)
    }

    /// All link ids in the topology (for fault-storm generation).
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.topo.links.len() as u32).map(LinkId).collect()
    }

    /// Install a fault schedule. Replaces any previous schedule; takes
    /// effect from the current clock onward.
    pub fn set_fault_schedule(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// The installed fault schedule.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Is `host` up at the current simulated time?
    pub fn host_up(&self, host: HostId) -> bool {
        !self.faults.host_down(host, self.clock)
    }

    /// Earliest instant `>=` now at which `host` is up (now itself when
    /// already up) — the basis for retry-after hints.
    pub fn host_up_after(&self, host: HostId) -> f64 {
        self.faults.host_up_after(host, self.clock)
    }

    /// Like [`SimNet::transfer`], but returns `None` instead of
    /// panicking when no route exists between the endpoints. Federation
    /// layers use this so a mis-registered site degrades to a typed
    /// error rather than aborting the whole process.
    pub fn try_transfer(&mut self, src: HostId, dst: HostId, bytes: f64) -> Option<TransferId> {
        self.topo.route(src, dst)?;
        Some(self.transfer(src, dst, bytes))
    }

    /// Begin transferring `bytes` from `src` to `dst` at the current time.
    /// Panics if no route exists.
    pub fn transfer(&mut self, src: HostId, dst: HostId, bytes: f64) -> TransferId {
        assert!(bytes >= 0.0 && bytes.is_finite(), "invalid byte count");
        let hops = self.topo.route(src, dst).unwrap_or_else(|| {
            panic!(
                "no route {} -> {}",
                self.host_name(src),
                self.host_name(dst)
            )
        });
        let latency = self.topo.path_latency(&hops);
        let path_hosts = self.topo.path_hosts(src, &hops);
        let id = self.next_transfer;
        self.next_transfer += 1;
        // A transfer started towards (or through) a dead host observes
        // the failure immediately.
        let dead = path_hosts
            .iter()
            .find(|&&h| self.faults.host_down(h, self.clock))
            .copied();
        let settled = if let Some(h) = dead {
            TransferStatus::Failed {
                at: self.clock,
                bytes_moved: 0.0,
                reason: TransferFailure::HostDown(h),
            }
        } else if hops.is_empty() || bytes == 0.0 {
            // Local (same-host) or empty transfers complete immediately.
            TransferStatus::Done(TransferRecord {
                start: self.clock,
                end: self.clock + latency,
                bytes,
            })
        } else {
            self.flows.push(Flow {
                id,
                bytes,
                remaining: bytes,
                hops,
                path_hosts,
                start: self.clock,
                activate_at: self.clock + latency,
            });
            return TransferId(id as u64);
        };
        self.settled.insert(id, settled);
        TransferId(id as u64)
    }

    /// Begin a CPU job of `cpu_secs` seconds of single-core work on `host`.
    pub fn job(&mut self, host: HostId, cpu_secs: f64) -> JobId {
        assert!(cpu_secs >= 0.0 && cpu_secs.is_finite(), "invalid job size");
        let id = JobId(self.jobs.len() as u64);
        let slot = if self.faults.host_down(host, self.clock) {
            Job::Failed
        } else if cpu_secs == 0.0 {
            Job::Done(JobRecord {
                start: self.clock,
                end: self.clock,
                cpu_secs,
            })
        } else {
            self.live_jobs.push(self.jobs.len());
            Job::Running {
                host,
                cpu_secs,
                remaining: cpu_secs,
                start: self.clock,
            }
        };
        self.jobs.push(slot);
        id
    }

    /// Forget a settled transfer once its owner has read its final
    /// status: the history keeps the status of every settled id not yet
    /// released, so a long-lived owner that releases what it has read
    /// keeps it bounded. Asking about a released id panics. No-op while
    /// the transfer is still live.
    pub fn release_transfer(&mut self, id: TransferId) {
        self.settled.remove(&(id.0 as usize));
    }

    /// Completion record for a transfer, if it has finished.
    pub fn transfer_record(&self, id: TransferId) -> Option<TransferRecord> {
        match self.transfer_status(id) {
            TransferStatus::Done(rec) => Some(rec),
            _ => None,
        }
    }

    /// Completion record for a job, if it has finished.
    pub fn job_record(&self, id: JobId) -> Option<JobRecord> {
        match &self.jobs[id.0 as usize] {
            Job::Done(rec) => Some(rec.clone()),
            _ => None,
        }
    }

    /// True when the job was killed by a host crash.
    pub fn job_failed(&self, id: JobId) -> bool {
        matches!(self.jobs[id.0 as usize], Job::Failed)
    }

    /// Observable state of a transfer.
    pub fn transfer_status(&self, id: TransferId) -> TransferStatus {
        let i = id.0 as usize;
        if let Some(status) = self.settled.get(&i) {
            return status.clone();
        }
        let at = self.flow_at(i);
        let f = &self.flows[at.unwrap_or_else(|| panic!("transfer {i} was released"))];
        TransferStatus::InFlight {
            bytes_moved: f.bytes - f.remaining,
        }
    }

    /// Where transfer `id` is in `flows`, while it is live.
    fn flow_at(&self, id: usize) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Bytes a transfer has delivered so far (full size once done).
    pub fn transfer_bytes_moved(&self, id: TransferId) -> f64 {
        match self.transfer_status(id) {
            TransferStatus::Done(rec) => rec.bytes,
            TransferStatus::InFlight { bytes_moved }
            | TransferStatus::Failed { bytes_moved, .. } => bytes_moved,
        }
    }

    /// Abort an in-flight transfer at the current instant. Bytes already
    /// delivered stay counted (supporting offset-based resume). No-op on
    /// transfers that already finished or failed.
    pub fn cancel_transfer(&mut self, id: TransferId) {
        if let Some(at) = self.flow_at(id.0 as usize) {
            let f = self.flows.remove(at);
            let status = f.aborted(self.clock, TransferFailure::Cancelled);
            self.settled.insert(f.id, status);
        }
    }

    /// Total bytes that have crossed `link` in either direction.
    pub fn link_bytes(&self, link: LinkId) -> f64 {
        self.link_bytes.get(&link).copied().unwrap_or(0.0)
    }

    /// True when no transfer or job is still running (failed work counts
    /// as settled).
    pub fn is_idle(&self) -> bool {
        self.flows.is_empty() && self.running_jobs().next().is_none()
    }

    /// The host of every running job, in id order.
    fn running_jobs(&self) -> impl Iterator<Item = (usize, HostId)> + '_ {
        self.live_jobs.iter().filter_map(|&i| match self.jobs[i] {
            Job::Running { host, .. } => Some((i, host)),
            _ => None,
        })
    }

    /// Per-flow rates (bytes/sec) for currently *flowing* transfers, and
    /// per-job progress rates, under equal per-link / per-host sharing.
    #[allow(clippy::type_complexity)]
    fn compute_rates(&self) -> (Vec<(usize, f64)>, Vec<(usize, f64)>) {
        // Flows stalled by a zero-capacity hop (link outage) consume no
        // bandwidth anywhere, so they must not count as users on their
        // healthy hops — otherwise a dead flow would halve a live one.
        let hop_capacity = |h: Hop| -> f64 {
            self.topo.profile(h).at(self.clock) * self.faults.link_factor(h.link, self.clock)
        };
        // Count flows per directed hop.
        let mut users: HashMap<Hop, u32> = HashMap::new();
        let mut flowing: Vec<(usize, &Flow)> = Vec::new();
        for (i, t) in self.flows.iter().enumerate() {
            if t.activate_at <= self.clock + EPS {
                if t.hops.iter().any(|&h| hop_capacity(h) == 0.0) {
                    continue; // stalled: contributes no load
                }
                flowing.push((i, t));
                for &h in &t.hops {
                    *users.entry(h).or_insert(0) += 1;
                }
            }
        }
        let mut trates = Vec::with_capacity(flowing.len());
        for &(i, t) in &flowing {
            let mut rate_bits = f64::INFINITY;
            for &h in &t.hops {
                let share = hop_capacity(h) / f64::from(users[&h]);
                rate_bits = rate_bits.min(share);
            }
            trates.push((i, rate_bits / 8.0));
        }
        // Jobs: each active job on a host progresses at min(1, cpus/n).
        let mut per_host: HashMap<HostId, u32> = HashMap::new();
        let running: Vec<(usize, HostId)> = self.running_jobs().collect();
        for &(_, host) in &running {
            *per_host.entry(host).or_insert(0) += 1;
        }
        let mut jrates = Vec::with_capacity(running.len());
        for &(i, host) in &running {
            let n = f64::from(per_host[&host]);
            let cpus = f64::from(self.topo.hosts[host.0 as usize].cpus);
            jrates.push((i, (cpus / n).min(1.0)));
        }
        (trates, jrates)
    }

    fn drive(&mut self, until: Option<f64>) {
        self.drive_until(until, None);
    }

    /// The event loop. `until` bounds the clock; `stop_any` (when set)
    /// ends the drive as soon as any listed transfer stops being active,
    /// checked before each event step so an already-settled id returns
    /// without advancing time.
    fn drive_until(&mut self, until: Option<f64>, stop_any: Option<&[TransferId]>) {
        let mut iters = 0u64;
        loop {
            iters += 1;
            assert!(
                iters <= 50_000_000,
                "simulation stalled at clock={} (until {until:?})",
                self.clock
            );
            self.apply_host_faults();
            if let Some(ids) = stop_any {
                if ids.iter().any(|id| self.flow_at(id.0 as usize).is_none()) {
                    return;
                }
            }
            let (trates, jrates) = self.compute_rates();

            // Next event: completion, activation, or profile boundary.
            let mut next = until.unwrap_or(f64::INFINITY);
            let mut have_event = until.is_some();
            for &(i, rate) in &trates {
                if rate > 0.0 {
                    let eta = self.clock + self.flows[i].remaining / rate;
                    if eta < next {
                        next = eta;
                    }
                    have_event = true;
                }
            }
            for &(i, rate) in &jrates {
                let Job::Running { remaining, .. } = self.jobs[i] else {
                    unreachable!("job {i} settled mid-step");
                };
                let eta = self.clock + remaining / rate;
                if eta < next {
                    next = eta;
                }
                have_event = true;
            }
            for t in &self.flows {
                if t.activate_at > self.clock + EPS {
                    if t.activate_at < next {
                        next = t.activate_at;
                    }
                    have_event = true;
                }
            }
            // Profile boundaries only matter while flows are moving.
            for &(i, _) in &trates {
                for &h in &self.flows[i].hops {
                    if let Some(b) = self.topo.profile(h).next_boundary(self.clock) {
                        if b < next {
                            next = b;
                        }
                    }
                }
            }
            // Fault boundaries matter while any work is unfinished: an
            // outage ending un-stalls a flow, a crash starting kills one.
            if !self.faults.is_empty() && !self.is_idle() {
                if let Some(b) = self.faults.next_change(self.clock) {
                    if b < next {
                        next = b;
                    }
                    have_event = true;
                }
            }

            if !have_event || !next.is_finite() {
                return; // idle and no target time
            }
            let dt = (next - self.clock).max(0.0);

            // Advance all flows and jobs by dt at current rates; a flow
            // that delivered its last byte settles and leaves `flows`.
            let mut finished = false;
            for &(i, rate) in &trates {
                let t = &mut self.flows[i];
                let moved = (rate * dt).min(t.remaining);
                t.remaining -= moved;
                for h in &t.hops {
                    *self.link_bytes.entry(h.link).or_insert(0.0) += moved;
                }
                if t.remaining <= t.bytes * 1e-12 + BYTE_EPS {
                    let (start, end, bytes) = (t.start, next, t.bytes);
                    let done = TransferStatus::Done(TransferRecord { start, end, bytes });
                    self.settled.insert(t.id, done);
                    finished = true;
                }
            }
            if finished {
                let settled = &self.settled;
                self.flows.retain(|t| !settled.contains_key(&t.id));
            }
            for &(i, rate) in &jrates {
                let Job::Running {
                    cpu_secs,
                    remaining,
                    start,
                    ..
                } = &mut self.jobs[i]
                else {
                    unreachable!("job {i} settled mid-step");
                };
                *remaining -= (rate * dt).min(*remaining);
                if *remaining <= *cpu_secs * 1e-12 + BYTE_EPS {
                    self.jobs[i] = Job::Done(JobRecord {
                        start: *start,
                        end: next,
                        cpu_secs: *cpu_secs,
                    });
                }
            }
            self.clock = next;

            if let Some(target) = until {
                if self.clock + EPS >= target {
                    self.clock = target;
                    // Crash boundaries coinciding with the stop target
                    // must still be observed before handing back control.
                    self.apply_host_faults();
                    return;
                }
            } else if self.is_idle() {
                return;
            }
        }
    }

    /// Abort every active transfer whose path crosses a host that is
    /// down right now, and every active job on a down host. In-flight
    /// state on a crashed host is lost by definition; delivered bytes
    /// stay counted so clients can resume from an offset. Then forget
    /// the jobs that have settled — here, in the last step: `flows` and
    /// the live list keep their ascending order, and nothing walks the
    /// histories.
    fn apply_host_faults(&mut self) {
        let (clock, faults, settled) = (self.clock, &self.faults, &mut self.settled);
        self.flows.retain(|t| {
            let down = t
                .path_hosts
                .iter()
                .copied()
                .find(|&h| faults.host_down(h, clock));
            if let Some(h) = down {
                settled.insert(t.id, t.aborted(clock, TransferFailure::HostDown(h)));
            }
            down.is_none()
        });
        let jobs = &mut self.jobs;
        self.live_jobs.retain(|&i| {
            let Job::Running { host, .. } = jobs[i] else {
                return false;
            };
            let down = faults.host_down(host, clock);
            if down {
                jobs[i] = Job::Failed;
            }
            !down
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BandwidthProfile, Mbit, SECS_PER_DAY};

    const MB: f64 = 1_000_000.0;

    fn two_hosts(bps: f64) -> (SimNet, HostId, HostId) {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.connect(a, b, LinkSpec::symmetric(bps, 0.0));
        (net, a, b)
    }

    #[test]
    fn single_transfer_exact_time() {
        // The paper's Table 1 first row: 85 MB at 0.25 Mbit/s = 2720 s.
        let (mut net, a, b) = two_hosts(Mbit(0.25));
        let id = net.transfer(a, b, 85.0 * MB);
        net.run_until_idle();
        let rec = net.transfer_record(id).unwrap();
        assert!((rec.duration() - 2720.0).abs() < 1e-6, "{}", rec.duration());
    }

    #[test]
    fn latency_added_once() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.connect(
            a,
            b,
            LinkSpec {
                latency_s: 0.5,
                ab: BandwidthProfile::constant(8.0 * MB), // 1 MB/s
                ba: BandwidthProfile::constant(8.0 * MB),
            },
        );
        let id = net.transfer(a, b, 2.0 * MB);
        net.run_until_idle();
        let rec = net.transfer_record(id).unwrap();
        assert!((rec.duration() - 2.5).abs() < 1e-9, "{}", rec.duration());
    }

    #[test]
    fn fair_sharing_two_flows() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let t1 = net.transfer(a, b, 10.0 * MB);
        let t2 = net.transfer(a, b, 10.0 * MB);
        net.run_until_idle();
        // Both share the link: each finishes at 20 s.
        assert!((net.transfer_record(t1).unwrap().duration() - 20.0).abs() < 1e-6);
        assert!((net.transfer_record(t2).unwrap().duration() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn short_flow_releases_bandwidth() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let long = net.transfer(a, b, 10.0 * MB);
        let short = net.transfer(a, b, 2.0 * MB);
        net.run_until_idle();
        // Shared until the short one finishes at 4 s (2 MB at 0.5 MB/s);
        // the long one then has 8 MB left at full rate: 4 + 8 = 12 s.
        assert!((net.transfer_record(short).unwrap().duration() - 4.0).abs() < 1e-6);
        assert!((net.transfer_record(long).unwrap().duration() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn opposite_directions_do_not_share() {
        let (mut net, a, b) = two_hosts(Mbit(8.0));
        let t1 = net.transfer(a, b, 10.0 * MB);
        let t2 = net.transfer(b, a, 10.0 * MB);
        net.run_until_idle();
        assert!((net.transfer_record(t1).unwrap().duration() - 10.0).abs() < 1e-6);
        assert!((net.transfer_record(t2).unwrap().duration() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_governs_multihop() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let m = net.add_host("m", 1);
        let b = net.add_host("b", 1);
        net.connect(a, m, LinkSpec::symmetric(Mbit(80.0), 0.0));
        net.connect(m, b, LinkSpec::symmetric(Mbit(8.0), 0.0)); // 1 MB/s bottleneck
        let id = net.transfer(a, b, 5.0 * MB);
        net.run_until_idle();
        assert!((net.transfer_record(id).unwrap().duration() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn profile_boundary_mid_transfer() {
        // 1 MB/s until hour 1/3600·? — use a profile that doubles at 01:00.
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let prof = BandwidthProfile::from_segments(&[(0.0, 8.0 * MB), (1.0, 16.0 * MB)]);
        net.connect(
            a,
            b,
            LinkSpec {
                latency_s: 0.0,
                ab: prof.clone(),
                ba: prof,
            },
        );
        // Start 100 s before the boundary with 300 MB to move:
        net.run_until(3500.0);
        let id = net.transfer(a, b, 300.0 * MB);
        net.run_until_idle();
        // 100 s at 1 MB/s = 100 MB, then 200 MB at 2 MB/s = 100 s → 200 s.
        let rec = net.transfer_record(id).unwrap();
        assert!((rec.duration() - 200.0).abs() < 1e-6, "{}", rec.duration());
    }

    #[test]
    fn day_evening_wraps_next_day() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let prof = BandwidthProfile::day_evening(Mbit(0.25), Mbit(1.94));
        net.connect(
            a,
            b,
            LinkSpec {
                latency_s: 0.0,
                ab: prof.clone(),
                ba: prof,
            },
        );
        // Start an evening transfer at 20:00; it should run at 1.94 Mbit/s.
        net.run_until(BandwidthProfile::instant(0, 20.0));
        let id = net.transfer(a, b, 85.0 * MB);
        net.run_until_idle();
        let rec = net.transfer_record(id).unwrap();
        let expect = 85.0 * MB * 8.0 / Mbit(1.94);
        assert!((rec.duration() - expect).abs() < 1e-6);
        assert!(rec.end < SECS_PER_DAY, "finishes the same night");
    }

    #[test]
    fn cpu_jobs_share_cores() {
        let mut net = SimNet::new();
        let h = net.add_host("h", 2);
        let j1 = net.job(h, 10.0);
        let j2 = net.job(h, 10.0);
        let j3 = net.job(h, 10.0);
        let j4 = net.job(h, 10.0);
        net.run_until_idle();
        // 4 jobs on 2 cores: each runs at 0.5x → 20 s.
        for j in [j1, j2, j3, j4] {
            assert!((net.job_record(j).unwrap().duration() - 20.0).abs() < 1e-6);
        }
    }

    #[test]
    fn job_alone_runs_full_speed() {
        let mut net = SimNet::new();
        let h = net.add_host("h", 4);
        let j = net.job(h, 7.0);
        net.run_until_idle();
        assert!((net.job_record(j).unwrap().duration() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn local_transfer_instant() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let id = net.transfer(a, a, 100.0 * MB);
        assert!(net.transfer_record(id).is_some());
    }

    #[test]
    fn link_byte_accounting() {
        let (mut net, a, b) = two_hosts(Mbit(8.0));
        net.transfer(a, b, 3.0 * MB);
        net.transfer(b, a, 2.0 * MB);
        net.run_until_idle();
        assert!((net.link_bytes(LinkId(0)) - 5.0 * MB).abs() < 1.0);
    }

    #[test]
    fn run_until_partial_progress() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let id = net.transfer(a, b, 10.0 * MB);
        net.run_until(4.0);
        assert!(net.transfer_record(id).is_none());
        assert_eq!(net.now(), 4.0);
        net.run_until_idle();
        assert!((net.transfer_record(id).unwrap().duration() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_completes() {
        let (mut net, a, b) = two_hosts(Mbit(1.0));
        let id = net.transfer(a, b, 0.0);
        assert!(net.transfer_record(id).is_some());
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_transfer_panics() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        net.transfer(a, b, 1.0);
    }

    // --- fault injection ---

    #[test]
    fn outage_stalls_then_resumes_exactly() {
        use crate::fault::FaultSchedule;
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let mut faults = FaultSchedule::new();
        faults.link_outage(LinkId(0), 3.0, 10.0);
        net.set_fault_schedule(faults);
        let id = net.transfer(a, b, 5.0 * MB);
        net.run_until_idle();
        // 3 s moving, 7 s dark, 2 s moving: finishes at 12 s exactly.
        let rec = net.transfer_record(id).unwrap();
        assert!((rec.duration() - 12.0).abs() < 1e-6, "{}", rec.duration());
    }

    #[test]
    fn degraded_window_slows_proportionally() {
        use crate::fault::FaultSchedule;
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let mut faults = FaultSchedule::new();
        faults.link_degraded(LinkId(0), 0.0, 100.0, 0.5);
        net.set_fault_schedule(faults);
        let id = net.transfer(a, b, 5.0 * MB);
        net.run_until_idle();
        // Half capacity the whole way: 10 s.
        let rec = net.transfer_record(id).unwrap();
        assert!((rec.duration() - 10.0).abs() < 1e-6, "{}", rec.duration());
    }

    #[test]
    fn stalled_flow_releases_bandwidth_to_others() {
        use crate::fault::FaultSchedule;
        use crate::profile::BandwidthProfile;
        // a—hub at 2 MB/s shared; hub—b dead, hub—c alive.
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let hub = net.add_host("hub", 1);
        let b = net.add_host("b", 1);
        let c = net.add_host("c", 1);
        let shared = net.connect(
            a,
            hub,
            LinkSpec {
                latency_s: 0.0,
                ab: BandwidthProfile::constant(16.0 * MB),
                ba: BandwidthProfile::constant(16.0 * MB),
            },
        );
        let to_b = net.connect(hub, b, LinkSpec::symmetric(16.0 * MB, 0.0));
        net.connect(hub, c, LinkSpec::symmetric(16.0 * MB, 0.0));
        let _ = shared;
        let mut faults = FaultSchedule::new();
        faults.link_outage(to_b, 0.0, 100.0);
        net.set_fault_schedule(faults);
        let stalled = net.transfer(a, b, 1.0 * MB);
        let live = net.transfer(a, c, 10.0 * MB);
        net.run_until(50.0);
        // The live flow must get the full 2 MB/s: done at 5 s, not 10.
        let rec = net.transfer_record(live).unwrap();
        assert!((rec.duration() - 5.0).abs() < 1e-6, "{}", rec.duration());
        assert!(net.transfer_record(stalled).is_none());
    }

    #[test]
    fn host_crash_aborts_inflight_transfer() {
        use crate::fault::FaultSchedule;
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let mut faults = FaultSchedule::new();
        faults.host_crash(b, 4.0, 30.0);
        net.set_fault_schedule(faults);
        let id = net.transfer(a, b, 10.0 * MB);
        net.run_until_idle();
        match net.transfer_status(id) {
            TransferStatus::Failed {
                at,
                bytes_moved,
                reason,
            } => {
                assert!((at - 4.0).abs() < 1e-9);
                assert!((bytes_moved - 4.0 * MB).abs() < 1.0);
                assert_eq!(reason, TransferFailure::HostDown(b));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(net.transfer_record(id).is_none());
        assert!(net.is_idle(), "failed transfer counts as settled");
    }

    #[test]
    fn transfer_to_dead_host_fails_immediately() {
        use crate::fault::FaultSchedule;
        let (mut net, a, b) = two_hosts(Mbit(8.0));
        let mut faults = FaultSchedule::new();
        faults.host_crash(b, 0.0, 60.0);
        net.set_fault_schedule(faults);
        let id = net.transfer(a, b, 1.0 * MB);
        assert!(matches!(
            net.transfer_status(id),
            TransferStatus::Failed { bytes_moved, .. } if bytes_moved == 0.0
        ));
        assert!(!net.host_up(b));
        assert_eq!(net.host_up_after(b), 60.0);
    }

    #[test]
    fn cancel_preserves_moved_bytes_for_resume() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let id = net.transfer(a, b, 10.0 * MB);
        net.run_until(4.0);
        net.cancel_transfer(id);
        match net.transfer_status(id) {
            TransferStatus::Failed {
                bytes_moved,
                reason,
                ..
            } => {
                assert!((bytes_moved - 4.0 * MB).abs() < 1.0);
                assert_eq!(reason, TransferFailure::Cancelled);
            }
            other => panic!("expected cancelled, got {other:?}"),
        }
        // Resume the remainder: completes in 6 more seconds.
        let rest = 10.0 * MB - net.transfer_bytes_moved(id);
        let id2 = net.transfer(a, b, rest);
        net.run_until_idle();
        let rec = net.transfer_record(id2).unwrap();
        assert!((rec.duration() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn crash_kills_job_on_host() {
        use crate::fault::FaultSchedule;
        let mut net = SimNet::new();
        let h = net.add_host("h", 1);
        let mut faults = FaultSchedule::new();
        faults.host_crash(h, 5.0, 20.0);
        net.set_fault_schedule(faults);
        let j = net.job(h, 10.0);
        net.run_until_idle();
        assert!(net.job_failed(j));
        assert!(net.job_record(j).is_none());
    }

    // --- event-driven settling ---

    #[test]
    fn any_settled_stops_at_first_listed_completion() {
        // Two disjoint paths from a: a—b (fast) and a—c (slow).
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let c = net.add_host("c", 1);
        net.connect(a, b, LinkSpec::symmetric(Mbit(8.0), 0.0)); // 1 MB/s
        net.connect(a, c, LinkSpec::symmetric(Mbit(8.0), 0.0));
        let fast = net.transfer(a, b, 2.0 * MB);
        let slow = net.transfer(a, c, 10.0 * MB);
        let t = net.run_until_any_settled(&[fast, slow], 1e9);
        assert!((t - 2.0).abs() < 1e-6, "stops at the fast completion: {t}");
        assert!(net.transfer_record(fast).is_some());
        assert!(matches!(
            net.transfer_status(slow),
            TransferStatus::InFlight { .. }
        ));
    }

    #[test]
    fn any_settled_ignores_unlisted_transfers() {
        let mut net = SimNet::new();
        let a = net.add_host("a", 1);
        let b = net.add_host("b", 1);
        let c = net.add_host("c", 1);
        net.connect(a, b, LinkSpec::symmetric(Mbit(8.0), 0.0));
        net.connect(a, c, LinkSpec::symmetric(Mbit(8.0), 0.0));
        let other = net.transfer(a, b, 1.0 * MB); // settles at 1 s — unlisted
        let mine = net.transfer(a, c, 5.0 * MB);
        let t = net.run_until_any_settled(&[mine], 1e9);
        // The unlisted flow finishing at 1 s must not end the wait.
        assert!((t - 5.0).abs() < 1e-6, "waits for the listed flow: {t}");
        assert!(net.transfer_record(other).is_some());
        assert!(net.transfer_record(mine).is_some());
    }

    #[test]
    fn any_settled_already_settled_returns_without_advancing() {
        let (mut net, a, b) = two_hosts(Mbit(8.0));
        let id = net.transfer(a, b, 1.0 * MB);
        net.run_until_idle();
        let before = net.now();
        let t = net.run_until_any_settled(&[id], 1e9);
        assert_eq!(t, before);
    }

    #[test]
    fn any_settled_caps_at_t_max() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let id = net.transfer(a, b, 10.0 * MB);
        let t = net.run_until_any_settled(&[id], 3.0);
        assert!((t - 3.0).abs() < 1e-9);
        assert!(matches!(
            net.transfer_status(id),
            TransferStatus::InFlight { bytes_moved } if (bytes_moved - 3.0 * MB).abs() < 1.0
        ));
    }

    #[test]
    fn any_settled_observes_host_crash_failures() {
        use crate::fault::FaultSchedule;
        let (mut net, a, b) = two_hosts(Mbit(8.0));
        let mut faults = FaultSchedule::new();
        faults.host_crash(b, 4.0, 30.0);
        net.set_fault_schedule(faults);
        let id = net.transfer(a, b, 10.0 * MB);
        let t = net.run_until_any_settled(&[id], 1e9);
        assert!((t - 4.0).abs() < 1e-9, "returns at the crash instant: {t}");
        assert!(matches!(
            net.transfer_status(id),
            TransferStatus::Failed { .. }
        ));
    }

    /// Unreleased, the histories only grow; what the engine walks, and
    /// what a settled transfer keeps, must not.
    #[test]
    fn settled_transfers_leave_the_live_list_and_shrink_to_their_record() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let first = net.transfer(a, b, 2.0 * MB);
        net.run_until_idle();
        for _ in 1..20_000 {
            net.transfer(a, b, 1.0 * MB);
            net.run_until_idle();
            assert!(net.flows.is_empty(), "a settled flow leaves at once");
        }
        // A cancelled transfer and a finished job are forgotten too.
        let cancelled = net.transfer(a, b, 1.0 * MB);
        net.cancel_transfer(cancelled);
        assert!(net.flows.is_empty());
        let job = net.job(a, 1.0);
        net.run_until_idle();

        let last = net.transfer(a, b, 1.0 * MB);
        // What the next event step can touch: the new flow, plus at most
        // one job that settled in the step before.
        assert_eq!(net.flows.len(), 1);
        assert!(net.live_jobs.len() <= 1, "{:?}", net.live_jobs);
        net.run_until_idle();
        assert!(net.flows.is_empty());

        // 20,002 statuses of at most 48 bytes, none of them owning heap
        // memory: a settled transfer is its status and nothing else.
        assert_eq!(net.settled.len(), 20_002);
        assert!(std::mem::size_of::<TransferStatus>() <= 48);
        assert!(std::mem::size_of::<Job>() <= 48);

        // Every id still answers, the very first included.
        let rec = net.transfer_record(first).unwrap();
        assert_eq!((rec.start, rec.bytes), (0.0, 2.0 * MB));
        assert!((rec.duration() - 2.0).abs() < 1e-6);
        assert_eq!(net.transfer_status(first), TransferStatus::Done(rec));
        assert_eq!(net.transfer_bytes_moved(first), 2.0 * MB);
        assert!(matches!(
            net.transfer_status(cancelled),
            TransferStatus::Failed {
                reason: TransferFailure::Cancelled,
                ..
            }
        ));
        assert!(net.transfer_record(last).is_some());
        assert!(net.job_record(job).is_some());
        assert!((net.link_bytes(LinkId(0)) - 20_002.0 * MB).abs() < 1.0);
    }

    /// An owner that releases each transfer once it has read its final
    /// status keeps the history as small as what it has not released,
    /// however many transfers it runs and whatever it holds on to; ids
    /// keep counting up, and the unreleased ones still answer.
    #[test]
    fn released_transfers_leave_the_history() {
        let (mut net, a, b) = two_hosts(Mbit(8.0)); // 1 MB/s
        let kept = net.transfer(a, b, 1.0 * MB);
        let live = net.transfer(a, b, 50_000.0 * MB);
        net.release_transfer(live);
        let mut last = kept;
        for n in 0..20_000 {
            let id = net.transfer(a, b, 1.0 * MB);
            assert_eq!(format!("{id:?}"), format!("TransferId({})", n + 2));
            if n % 2 == 0 {
                net.run_until_any_settled(&[id], f64::INFINITY);
            } else {
                net.cancel_transfer(id);
            }
            assert!(!matches!(
                net.transfer_status(id),
                TransferStatus::InFlight { .. }
            ));
            net.release_transfer(id);
            last = id;
        }
        assert_eq!(net.settled.len(), 1, "kept");
        assert_eq!(net.flows.len(), 1, "the live one");
        assert!(net.transfer_record(kept).is_some());
        assert!(matches!(
            net.transfer_status(live),
            TransferStatus::InFlight { .. }
        ));
        assert!(!net.settled.contains_key(&(last.0 as usize)));
    }

    #[test]
    fn fault_run_is_reproducible() {
        use crate::fault::{FaultSchedule, StormSpec};
        let run = || {
            let mut net = SimNet::new();
            let a = net.add_host("a", 1);
            let b = net.add_host("b", 1);
            let l = net.connect(a, b, LinkSpec::symmetric(Mbit(8.0), 0.0));
            let spec = StormSpec::moderate(7, (0.0, 60.0));
            net.set_fault_schedule(FaultSchedule::storm(&spec, &[l], &[b]));
            let id = net.transfer(a, b, 40.0 * MB);
            net.run_until_idle();
            format!("{:?}", net.transfer_status(id))
        };
        assert_eq!(run(), run());
    }
}
