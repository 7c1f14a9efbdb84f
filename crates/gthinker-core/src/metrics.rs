//! Unified job metrics: the [`MetricsRegistry`] and its
//! [`MetricsSnapshot`], subsuming the raw `WorkerCounters`, the cache
//! statistics and the progress view into one structured, exportable
//! snapshot (DESIGN.md §"Observability").
//!
//! A snapshot is safe to take at any moment of a running job — every
//! source is either an atomic counter or a lock-free histogram read —
//! and is plain data afterwards: mergeable, comparable, serialisable
//! to JSON or pretty text, and (with events) dumpable as a Chrome
//! trace.

use crate::api::App;
use crate::job::ProgressSnapshot;
use crate::worker::WorkerShared;
use gthinker_graph::ids::WorkerId;
use gthinker_metrics::{ComperHistSnapshot, Event, EventKind, HistSnapshot, NUM_BUCKETS};
use gthinker_net::message::Message;
use gthinker_store::cache::CacheSnapshot;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Live handle over a running job's workers; the factory for
/// [`MetricsSnapshot`]s. Owned by the job runner.
pub struct MetricsRegistry<A: App> {
    workers: Vec<Arc<WorkerShared<A>>>,
    start: Instant,
}

impl<A: App> MetricsRegistry<A> {
    pub(crate) fn new(workers: Vec<Arc<WorkerShared<A>>>, start: Instant) -> Self {
        MetricsRegistry { workers, start }
    }

    /// Mid-run snapshot: counters, cache stats and histograms, but no
    /// event dump (rings keep filling; reading them mid-run is cheap
    /// but rarely useful before the job ends).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_inner(false)
    }

    /// End-of-run snapshot including each worker's event timeline.
    pub fn final_snapshot(&self) -> MetricsSnapshot {
        self.snapshot_inner(true)
    }

    fn snapshot_inner(&self, with_events: bool) -> MetricsSnapshot {
        MetricsSnapshot {
            elapsed: self.start.elapsed(),
            workers: self.workers.iter().map(|w| snapshot_worker(w, with_events)).collect(),
        }
    }
}

/// Ships one cumulative metrics report to the master, or publishes it
/// straight into the local [`ClusterTelemetry`] when this worker *is*
/// the master. Periodic reports are compact — counters and histograms
/// but no event dump; final reports carry the event ring for cluster
/// trace stitching.
pub(crate) fn send_report<A: App>(shared: &Arc<WorkerShared<A>>, master: WorkerId, is_final: bool) {
    let snap = snapshot_worker(shared, is_final);
    if shared.me == master {
        if let Some(t) = shared.telemetry.get() {
            t.publish(shared.me.0 as usize, snap, is_final);
        }
        return;
    }
    shared.net.send(
        master,
        Message::MetricsReport { worker: shared.me, payload: snap.encode_report(), is_final },
    );
}

pub(crate) fn snapshot_worker<A: App>(
    w: &WorkerShared<A>,
    with_events: bool,
) -> WorkerMetricsSnapshot {
    let c = &w.counters;
    WorkerMetricsSnapshot {
        tasks_finished: c.tasks_finished.load(Ordering::Relaxed),
        compute_calls: c.compute_calls.load(Ordering::Relaxed),
        compute_nanos: c.compute_nanos.load(Ordering::Relaxed),
        idle_nanos: c.idle_nanos.load(Ordering::Relaxed),
        steals: c.steals.load(Ordering::Relaxed),
        stolen_tasks: c.stolen_tasks.load(Ordering::Relaxed),
        remote_steals: c.remote_steals.load(Ordering::Relaxed),
        remote_stolen_tasks: c.remote_stolen_tasks.load(Ordering::Relaxed),
        steal_batch_bytes: c.steal_batch_bytes.load(Ordering::Relaxed),
        yields: c.yields.load(Ordering::Relaxed),
        split_tasks: c.split_tasks.load(Ordering::Relaxed),
        parks: c.parks.load(Ordering::Relaxed),
        wakeups: c.wakeups.load(Ordering::Relaxed),
        responses_served: c.responses_served.load(Ordering::Relaxed),
        responder_backlog: c.responder_backlog.load(Ordering::Relaxed),
        responder_peak_backlog: c.responder_peak_backlog.load(Ordering::Relaxed),
        pull_retries: c.pull_retries.load(Ordering::Relaxed),
        net_msgs_dropped: w.net.fault_stats().map_or(0, |f| f.dropped.load(Ordering::Relaxed)),
        net_msgs_duplicated: w
            .net
            .fault_stats()
            .map_or(0, |f| f.duplicated.load(Ordering::Relaxed)),
        net_msgs_delayed: w.net.fault_stats().map_or(0, |f| f.delayed.load(Ordering::Relaxed)),
        cache: w.cache.stats().snapshot(),
        net_bytes_sent: w.net.stats().bytes_sent.load(Ordering::Relaxed),
        net_bytes_received: w.net.stats().bytes_received.load(Ordering::Relaxed),
        net_writev_calls: w.net.stats().writev_calls.load(Ordering::Relaxed),
        net_frames_coalesced: w.net.stats().frames_coalesced.load(Ordering::Relaxed),
        net_backpressure_stalls: w.net.stats().backpressure_stalls.load(Ordering::Relaxed),
        net_delayed_write_errors: w.net.stats().delayed_write_errors.load(Ordering::Relaxed),
        spill_bytes: w.spill.bytes_spilled(),
        remaining: w.remaining_estimate(),
        quiescent: w.quiescent(),
        idle_compers: w
            .compers
            .iter()
            .filter(|c| {
                !c.busy.load(Ordering::Relaxed) && c.queue.is_empty() && c.buffer.is_empty()
            })
            .count() as u64,
        steal_inflight: w.steal_inflight.load(Ordering::Relaxed),
        trace_events_dropped: w.metrics.ring.dropped(),
        recoveries: w.recoveries.load(Ordering::Relaxed),
        peer_down_events: w.net.stats().peer_downs_total(),
        rejoins: w.rejoins.load(Ordering::Relaxed),
        resumed_epoch: w.resumed_epoch.load(Ordering::Relaxed),
        clock_offset_nanos: w.clock_offset_nanos(),
        compers: w.compers.iter().map(|c| c.hists.snapshot()).collect(),
        pull_rtt: w.metrics.pull_rtt.snapshot(),
        responder_drain: w.metrics.responder_drain.snapshot(),
        events: if with_events { w.metrics.ring.snapshot() } else { Vec::new() },
    }
}

/// One worker's slice of a [`MetricsSnapshot`]: every scheduler/cache
/// counter, the per-comper latency histograms and (in final snapshots)
/// the event timeline.
#[derive(Clone, Debug, Default)]
pub struct WorkerMetricsSnapshot {
    /// Tasks whose `compute()` returned `false`.
    pub tasks_finished: u64,
    /// Total `compute()` invocations (iterations).
    pub compute_calls: u64,
    /// Thread-CPU nanoseconds inside `compute()`, summed over compers.
    pub compute_nanos: u64,
    /// Nanoseconds compers spent parked, summed over compers.
    pub idle_nanos: u64,
    /// Successful intra-worker steals by this worker's compers.
    pub steals: u64,
    /// Tasks moved by those steals.
    pub stolen_tasks: u64,
    /// Cluster-wide steal batches this worker shipped to remote
    /// thieves (master-brokered).
    pub remote_steals: u64,
    /// Tasks moved off this worker by those batches.
    pub remote_stolen_tasks: u64,
    /// Framed bytes of steal batches sent, resends included.
    pub steal_batch_bytes: u64,
    /// Mid-compute yields: framework budget preemptions plus UDF
    /// `note_split` events.
    pub yields: u64,
    /// Tasks created by straggler splitting (framework re-enqueues +
    /// UDF-reported fan-outs).
    pub split_tasks: u64,
    /// Times a comper parked on the scheduler event count.
    pub parks: u64,
    /// Parks that ended in an event wakeup (not the fallback timeout).
    pub wakeups: u64,
    /// Vertices served to remote pulls by the responder pool.
    pub responses_served: u64,
    /// Request batches queued to responders but not yet served (gauge;
    /// 0 at quiescence).
    pub responder_backlog: u64,
    /// Peak of that gauge over the run.
    pub responder_peak_backlog: u64,
    /// Vertex pulls re-requested after their R-table deadline expired
    /// (loss tolerance; 0 on a healthy wire).
    pub pull_retries: u64,
    /// Data-plane messages the fault-injected wire dropped on this
    /// worker's sends (0 with fault injection off).
    pub net_msgs_dropped: u64,
    /// Data-plane messages the fault-injected wire duplicated.
    pub net_msgs_duplicated: u64,
    /// Data-plane messages the fault-injected wire delayed.
    pub net_msgs_delayed: u64,
    /// Named cache counters (previously the opaque 5-tuple).
    pub cache: CacheSnapshot,
    /// Bytes sent over the simulated network.
    pub net_bytes_sent: u64,
    /// Bytes received.
    pub net_bytes_received: u64,
    /// Vectored socket writes issued by the evented TCP data plane's
    /// I/O loop (0 on the sim router).
    pub net_writev_calls: u64,
    /// Frames that shared a vectored write with at least one other
    /// frame — the evented plane's write-coalescing win.
    pub net_frames_coalesced: u64,
    /// Sends that waited on a full per-peer outbound ring (evented
    /// backpressure; 0 unless a peer or the wire is slow).
    pub net_backpressure_stalls: u64,
    /// Fault-delayed frames whose deferred write failed and was
    /// dropped (dead peer or closed socket), on either TCP backend.
    pub net_delayed_write_errors: u64,
    /// Bytes of task batches spilled to disk.
    pub spill_bytes: u64,
    /// Estimated remaining load in tasks.
    pub remaining: u64,
    /// Whether the worker was quiescent at snapshot time.
    pub quiescent: bool,
    /// Compers parked with nothing reachable at snapshot time (gauge).
    pub idle_compers: u64,
    /// Sealed steal batches not yet acked by their thief (gauge).
    pub steal_inflight: u64,
    /// Trace events lost to the ring's overwrite-oldest recycling;
    /// nonzero flags a truncated timeline.
    pub trace_events_dropped: u64,
    /// Crash-recovery rounds this job has been through (cumulative
    /// across attempts; every worker reports the master's count).
    pub recoveries: u64,
    /// TCP peer-death events this worker's transport observed (0 on
    /// the simulated wire and on a healthy cluster).
    pub peer_down_events: u64,
    /// Times this process re-joined a surviving mesh with a bumped
    /// generation (1 after a respawn, 0 otherwise).
    pub rejoins: u64,
    /// Checkpoint epoch the current attempt resumed from, or -1 when
    /// the attempt started fresh.
    pub resumed_epoch: i64,
    /// Estimated offset of this worker's metrics clock from the
    /// master's (`master_now ≈ local_now + offset`), from the minimum-
    /// RTT ping/pong sample. 0 on the master and on single-process
    /// runs.
    pub clock_offset_nanos: i64,
    /// Per-comper latency histograms (compute / e2e / park).
    pub compers: Vec<ComperHistSnapshot>,
    /// Pull round-trip time (request sent → response installed).
    pub pull_rtt: HistSnapshot,
    /// Responder backlog drain time (dispatch → response sent).
    pub responder_drain: HistSnapshot,
    /// Event timeline (final snapshots only; bounded by the ring).
    pub events: Vec<Event>,
}

impl WorkerMetricsSnapshot {
    /// All compers' histograms merged into one (lossless bucket sums).
    pub fn merged_hists(&self) -> ComperHistSnapshot {
        let mut m = ComperHistSnapshot::default();
        for c in &self.compers {
            m.merge(c);
        }
        m
    }

    /// Serializes this snapshot as a `MetricsReport` payload: a compact
    /// little-endian encoding (histograms as sparse nonzero-bucket
    /// lists) sealed in a CRC frame, like steal batches. The master
    /// validates the frame before trusting a byte of it.
    pub fn encode_report(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(512);
        b.push(REPORT_VERSION);
        for v in [
            self.tasks_finished,
            self.compute_calls,
            self.compute_nanos,
            self.idle_nanos,
            self.steals,
            self.stolen_tasks,
            self.remote_steals,
            self.remote_stolen_tasks,
            self.steal_batch_bytes,
            self.yields,
            self.split_tasks,
            self.parks,
            self.wakeups,
            self.responses_served,
            self.responder_backlog,
            self.responder_peak_backlog,
            self.pull_retries,
            self.net_msgs_dropped,
            self.net_msgs_duplicated,
            self.net_msgs_delayed,
            self.net_bytes_sent,
            self.net_bytes_received,
            self.spill_bytes,
            self.remaining,
            self.idle_compers,
            self.steal_inflight,
            self.trace_events_dropped,
            self.cache.hits,
            self.cache.shared_waits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.gc_passes,
            self.cache.retries,
            self.cache.stale_responses,
            self.recoveries,
            self.peer_down_events,
            self.rejoins,
            self.net_writev_calls,
            self.net_frames_coalesced,
            self.net_backpressure_stalls,
            self.net_delayed_write_errors,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.push(self.quiescent as u8);
        b.extend_from_slice(&self.clock_offset_nanos.to_le_bytes());
        b.extend_from_slice(&self.resumed_epoch.to_le_bytes());
        put_hist(&mut b, &self.pull_rtt);
        put_hist(&mut b, &self.responder_drain);
        b.extend_from_slice(&(self.compers.len() as u16).to_le_bytes());
        for c in &self.compers {
            put_hist(&mut b, &c.compute);
            put_hist(&mut b, &c.e2e);
            put_hist(&mut b, &c.park);
        }
        b.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            b.extend_from_slice(&e.ts.to_le_bytes());
            b.extend_from_slice(&e.dur.to_le_bytes());
            b.extend_from_slice(&e.tid.to_le_bytes());
            b.extend_from_slice(&e.arg.to_le_bytes());
            b.push(e.kind.code());
        }
        gthinker_net::frame::seal(&b)
    }

    /// Decodes a sealed `MetricsReport` payload. Any corruption —
    /// a bad frame, an unknown version, a short buffer — is a clean
    /// `InvalidData` error, never a panic.
    pub fn decode_report(payload: &[u8]) -> io::Result<WorkerMetricsSnapshot> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let raw = gthinker_net::frame::open(payload).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("report frame: {e}"))
        })?;
        let mut c = Cursor(raw);
        if c.u8()? != REPORT_VERSION {
            return Err(bad("unknown metrics report version"));
        }
        let mut counters = [0u64; 41];
        for v in counters.iter_mut() {
            *v = c.u64()?;
        }
        let quiescent = c.u8()? != 0;
        let clock_offset_nanos = c.i64()?;
        let resumed_epoch = c.i64()?;
        let pull_rtt = get_hist(&mut c)?;
        let responder_drain = get_hist(&mut c)?;
        let n_compers = c.u16()? as usize;
        let mut compers = Vec::with_capacity(n_compers.min(1024));
        for _ in 0..n_compers {
            compers.push(ComperHistSnapshot {
                compute: get_hist(&mut c)?,
                e2e: get_hist(&mut c)?,
                park: get_hist(&mut c)?,
            });
        }
        let n_events = c.u32()? as usize;
        let mut events = Vec::with_capacity(n_events.min(65_536));
        for _ in 0..n_events {
            let (ts, dur, tid, arg) = (c.u64()?, c.u64()?, c.u32()?, c.u64()?);
            let kind =
                EventKind::from_code(c.u8()?).ok_or_else(|| bad("unknown event kind code"))?;
            events.push(Event { ts, dur, tid, arg, kind });
        }
        Ok(WorkerMetricsSnapshot {
            tasks_finished: counters[0],
            compute_calls: counters[1],
            compute_nanos: counters[2],
            idle_nanos: counters[3],
            steals: counters[4],
            stolen_tasks: counters[5],
            remote_steals: counters[6],
            remote_stolen_tasks: counters[7],
            steal_batch_bytes: counters[8],
            yields: counters[9],
            split_tasks: counters[10],
            parks: counters[11],
            wakeups: counters[12],
            responses_served: counters[13],
            responder_backlog: counters[14],
            responder_peak_backlog: counters[15],
            pull_retries: counters[16],
            net_msgs_dropped: counters[17],
            net_msgs_duplicated: counters[18],
            net_msgs_delayed: counters[19],
            net_bytes_sent: counters[20],
            net_bytes_received: counters[21],
            spill_bytes: counters[22],
            remaining: counters[23],
            idle_compers: counters[24],
            steal_inflight: counters[25],
            trace_events_dropped: counters[26],
            cache: CacheSnapshot {
                hits: counters[27],
                shared_waits: counters[28],
                misses: counters[29],
                evictions: counters[30],
                gc_passes: counters[31],
                retries: counters[32],
                stale_responses: counters[33],
            },
            recoveries: counters[34],
            peer_down_events: counters[35],
            rejoins: counters[36],
            net_writev_calls: counters[37],
            net_frames_coalesced: counters[38],
            net_backpressure_stalls: counters[39],
            net_delayed_write_errors: counters[40],
            quiescent,
            clock_offset_nanos,
            resumed_epoch,
            pull_rtt,
            responder_drain,
            compers,
            events,
        })
    }
}

/// Version byte leading every encoded metrics report. Bumped to 2 when
/// the crash-recovery counters (recoveries / peer-down / rejoins /
/// resumed-epoch) joined the payload; to 3 when the evented data
/// plane's counters (writev calls / frames coalesced / backpressure
/// stalls / delayed-write errors) did.
const REPORT_VERSION: u8 = 3;

/// Sparse histogram encoding: nonzero-bucket count, then (index, count)
/// pairs, then the running sum. Most histograms populate a handful of
/// the 64 buckets, so this beats the dense form by ~8x.
fn put_hist(b: &mut Vec<u8>, h: &HistSnapshot) {
    let nonzero: Vec<(u8, u64)> =
        h.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i as u8, n)).collect();
    b.push(nonzero.len() as u8);
    for (i, n) in nonzero {
        b.push(i);
        b.extend_from_slice(&n.to_le_bytes());
    }
    b.extend_from_slice(&h.sum.to_le_bytes());
}

fn get_hist(c: &mut Cursor<'_>) -> io::Result<HistSnapshot> {
    let mut h = HistSnapshot::default();
    let n = c.u8()? as usize;
    for _ in 0..n {
        let i = c.u8()? as usize;
        if i >= NUM_BUCKETS {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "histogram bucket index"));
        }
        h.buckets[i] = c.u64()?;
    }
    h.sum = c.u64()?;
    Ok(h)
}

/// Bounds-checked little-endian reader over a report payload.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.0.len() < n {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "metrics report truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// A point-in-time view of every worker's metrics. Plain data; all
/// methods are derived views.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Time since the job started.
    pub elapsed: Duration,
    /// One entry per worker.
    pub workers: Vec<WorkerMetricsSnapshot>,
}

impl MetricsSnapshot {
    /// Every comper of every worker merged into one histogram set.
    pub fn merged_hists(&self) -> ComperHistSnapshot {
        let mut m = ComperHistSnapshot::default();
        for w in &self.workers {
            m.merge(&w.merged_hists());
        }
        m
    }

    /// Tasks finished across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_finished).sum()
    }

    /// The legacy progress view, derived (the observer API's
    /// [`ProgressSnapshot`] is a strict projection of this snapshot).
    pub fn progress(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            elapsed: self.elapsed,
            tasks_finished: self.total_tasks(),
            remaining: self.workers.iter().map(|w| w.remaining).sum(),
            cache_hits: self.workers.iter().map(|w| w.cache.hits).sum(),
            cache_misses: self.workers.iter().map(|w| w.cache.misses).sum(),
            net_bytes: self.workers.iter().map(|w| w.net_bytes_sent).sum(),
            quiescent_workers: self.workers.iter().filter(|w| w.quiescent).count(),
        }
    }

    /// Writes all workers' event timelines as Chrome `trace_event`
    /// JSON (chrome://tracing / Perfetto). Only meaningful on a final
    /// snapshot of a job run with a non-zero `trace_capacity`.
    pub fn write_chrome_trace<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        let per_worker: Vec<Vec<Event>> = self.workers.iter().map(|ws| ws.events.clone()).collect();
        gthinker_metrics::trace::write_chrome_trace(w, &per_worker)
    }

    /// Machine-readable JSON export: per-worker counters plus quantile
    /// summaries (count/mean/p50/p90/p95/p99/max) of every histogram,
    /// per comper and merged.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\n  \"elapsed_ms\": {:.3},\n  \"workers\": [", ms(self.elapsed));
        for (wi, w) in self.workers.iter().enumerate() {
            if wi > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\n      \"worker\": {wi},\n      \
                 \"tasks_finished\": {},\n      \"compute_calls\": {},\n      \
                 \"compute_ms\": {:.3},\n      \"idle_ms\": {:.3},\n      \
                 \"steals\": {},\n      \"stolen_tasks\": {},\n      \
                 \"remote_steals\": {},\n      \"remote_stolen_tasks\": {},\n      \
                 \"steal_batch_bytes\": {},\n      \"yields\": {},\n      \
                 \"split_tasks\": {},\n      \
                 \"parks\": {},\n      \"wakeups\": {},\n      \
                 \"responses_served\": {},\n      \"responder_backlog\": {},\n      \
                 \"responder_peak_backlog\": {},\n      \"pull_retries\": {},\n      \
                 \"net_msgs_dropped\": {},\n      \"net_msgs_duplicated\": {},\n      \
                 \"net_msgs_delayed\": {},\n      \
                 \"trace_events_dropped\": {},\n      \
                 \"recoveries\": {},\n      \"peer_down_events\": {},\n      \
                 \"rejoins\": {},\n      \"resumed_epoch\": {},\n      \
                 \"clock_offset_nanos\": {},\n      \
                 \"remaining\": {},\n      \"idle_compers\": {},\n      \
                 \"steal_inflight\": {},\n      \"quiescent\": {},\n      \
                 \"cache\": {{\"hits\": {}, \"shared_waits\": {}, \"misses\": {}, \
                 \"evictions\": {}, \"gc_passes\": {}, \"retries\": {}, \
                 \"stale_responses\": {}}},\n      \
                 \"net_bytes_sent\": {},\n      \"net_bytes_received\": {},\n      \
                 \"net_writev_calls\": {},\n      \"net_frames_coalesced\": {},\n      \
                 \"net_backpressure_stalls\": {},\n      \
                 \"net_delayed_write_errors\": {},\n      \
                 \"spill_bytes\": {},\n      \
                 \"pull_rtt\": {},\n      \"responder_drain\": {},\n      \
                 \"compers\": [",
                w.tasks_finished,
                w.compute_calls,
                w.compute_nanos as f64 / 1e6,
                w.idle_nanos as f64 / 1e6,
                w.steals,
                w.stolen_tasks,
                w.remote_steals,
                w.remote_stolen_tasks,
                w.steal_batch_bytes,
                w.yields,
                w.split_tasks,
                w.parks,
                w.wakeups,
                w.responses_served,
                w.responder_backlog,
                w.responder_peak_backlog,
                w.pull_retries,
                w.net_msgs_dropped,
                w.net_msgs_duplicated,
                w.net_msgs_delayed,
                w.trace_events_dropped,
                w.recoveries,
                w.peer_down_events,
                w.rejoins,
                w.resumed_epoch,
                w.clock_offset_nanos,
                w.remaining,
                w.idle_compers,
                w.steal_inflight,
                w.quiescent,
                w.cache.hits,
                w.cache.shared_waits,
                w.cache.misses,
                w.cache.evictions,
                w.cache.gc_passes,
                w.cache.retries,
                w.cache.stale_responses,
                w.net_bytes_sent,
                w.net_bytes_received,
                w.net_writev_calls,
                w.net_frames_coalesced,
                w.net_backpressure_stalls,
                w.net_delayed_write_errors,
                w.spill_bytes,
                hist_json(&w.pull_rtt),
                hist_json(&w.responder_drain),
            );
            for (ci, c) in w.compers.iter().enumerate() {
                if ci > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\n        {{\"comper\": {ci}, \"compute\": {}, \"e2e\": {}, \"park\": {}}}",
                    hist_json(&c.compute),
                    hist_json(&c.e2e),
                    hist_json(&c.park),
                );
            }
            s.push_str("\n      ]\n    }");
        }
        let m = self.merged_hists();
        let _ = write!(
            s,
            "\n  ],\n  \"merged\": {{\"compute\": {}, \"e2e\": {}, \"park\": {}}}\n}}\n",
            hist_json(&m.compute),
            hist_json(&m.e2e),
            hist_json(&m.park),
        );
        s
    }

    /// Human-readable summary: per-worker counters and merged latency
    /// quantiles.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "job metrics after {:.1} ms", ms(self.elapsed));
        let _ = writeln!(
            s,
            "{:>6} | {:>8} {:>9} {:>9} | {:>6} {:>6} {:>7} | {:>9} {:>9}",
            "worker", "tasks", "compute", "idle", "steals", "parks", "served", "hits", "misses"
        );
        for (wi, w) in self.workers.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:>6} | {:>8} {:>8.1}ms {:>8.1}ms | {:>6} {:>6} {:>7} | {:>9} {:>9}",
                wi,
                w.tasks_finished,
                w.compute_nanos as f64 / 1e6,
                w.idle_nanos as f64 / 1e6,
                w.steals,
                w.parks,
                w.responses_served,
                w.cache.hits,
                w.cache.misses,
            );
        }
        let m = self.merged_hists();
        for (name, h) in [("compute", &m.compute), ("task e2e", &m.e2e), ("park", &m.park)] {
            let _ = writeln!(
                s,
                "{name:>9}: n={} p50={} p95={} p99={} max={}",
                h.count(),
                fmt_nanos(h.quantile(0.50)),
                fmt_nanos(h.quantile(0.95)),
                fmt_nanos(h.quantile(0.99)),
                fmt_nanos(h.max_estimate()),
            );
        }
        s
    }

    /// End-of-run tail-latency report: task e2e p50/p95/p99/max per
    /// comper, with a straggler flag on any comper whose busy time
    /// (thread-CPU in `compute()`) deviates more than 2× from the
    /// median comper.
    pub fn tail_report(&self) -> String {
        let mut s = String::new();
        let mut busies: Vec<u64> =
            self.workers.iter().flat_map(|w| w.compers.iter().map(|c| c.compute.sum)).collect();
        if busies.is_empty() {
            return "no comper metrics recorded (metrics feature off?)\n".to_string();
        }
        busies.sort_unstable();
        let median = busies[busies.len() / 2];
        let _ = writeln!(s, "task latency tail (end-to-end, spawn -> finish)");
        let _ = writeln!(
            s,
            "{:>6} {:>6} | {:>7} {:>9} {:>9} {:>9} {:>9} | {:>9}",
            "worker", "comper", "tasks", "p50", "p95", "p99", "max", "busy"
        );
        let mut stragglers = Vec::new();
        for (wi, w) in self.workers.iter().enumerate() {
            for (ci, c) in w.compers.iter().enumerate() {
                let busy = c.compute.sum;
                // A comper is a straggler when its busy time is more
                // than 2x the median (overloaded) or under half of it
                // (starved) — both directions of >2x deviation.
                let straggler = median > 0 && (busy > 2 * median || busy * 2 < median);
                let _ = writeln!(
                    s,
                    "{:>6} {:>6} | {:>7} {:>9} {:>9} {:>9} {:>9} | {:>7.1}ms{}",
                    wi,
                    ci,
                    c.e2e.count(),
                    fmt_nanos(c.e2e.quantile(0.50)),
                    fmt_nanos(c.e2e.quantile(0.95)),
                    fmt_nanos(c.e2e.quantile(0.99)),
                    fmt_nanos(c.e2e.max_estimate()),
                    busy as f64 / 1e6,
                    if straggler { "  <-- straggler" } else { "" },
                );
                if straggler {
                    stragglers.push((wi, ci, busy));
                }
            }
        }
        if stragglers.is_empty() {
            let _ = writeln!(s, "no stragglers (all busy times within 2x of the median)");
        } else {
            for (wi, ci, busy) in stragglers {
                let _ = writeln!(
                    s,
                    "straggler: worker {wi} comper {ci} busy {:.1}ms vs median {:.1}ms",
                    busy as f64 / 1e6,
                    median as f64 / 1e6,
                );
            }
        }
        let (rs, rt, rb, yl, sp) = self.workers.iter().fold((0, 0, 0, 0, 0), |a, w| {
            (
                a.0 + w.remote_steals,
                a.1 + w.remote_stolen_tasks,
                a.2 + w.steal_batch_bytes,
                a.3 + w.yields,
                a.4 + w.split_tasks,
            )
        });
        let _ = writeln!(
            s,
            "cluster stealing: {rs} batches / {rt} tasks / {rb} bytes shipped; \
             {yl} yields split {sp} straggler tasks",
        );
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one gauge/counter family per metric with a
    /// `worker="i"` label per sample, scrapeable from the
    /// `--telemetry-addr` endpoint mid-run.
    pub fn prometheus_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# HELP gthinker_elapsed_seconds Wall time since the job started.");
        let _ = writeln!(s, "# TYPE gthinker_elapsed_seconds gauge");
        let _ = writeln!(s, "gthinker_elapsed_seconds {:.3}", self.elapsed.as_secs_f64());
        let mut family =
            |name: &str, kind: &str, help: &str, get: &dyn Fn(&WorkerMetricsSnapshot) -> u64| {
                let _ = writeln!(s, "# HELP {name} {help}");
                let _ = writeln!(s, "# TYPE {name} {kind}");
                for (wi, w) in self.workers.iter().enumerate() {
                    let _ = writeln!(s, "{name}{{worker=\"{wi}\"}} {}", get(w));
                }
            };
        family("gthinker_remaining", "gauge", "Estimated remaining load in tasks.", &|w| {
            w.remaining
        });
        family("gthinker_idle_compers", "gauge", "Compers parked with nothing reachable.", &|w| {
            w.idle_compers
        });
        family(
            "gthinker_steal_inflight",
            "gauge",
            "Sealed steal batches awaiting their thief's ack.",
            &|w| w.steal_inflight,
        );
        family(
            "gthinker_quiescent",
            "gauge",
            "1 when the worker has reported local quiescence.",
            &|w| w.quiescent as u64,
        );
        family(
            "gthinker_tasks_finished_total",
            "counter",
            "Tasks whose compute() returned false.",
            &|w| w.tasks_finished,
        );
        family("gthinker_compute_calls_total", "counter", "Total compute() invocations.", &|w| {
            w.compute_calls
        });
        family(
            "gthinker_net_bytes_sent_total",
            "counter",
            "Bytes this worker put on the wire.",
            &|w| w.net_bytes_sent,
        );
        family(
            "gthinker_net_bytes_received_total",
            "counter",
            "Bytes this worker took off the wire.",
            &|w| w.net_bytes_received,
        );
        family(
            "gthinker_net_writev_calls_total",
            "counter",
            "Vectored socket writes issued by the evented data plane.",
            &|w| w.net_writev_calls,
        );
        family(
            "gthinker_net_frames_coalesced_total",
            "counter",
            "Frames that shared a vectored write with another frame.",
            &|w| w.net_frames_coalesced,
        );
        family(
            "gthinker_net_backpressure_stalls_total",
            "counter",
            "Sends that waited on a full per-peer outbound ring.",
            &|w| w.net_backpressure_stalls,
        );
        family(
            "gthinker_net_delayed_write_errors_total",
            "counter",
            "Fault-delayed frames dropped because their deferred write failed.",
            &|w| w.net_delayed_write_errors,
        );
        family(
            "gthinker_remote_stolen_tasks_total",
            "counter",
            "Tasks shipped off this worker by cluster steals.",
            &|w| w.remote_stolen_tasks,
        );
        family("gthinker_cache_hits_total", "counter", "Vertex cache hits.", &|w| w.cache.hits);
        family(
            "gthinker_cache_misses_total",
            "counter",
            "Vertex cache misses (remote pulls issued).",
            &|w| w.cache.misses,
        );
        family(
            "gthinker_pull_retries_total",
            "counter",
            "Vertex pulls re-requested after a deadline expiry.",
            &|w| w.pull_retries,
        );
        family(
            "gthinker_trace_events_dropped_total",
            "counter",
            "Trace events lost to ring recycling.",
            &|w| w.trace_events_dropped,
        );
        family(
            "gthinker_recoveries_total",
            "counter",
            "Crash-recovery rounds this job has been through.",
            &|w| w.recoveries,
        );
        family(
            "gthinker_peer_down_events_total",
            "counter",
            "TCP peer-death events observed by the transport.",
            &|w| w.peer_down_events,
        );
        family(
            "gthinker_rejoins_total",
            "counter",
            "Mesh rejoins by a respawned process (bumped generation).",
            &|w| w.rejoins,
        );
        // resumed_epoch is signed (-1 = started fresh), so it cannot go
        // through the u64 family helper.
        let _ = writeln!(
            s,
            "# HELP gthinker_resumed_epoch Checkpoint epoch the current attempt resumed from (-1 = fresh)."
        );
        let _ = writeln!(s, "# TYPE gthinker_resumed_epoch gauge");
        for (wi, w) in self.workers.iter().enumerate() {
            let _ = writeln!(s, "gthinker_resumed_epoch{{worker=\"{wi}\"}} {}", w.resumed_epoch);
        }
        s
    }
}

/// The master's live view of every worker's metrics, fed by
/// `MetricsReport` control messages. `latest` holds the newest report
/// per worker (reports are cumulative snapshots, so newer strictly
/// supersedes older — arrival order between workers never matters);
/// `finals` holds only end-of-job reports carrying event timelines.
/// Shared between the master's control loop (writer) and the CLI's
/// status/exposition threads (readers).
pub struct ClusterTelemetry {
    start: Instant,
    latest: Mutex<Vec<Option<WorkerMetricsSnapshot>>>,
    finals: Mutex<Vec<Option<WorkerMetricsSnapshot>>>,
}

impl ClusterTelemetry {
    /// An empty view over `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        ClusterTelemetry {
            start: Instant::now(),
            latest: Mutex::new(vec![None; num_workers]),
            finals: Mutex::new(vec![None; num_workers]),
        }
    }

    /// Number of worker slots in this view.
    pub fn num_workers(&self) -> usize {
        self.latest.lock().unwrap().len()
    }

    /// Absorbs one worker's report. Out-of-range worker indices are
    /// ignored (a malformed report must not panic the master).
    pub fn publish(&self, worker: usize, snap: WorkerMetricsSnapshot, is_final: bool) {
        if is_final {
            let mut finals = self.finals.lock().unwrap();
            if let Some(slot) = finals.get_mut(worker) {
                *slot = Some(snap.clone());
            }
        }
        let mut latest = self.latest.lock().unwrap();
        if let Some(slot) = latest.get_mut(worker) {
            *slot = Some(snap);
        }
    }

    /// Workers that have reported at least once.
    pub fn reported(&self) -> usize {
        self.latest.lock().unwrap().iter().filter(|s| s.is_some()).count()
    }

    /// The cluster-wide snapshot assembled from the newest report per
    /// worker. Workers that have not reported yet appear as default
    /// (all-zero) entries so the worker indices stay aligned.
    pub fn cluster_snapshot(&self) -> MetricsSnapshot {
        let latest = self.latest.lock().unwrap();
        MetricsSnapshot {
            elapsed: self.start.elapsed(),
            workers: latest.iter().map(|s| s.clone().unwrap_or_default()).collect(),
        }
    }

    /// Each worker's final report, if it arrived.
    pub fn final_snapshots(&self) -> Vec<Option<WorkerMetricsSnapshot>> {
        self.finals.lock().unwrap().clone()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantile summary of one histogram as a JSON object.
fn hist_json(h: &HistSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
         \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
        h.count(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.95),
        h.quantile(0.99),
        h.max_estimate(),
    )
}

/// Human-scale duration from nanoseconds.
fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counts: &[u64]) -> MetricsSnapshot {
        let workers = counts
            .iter()
            .map(|&n| {
                let h = gthinker_metrics::ComperHists::new();
                for i in 0..n {
                    h.compute.record(1_000 * (i + 1));
                    h.e2e.record(10_000 * (i + 1));
                }
                WorkerMetricsSnapshot {
                    tasks_finished: n,
                    compers: vec![h.snapshot()],
                    ..Default::default()
                }
            })
            .collect();
        MetricsSnapshot { elapsed: Duration::from_millis(5), workers }
    }

    #[test]
    fn progress_projection_sums_workers() {
        let s = snap_with(&[3, 7]);
        let p = s.progress();
        assert_eq!(p.tasks_finished, 10);
        assert_eq!(p.quiescent_workers, 0);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn merged_hists_keep_all_counts() {
        let s = snap_with(&[3, 7]);
        let m = s.merged_hists();
        assert_eq!(m.compute.count(), 10);
        assert_eq!(m.e2e.count(), 10);
    }

    #[test]
    fn json_and_reports_render() {
        let s = snap_with(&[2, 2]);
        let json = s.to_json();
        for key in ["\"workers\"", "\"compers\"", "\"p50_ns\"", "\"p99_ns\"", "\"merged\""] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(s.pretty().contains("job metrics"));
        assert!(s.tail_report().contains("task latency tail"));
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(50), "50ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }

    fn busy_snapshot() -> WorkerMetricsSnapshot {
        let h = gthinker_metrics::ComperHists::new();
        for i in 1..=20u64 {
            h.compute.record(1_000 * i);
            h.e2e.record(10_000 * i);
            h.park.record(100 * i);
        }
        WorkerMetricsSnapshot {
            tasks_finished: 42,
            compute_calls: 99,
            compute_nanos: 123_456,
            idle_nanos: 7,
            steals: 3,
            stolen_tasks: 11,
            remote_steals: 2,
            remote_stolen_tasks: 9,
            steal_batch_bytes: 512,
            yields: 4,
            split_tasks: 6,
            parks: 13,
            wakeups: 12,
            responses_served: 77,
            responder_backlog: 1,
            responder_peak_backlog: 5,
            pull_retries: 8,
            net_msgs_dropped: 2,
            net_msgs_duplicated: 1,
            net_msgs_delayed: 3,
            cache: CacheSnapshot {
                hits: 100,
                shared_waits: 2,
                misses: 30,
                evictions: 5,
                gc_passes: 4,
                retries: 1,
                stale_responses: 2,
            },
            net_bytes_sent: 1_000,
            net_bytes_received: 2_000,
            net_writev_calls: 60,
            net_frames_coalesced: 25,
            net_backpressure_stalls: 2,
            net_delayed_write_errors: 1,
            spill_bytes: 4_096,
            remaining: 17,
            quiescent: true,
            idle_compers: 2,
            steal_inflight: 1,
            trace_events_dropped: 9,
            recoveries: 2,
            peer_down_events: 1,
            rejoins: 1,
            resumed_epoch: 3,
            clock_offset_nanos: -12_345,
            compers: vec![h.snapshot(), ComperHistSnapshot::default()],
            pull_rtt: {
                let hist = gthinker_metrics::ComperHists::new();
                hist.compute.record(5_000);
                hist.compute.snapshot()
            },
            responder_drain: HistSnapshot::default(),
            events: vec![
                Event { ts: 10, dur: 5, tid: 0, arg: 0, kind: EventKind::Compute },
                Event { ts: 20, dur: 0, tid: 3, arg: (1 << 32) | 7, kind: EventKind::StealSend },
            ],
        }
    }

    #[test]
    fn report_codec_round_trips() {
        let snap = busy_snapshot();
        let payload = snap.encode_report();
        let back = WorkerMetricsSnapshot::decode_report(&payload).unwrap();
        assert_eq!(back.tasks_finished, snap.tasks_finished);
        assert_eq!(back.compute_calls, snap.compute_calls);
        assert_eq!(back.cache, snap.cache);
        assert_eq!(back.quiescent, snap.quiescent);
        assert_eq!(back.clock_offset_nanos, snap.clock_offset_nanos);
        assert_eq!(back.trace_events_dropped, snap.trace_events_dropped);
        assert_eq!(back.recoveries, snap.recoveries);
        assert_eq!(back.peer_down_events, snap.peer_down_events);
        assert_eq!(back.rejoins, snap.rejoins);
        assert_eq!(back.resumed_epoch, snap.resumed_epoch);
        assert_eq!(back.idle_compers, snap.idle_compers);
        assert_eq!(back.steal_inflight, snap.steal_inflight);
        assert_eq!(back.remaining, snap.remaining);
        assert_eq!(back.net_bytes_sent, snap.net_bytes_sent);
        assert_eq!(back.net_bytes_received, snap.net_bytes_received);
        assert_eq!(back.net_writev_calls, snap.net_writev_calls);
        assert_eq!(back.net_frames_coalesced, snap.net_frames_coalesced);
        assert_eq!(back.net_backpressure_stalls, snap.net_backpressure_stalls);
        assert_eq!(back.net_delayed_write_errors, snap.net_delayed_write_errors);
        assert_eq!(back.compers.len(), snap.compers.len());
        assert_eq!(back.compers[0].compute.count(), snap.compers[0].compute.count());
        assert_eq!(back.compers[0].e2e.sum, snap.compers[0].e2e.sum);
        assert_eq!(back.pull_rtt.count(), snap.pull_rtt.count());
        assert_eq!(back.events, snap.events);
    }

    #[test]
    fn report_decode_rejects_corruption() {
        let snap = busy_snapshot();
        let payload = snap.encode_report();
        // Flip a payload byte: the frame CRC catches it.
        let mut bad = payload.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(WorkerMetricsSnapshot::decode_report(&bad).is_err());
        // Truncations fail cleanly too.
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert!(WorkerMetricsSnapshot::decode_report(&payload[..cut]).is_err());
        }
        // An empty (default) snapshot still round-trips.
        let empty = WorkerMetricsSnapshot::default();
        let back = WorkerMetricsSnapshot::decode_report(&empty.encode_report()).unwrap();
        assert_eq!(back.tasks_finished, 0);
        assert!(back.events.is_empty());
    }

    #[test]
    fn cluster_telemetry_tracks_latest_and_finals() {
        let t = ClusterTelemetry::new(3);
        assert_eq!(t.num_workers(), 3);
        assert_eq!(t.reported(), 0);
        let mut first = busy_snapshot();
        first.tasks_finished = 1;
        t.publish(1, first, false);
        let mut newer = busy_snapshot();
        newer.tasks_finished = 5;
        t.publish(1, newer, false);
        assert_eq!(t.reported(), 1);
        let snap = t.cluster_snapshot();
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[1].tasks_finished, 5, "newest report wins");
        assert_eq!(snap.workers[0].tasks_finished, 0, "unreported worker is zeroed");
        assert!(t.final_snapshots().iter().all(|f| f.is_none()));
        t.publish(2, busy_snapshot(), true);
        let finals = t.final_snapshots();
        assert!(finals[2].is_some());
        assert!(finals[1].is_none());
        // Out-of-range publishes are ignored, not panics.
        t.publish(9, busy_snapshot(), true);
        assert_eq!(t.reported(), 2);
    }

    #[test]
    fn prometheus_text_has_per_worker_series() {
        let mut s = snap_with(&[3, 7]);
        s.workers[0].remaining = 12;
        s.workers[0].idle_compers = 2;
        s.workers[1].net_bytes_sent = 900;
        s.workers[0].recoveries = 1;
        s.workers[0].resumed_epoch = -1;
        s.workers[1].resumed_epoch = 2;
        let text = s.prometheus_text();
        for needle in [
            "# TYPE gthinker_remaining gauge",
            "gthinker_remaining{worker=\"0\"} 12",
            "gthinker_idle_compers{worker=\"0\"} 2",
            "gthinker_idle_compers{worker=\"1\"} 0",
            "# TYPE gthinker_net_bytes_sent_total counter",
            "gthinker_net_bytes_sent_total{worker=\"1\"} 900",
            "gthinker_net_bytes_received_total{worker=\"0\"} 0",
            "gthinker_tasks_finished_total{worker=\"0\"} 3",
            "gthinker_tasks_finished_total{worker=\"1\"} 7",
            "gthinker_elapsed_seconds 0.005",
            "# TYPE gthinker_recoveries_total counter",
            "gthinker_recoveries_total{worker=\"0\"} 1",
            "gthinker_peer_down_events_total{worker=\"1\"} 0",
            "gthinker_rejoins_total{worker=\"0\"} 0",
            "gthinker_resumed_epoch{worker=\"0\"} -1",
            "gthinker_resumed_epoch{worker=\"1\"} 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }
}
