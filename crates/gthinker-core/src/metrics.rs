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
//!
//! Every per-worker counter and gauge is defined once, as a row of the
//! `metrics_table!` invocation below. The snapshot's fields, their
//! collection, the report codec, the JSON and Prometheus writers and
//! [`MetricsSnapshot::totals`] are all derived from that table: adding
//! a metric is the atomic where it is counted plus one row.

use crate::api::App;
use crate::job::ProgressSnapshot;
use crate::worker::WorkerShared;
use gthinker_graph::crc::Crc32;
use gthinker_graph::ids::WorkerId;
use gthinker_metrics::{ComperHistSnapshot, Event, EventKind, HistSnapshot, NUM_BUCKETS};
use gthinker_net::message::Message;
use gthinker_store::cache::CacheSnapshot;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// What a row of the metrics table measures. The kind picks the row's
/// field type, its Prometheus type and how [`MetricsSnapshot::totals`]
/// folds it over workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Monotone `u64`: Prometheus counter `<name>_total`, summed.
    Counter,
    /// `u64` level that rises and falls: gauge, summed.
    Gauge,
    /// `u64` high-water mark: gauge, maximum over workers.
    Peak,
    /// `i64` gauge, maximum over workers.
    Signed,
    /// `bool` gauge exposed as 0/1; the total holds when every
    /// worker's does.
    Flag,
}

/// One metric: everything the codec and the exporters need to know
/// about a field of [`WorkerMetricsSnapshot`].
struct Row {
    /// `""`, or the nested struct the field lives in: a JSON object of
    /// that name and a Prometheus name prefix.
    group: &'static str,
    name: &'static str,
    kind: Kind,
    unit: &'static str,
    /// Set on a nanosecond counter the JSON has always written as a
    /// millisecond float under this key (the frozen `compute_ms`).
    json_ms: Option<&'static str>,
    help: &'static str,
    /// The field as the eight bytes it travels as, and back.
    get: fn(&WorkerMetricsSnapshot) -> u64,
    set: fn(&mut WorkerMetricsSnapshot, u64),
}

impl Row {
    /// The value as a number: signed rows sign-extended, flags 0/1.
    fn number(&self, w: &WorkerMetricsSnapshot) -> i128 {
        let bits = (self.get)(w);
        if self.kind == Kind::Signed {
            bits as i64 as i128
        } else {
            bits as i128
        }
    }
}

fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// Expands the table into [`WorkerMetricsSnapshot`], the `ROWS` the
/// codec and exporters walk, `snapshot_worker` and [`WorkerCounters`].
/// A row is `(kind, field, unit, help)`: a `counters` row *is* an atomic
/// of `WorkerCounters`, bumped where the event happens; a `sampled` row
/// adds `|worker| value`, read off [`WorkerShared`] at snapshot time; a
/// `cache` row names a field of the cache's own snapshot. The help text
/// is the field's rustdoc and its Prometheus `# HELP`.
macro_rules! metrics_table {
    (@ty Signed) => { i64 };
    (@ty Flag) => { bool };
    (@ty $unsigned:ident) => { u64 };
    (@bits Signed $v:expr) => { $v as u64 };
    (@bits Flag $v:expr) => { $v as u64 };
    (@bits $unsigned:ident $v:expr) => { $v };
    (@from Signed $bits:ident) => { $bits as i64 };
    (@from Flag $bits:ident) => { $bits != 0 };
    (@from $unsigned:ident $bits:ident) => { $bits };
    (@ms) => { None };
    (@ms $key:literal) => { Some($key) };
    (@row $group:literal $kind:ident $name:ident $unit:literal [$($ms:literal)?] $help:literal
        $($field:ident).+) => {
        Row {
            group: $group,
            name: stringify!($name),
            kind: Kind::$kind,
            unit: $unit,
            json_ms: metrics_table!(@ms $($ms)?),
            help: $help,
            get: |s| metrics_table!(@bits $kind s.$($field).+),
            set: |s, bits| s.$($field).+ = metrics_table!(@from $kind bits),
        }
    };
    (
        counters {$(
            ($akind:ident, $aname:ident, $aunit:literal $(as ms $ms:literal)?, $ahelp:literal);
        )*}
        sampled {$(
            ($kind:ident, $name:ident, $unit:literal, $help:literal, |$w:ident| $read:expr);
        )*}
        cache {$(($ckind:ident, $cname:ident, $cunit:literal, $chelp:literal);)*}
    ) => {
        /// The hot-path atomics the comper and main threads bump;
        /// one per `counters` row.
        #[derive(Default)]
        pub(crate) struct WorkerCounters {
            $(#[doc = $ahelp] pub $aname: AtomicU64,)*
        }

        /// One worker's slice of a [`MetricsSnapshot`]: every scheduler,
        /// network and cache counter, the per-comper latency histograms
        /// and (in final snapshots) the event timeline.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct WorkerMetricsSnapshot {
            $(#[doc = $ahelp] pub $aname: metrics_table!(@ty $akind),)*
            $(#[doc = $help] pub $name: metrics_table!(@ty $kind),)*
            /// Named cache counters (the table's `cache` rows).
            pub cache: CacheSnapshot,
            /// Per-comper latency histograms (compute / e2e / park).
            pub compers: Vec<ComperHistSnapshot>,
            /// Pull round-trip time (request sent → response installed).
            pub pull_rtt: HistSnapshot,
            /// Time the main thread spent answering one pull batch (request
            /// taken off the inbox → response sent). Written to JSON under
            /// the frozen key `responder_drain`.
            pub pull_serve: HistSnapshot,
            /// Event timeline (final snapshots only; bounded by the ring).
            pub events: Vec<Event>,
        }

        /// The table, in declaration order: ungrouped rows, then each
        /// group's rows together.
        const ROWS: &[Row] = &[
            $(metrics_table!(@row "" $akind $aname $aunit [$($ms)?] $ahelp $aname),)*
            $(metrics_table!(@row "" $kind $name $unit [] $help $name),)*
            $(metrics_table!(@row "cache" $ckind $cname $cunit [] $chelp cache.$cname),)*
        ];

        pub(crate) fn snapshot_worker<A: App>(
            shared: &WorkerShared<A>,
            with_events: bool,
        ) -> WorkerMetricsSnapshot {
            let cache = shared.cache.stats().snapshot();
            WorkerMetricsSnapshot {
                $($aname: load(&shared.counters.$aname),)*
                $($name: { let $w = shared; $read },)*
                // Spelled out so that a cache counter without a row
                // does not compile.
                cache: CacheSnapshot { $($cname: cache.$cname,)* },
                compers: shared.compers.iter().map(|c| c.hists.snapshot()).collect(),
                pull_rtt: shared.metrics.pull_rtt.snapshot(),
                pull_serve: shared.metrics.pull_serve.snapshot(),
                events: if with_events { shared.metrics.ring.snapshot() } else { Vec::new() },
            }
        }
    };
}

metrics_table! {
    counters {
        (Counter, tasks_finished, "tasks", "Tasks whose `compute()` returned `false`.");
        (Counter, compute_calls, "calls", "Total `compute()` invocations (iterations).");
        (Counter, compute_nanos, "ns" as ms "compute_ms",
            "Thread-CPU nanoseconds inside `compute()`, summed over compers: per window of 64 \
             calls, the calls' wall time scaled by the share of the window the comper was on a \
             core.");
        (Counter, comper_cpu_nanos, "ns" as ms "comper_cpu_ms",
            "Thread-CPU nanoseconds of the comper threads, `compute()` and framework together, \
             summed over compers (`compute_nanos` is the part of it spent in the UDF).");
        (Counter, idle_nanos, "ns" as ms "idle_ms",
            "Nanoseconds compers spent parked, summed over compers.");
        (Counter, steals, "steals", "Successful intra-worker steals by this worker's compers.");
        (Counter, stolen_tasks, "tasks", "Tasks moved by intra-worker steals.");
        (Counter, remote_steals, "batches",
            "Cluster-wide steal batches this worker shipped to remote thieves (master-brokered).");
        (Counter, remote_stolen_tasks, "tasks", "Tasks shipped off this worker by cluster steals.");
        (Counter, steal_batch_bytes, "bytes",
            "Framed bytes of steal batches sent, resends included (they cross the wire again).");
        (Counter, yields, "yields",
            "Mid-compute yields: framework budget preemptions plus UDF `note_split` events.");
        (Counter, split_tasks, "tasks",
            "Tasks created by straggler splitting: 1 per framework re-enqueue, `n` per UDF split \
             that fanned a straggler into `n` fresh tasks.");
        (Counter, parks, "parks", "Times a comper parked on the scheduler event count.");
        (Counter, wakeups, "parks",
            "Parks that ended in an event wakeup (not the fallback timeout).");
        (Counter, responses_served, "vertices",
            "Vertices served to remote pulls by the main thread.");
        (Counter, pull_retries, "pulls",
            "Vertex pulls re-requested after their R-table deadline expired (loss tolerance; 0 on \
             a healthy wire).");
    }
    sampled {
        (Counter, net_msgs_dropped, "messages",
            "Data-plane messages the fault-injected wire dropped on this worker's sends (0 with \
             fault injection off).",
            |w| w.net.fault_stats().map_or(0, |f| load(&f.dropped)));
        (Counter, net_msgs_duplicated, "messages",
            "Data-plane messages the fault-injected wire duplicated.",
            |w| w.net.fault_stats().map_or(0, |f| load(&f.duplicated)));
        (Counter, net_msgs_delayed, "messages",
            "Data-plane messages the fault-injected wire delayed (reorder jitter or latency spike).",
            |w| w.net.fault_stats().map_or(0, |f| load(&f.delayed)));
        (Counter, net_bytes_sent, "bytes", "Bytes this worker put on the (simulated or TCP) wire.",
            |w| load(&w.net.stats().bytes_sent));
        (Counter, net_bytes_received, "bytes", "Bytes this worker took off the wire.",
            |w| load(&w.net.stats().bytes_received));
        (Counter, net_writev_calls, "calls",
            "Vectored socket writes issued by the evented TCP data plane's I/O loop (0 on the sim \
             router).",
            |w| load(&w.net.stats().writev_calls));
        (Counter, net_frames_coalesced, "frames",
            "Frames that shared a vectored write with at least one other frame — the evented \
             plane's write-coalescing win.",
            |w| load(&w.net.stats().frames_coalesced));
        (Counter, net_backpressure_stalls, "sends",
            "Sends that waited on a full per-peer outbound ring (evented backpressure; 0 unless a \
             peer or the wire is slow).",
            |w| load(&w.net.stats().backpressure_stalls));
        (Counter, net_delayed_write_errors, "frames",
            "Fault-delayed frames whose deferred write failed and was dropped (dead peer or closed \
             socket).",
            |w| load(&w.net.stats().delayed_write_errors));
        (Counter, spill_bytes, "bytes", "Bytes of task batches spilled to disk.",
            |w| w.spill.bytes_spilled());
        (Peak, peak_mem_bytes, "bytes",
            "Peak observed memory estimate: local table + cache + in-memory task subgraphs.",
            |w| load(&w.peak_mem));
        (Counter, output_records, "records", "Records emitted to this worker's output sink.",
            |w| w.output.as_ref().map_or(0, |o| o.records()));
        (Gauge, remaining, "tasks", "Estimated remaining load in tasks.",
            |w| w.remaining_estimate());
        (Flag, quiescent, "bool", "Whether the worker was locally quiescent at snapshot time.",
            |w| w.quiescent());
        (Gauge, idle_compers, "compers", "Compers parked with nothing reachable at snapshot time.",
            |w| w.idle_compers() as u64);
        (Gauge, steal_inflight, "batches", "Sealed steal batches not yet acked by their thief.",
            |w| load(&w.steal_inflight));
        (Counter, trace_events_dropped, "events",
            "Trace events lost to the ring's overwrite-oldest recycling; nonzero flags a truncated \
             timeline (raise `trace_capacity` to keep more).",
            |w| w.metrics.ring.dropped());
        (Counter, recoveries, "rounds",
            "Crash-recovery rounds this job has been through (cumulative across attempts; every \
             worker reports the master's count).",
            |w| load(&w.recoveries));
        (Counter, peer_down_events, "events",
            "TCP peer-death events this worker's transport observed (0 on the simulated wire and \
             on a healthy cluster).",
            |w| w.net.stats().peer_downs_total());
        (Counter, rejoins, "rejoins",
            "Times this process re-joined a surviving mesh with a bumped generation (1 after a \
             respawn, 0 otherwise).",
            |w| load(&w.rejoins));
        (Signed, resumed_epoch, "epoch",
            "Checkpoint epoch the current attempt resumed from, or -1 when it started fresh.",
            |w| w.resumed_epoch.load(Ordering::Relaxed));
        (Signed, clock_offset_nanos, "ns",
            "Estimated offset of this worker's metrics clock from the master's (`master_now ≈ \
             local_now + offset`), from the minimum-RTT ping/pong sample; 0 on the master and on \
             single-process runs.",
            |w| w.clock_offset_nanos());
    }
    cache {
        (Counter, hits, "lookups", "Vertex-cache hits (OP1 case 1).");
        (Counter, shared_waits, "lookups",
            "Lookups that piggybacked on a pull already in flight (OP1 case 2.2).");
        (Counter, misses, "lookups", "Vertex-cache misses: remote pulls issued (OP1 case 2.1).");
        (Counter, evictions, "vertices", "Vertices evicted from the cache by GC.");
        (Counter, gc_passes, "passes", "GC passes that ran (cache overflow observed).");
        (Counter, retries, "pulls", "Pull requests that timed out and were re-requested.");
        (Counter, stale_responses, "responses",
            "Duplicate or late pull responses dropped idempotently (OP2 found no R-table entry).");
    }
}

/// CRC of every row's group, name and kind, in table order. It leads
/// each encoded report, so two builds whose tables differ refuse each
/// other's reports instead of decoding a value into the wrong field.
fn fingerprint() -> u32 {
    static FINGERPRINT: OnceLock<u32> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let mut crc = Crc32::new();
        for row in ROWS {
            crc.update(row.group.as_bytes());
            crc.update(b".");
            crc.update(row.name.as_bytes());
            crc.update(&[b':', row.kind as u8, b'\n']);
        }
        crc.finalize()
    })
}

/// Fewest bytes one histogram takes on the wire: an empty bucket list
/// and the sum.
const MIN_HIST_BYTES: usize = 1 + 8;
/// Bytes one event takes on the wire.
const EVENT_BYTES: usize = 8 + 8 + 4 + 8 + 1;

impl WorkerMetricsSnapshot {
    /// All compers' histograms merged into one (lossless bucket sums).
    pub fn merged_hists(&self) -> ComperHistSnapshot {
        let mut m = ComperHistSnapshot::default();
        for c in &self.compers {
            m.merge(c);
        }
        m
    }

    /// Serializes this snapshot as a `MetricsReport` payload: the
    /// table's fingerprint, every row's value in table order, then the
    /// histograms (as sparse nonzero-bucket lists) and the events —
    /// little-endian, sealed in a CRC frame like steal batches. The
    /// master validates the frame before trusting a byte of it.
    pub fn encode_report(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(512);
        b.extend_from_slice(&fingerprint().to_le_bytes());
        for row in ROWS {
            b.extend_from_slice(&(row.get)(self).to_le_bytes());
        }
        put_hist(&mut b, &self.pull_rtt);
        put_hist(&mut b, &self.pull_serve);
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

    /// Decodes a sealed `MetricsReport` payload. Any corruption — a bad
    /// frame, another build's table, a short buffer, a count the
    /// payload cannot hold — is a clean `InvalidData` error, never a
    /// panic, and nothing is allocated for elements that are not there.
    pub fn decode_report(payload: &[u8]) -> io::Result<WorkerMetricsSnapshot> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let raw = gthinker_net::frame::open(payload).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("report frame: {e}"))
        })?;
        let mut c = Cursor(raw);
        if c.u32()? != fingerprint() {
            return Err(bad("metrics report from a build with a different metrics table"));
        }
        let mut s = WorkerMetricsSnapshot::default();
        for row in ROWS {
            (row.set)(&mut s, c.u64()?);
        }
        s.pull_rtt = get_hist(&mut c)?;
        s.pull_serve = get_hist(&mut c)?;
        let n_compers = c.u16()? as usize;
        s.compers = Vec::with_capacity(c.count(n_compers, 3 * MIN_HIST_BYTES)?);
        for _ in 0..n_compers {
            s.compers.push(ComperHistSnapshot {
                compute: get_hist(&mut c)?,
                e2e: get_hist(&mut c)?,
                park: get_hist(&mut c)?,
            });
        }
        let n_events = c.u32()? as usize;
        s.events = Vec::with_capacity(c.count(n_events, EVENT_BYTES)?);
        for _ in 0..n_events {
            let (ts, dur, tid, arg) = (c.u64()?, c.u64()?, c.u32()?, c.u64()?);
            let kind =
                EventKind::from_code(c.u8()?).ok_or_else(|| bad("unknown event kind code"))?;
            s.events.push(Event { ts, dur, tid, arg, kind });
        }
        Ok(s)
    }
}

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
    fn truncated() -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, "metrics report truncated")
    }

    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.0.len() < n {
            return Err(Self::truncated());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Passes a claimed element count through only when that many
    /// elements of at least `min_bytes` each fit in what is left, so a
    /// corrupt count never sizes an allocation.
    fn count(&self, n: usize, min_bytes: usize) -> io::Result<usize> {
        if n.saturating_mul(min_bytes) > self.0.len() {
            return Err(Self::truncated());
        }
        Ok(n)
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

    /// Every counter and gauge folded over the workers: counters and
    /// level gauges summed, high-water marks (peak memory — the paper's
    /// "maximum over machines") and signed gauges by maximum, the
    /// quiescence flag true when every worker is. Histograms and events
    /// are left empty — see [`MetricsSnapshot::merged_hists`].
    pub fn totals(&self) -> WorkerMetricsSnapshot {
        let mut total = WorkerMetricsSnapshot::default();
        let Some((first, rest)) = self.workers.split_first() else {
            return total;
        };
        for row in ROWS {
            let fold = |a: u64, b: u64| match row.kind {
                Kind::Counter | Kind::Gauge => a.saturating_add(b),
                Kind::Peak => a.max(b),
                Kind::Signed => (a as i64).max(b as i64) as u64,
                Kind::Flag => a & b,
            };
            (row.set)(&mut total, rest.iter().map(row.get).fold((row.get)(first), fold));
        }
        total
    }

    /// Tasks finished across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_finished).sum()
    }

    /// The legacy progress view, derived (the observer API's
    /// [`ProgressSnapshot`] is a strict projection of this snapshot).
    pub fn progress(&self) -> ProgressSnapshot {
        let total = self.totals();
        ProgressSnapshot {
            elapsed: self.elapsed,
            tasks_finished: total.tasks_finished,
            remaining: total.remaining,
            cache_hits: total.cache.hits,
            cache_misses: total.cache.misses,
            net_bytes: total.net_bytes_sent,
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

    /// Machine-readable JSON export: per worker, every row of the
    /// metrics table under its own name (a group's rows nested in an
    /// object of the group's name) plus quantile summaries
    /// (count/mean/p50/p90/p95/p99/max) of every histogram, per comper
    /// and merged.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\n  \"elapsed_ms\": {:.3},\n  \"workers\": [", ms(self.elapsed));
        for (wi, w) in self.workers.iter().enumerate() {
            if wi > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    {{\n      \"worker\": {wi},");
            let mut group = "";
            for row in ROWS {
                let (key, value) = match (row.json_ms, row.kind) {
                    (Some(key), _) => (key, format!("{:.3}", (row.get)(w) as f64 / 1e6)),
                    (None, Kind::Flag) => (row.name, ((row.get)(w) != 0).to_string()),
                    (None, _) => (row.name, row.number(w).to_string()),
                };
                if row.group.is_empty() {
                    let _ = write!(s, "\n      \"{key}\": {value},");
                } else if row.group != group {
                    let close = if group.is_empty() { "" } else { "}," };
                    let _ = write!(s, "{close}\n      \"{}\": {{\"{key}\": {value}", row.group);
                } else {
                    let _ = write!(s, ", \"{key}\": {value}");
                }
                group = row.group;
            }
            if !group.is_empty() {
                s.push_str("},");
            }
            let _ = write!(
                s,
                "\n      \"pull_rtt\": {},\n      \"responder_drain\": {},\n      \"compers\": [",
                hist_json(&w.pull_rtt),
                hist_json(&w.pull_serve),
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
    /// (wall time in `compute()`) deviates more than 2× from the
    /// median comper.
    pub fn tail_report(&self) -> String {
        let mut s = String::new();
        let mut busies: Vec<u64> =
            self.workers.iter().flat_map(|w| w.compers.iter().map(|c| c.compute.sum)).collect();
        if busies.is_empty() {
            return "no comper metrics recorded\n".to_string();
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
        let total = self.totals();
        let _ = writeln!(
            s,
            "cluster stealing: {} batches / {} tasks / {} bytes shipped; \
             {} yields split {} straggler tasks",
            total.remote_steals,
            total.remote_stolen_tasks,
            total.steal_batch_bytes,
            total.yields,
            total.split_tasks,
        );
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): one family per row of the metrics table —
    /// `gthinker_<name>_total` for counters, `gthinker_<name>` for
    /// gauges, a group's rows prefixed with its name — with a
    /// `worker="i"` label per sample, scrapeable from the
    /// `--telemetry-addr` endpoint mid-run.
    pub fn prometheus_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# HELP gthinker_elapsed_seconds Wall time since the job started.");
        let _ = writeln!(s, "# TYPE gthinker_elapsed_seconds gauge");
        let _ = writeln!(s, "gthinker_elapsed_seconds {:.3}", self.elapsed.as_secs_f64());
        for row in ROWS {
            let sep = if row.group.is_empty() { "" } else { "_" };
            let (total, kind) =
                if row.kind == Kind::Counter { ("_total", "counter") } else { ("", "gauge") };
            let name = format!("gthinker_{}{sep}{}{total}", row.group, row.name);
            let _ = writeln!(s, "# HELP {name} {} [{}]", row.help, row.unit);
            let _ = writeln!(s, "# TYPE {name} {kind}");
            for (wi, w) in self.workers.iter().enumerate() {
                let _ = writeln!(s, "{name}{{worker=\"{wi}\"}} {}", row.number(w));
            }
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
    use gthinker_net::frame;
    use proptest::prelude::*;

    fn hist(bucket: usize, n: u64, sum: u64) -> HistSnapshot {
        let mut h = HistSnapshot { sum, ..Default::default() };
        h.buckets[bucket] = n;
        h
    }

    fn snap_with(counts: &[u64]) -> MetricsSnapshot {
        let worker = |&n: &u64| WorkerMetricsSnapshot {
            tasks_finished: n,
            compers: vec![ComperHistSnapshot {
                compute: hist(10, n, 1_000 * n),
                e2e: hist(14, n, 10_000 * n),
                park: HistSnapshot::default(),
            }],
            ..Default::default()
        };
        MetricsSnapshot {
            elapsed: Duration::from_millis(5),
            workers: counts.iter().map(worker).collect(),
        }
    }

    /// A snapshot whose row `i` holds `i + 1` (a flag: `true`), with
    /// populated histograms, two compers and two events. Built from the
    /// table, so a new row is under test the moment it is declared.
    fn numbered() -> WorkerMetricsSnapshot {
        let mut s = WorkerMetricsSnapshot {
            compers: vec![
                ComperHistSnapshot {
                    compute: hist(10, 20, 123_456),
                    e2e: hist(14, 20, 2_345_678),
                    park: hist(63, 1, u64::MAX / 2),
                },
                ComperHistSnapshot::default(),
            ],
            pull_rtt: hist(13, 1, 5_000),
            events: vec![
                Event { ts: 10, dur: 5, tid: 0, arg: 0, kind: EventKind::Compute },
                Event { ts: 20, dur: 0, tid: 3, arg: (1 << 32) | 7, kind: EventKind::StealSend },
            ],
            ..Default::default()
        };
        for (i, row) in ROWS.iter().enumerate() {
            (row.set)(&mut s, i as u64 + 1);
        }
        s
    }

    fn position(name: &str) -> usize {
        ROWS.iter().position(|r| r.name == name).unwrap()
    }

    #[test]
    fn report_codec_round_trips_every_row() {
        let snap = numbered();
        // Two rows wired to one field would both read the later value.
        for (i, row) in ROWS.iter().enumerate() {
            let want = if row.kind == Kind::Flag { 1 } else { i as u64 + 1 };
            assert_eq!((row.get)(&snap), want, "row {}.{}", row.group, row.name);
        }
        assert_eq!(snap.tasks_finished, 1, "plain field access reads the same cell");
        assert_eq!(snap.cache.stale_responses, ROWS.len() as u64);
        let back = WorkerMetricsSnapshot::decode_report(&snap.encode_report()).unwrap();
        assert_eq!(back, snap);
        // Negative signed rows travel the same path as everything else.
        let fresh = WorkerMetricsSnapshot {
            resumed_epoch: -1,
            clock_offset_nanos: -12_345,
            ..Default::default()
        };
        assert_eq!(WorkerMetricsSnapshot::decode_report(&fresh.encode_report()).unwrap(), fresh);
    }

    /// The per-worker names `--metrics-json` wrote before the table
    /// existed, which `benchmark/driver/src/metrics.rs` and CI look up
    /// by name. Rows may be added; none of these may go or move.
    const JSON_KEYS: &str = "worker tasks_finished compute_calls compute_ms idle_ms steals \
        stolen_tasks remote_steals remote_stolen_tasks steal_batch_bytes yields split_tasks parks \
        wakeups responses_served pull_retries net_msgs_dropped net_msgs_duplicated \
        net_msgs_delayed trace_events_dropped recoveries peer_down_events rejoins resumed_epoch \
        clock_offset_nanos remaining idle_compers steal_inflight quiescent cache net_bytes_sent net_bytes_received net_writev_calls \
        net_frames_coalesced net_backpressure_stalls net_delayed_write_errors spill_bytes pull_rtt \
        responder_drain compers";
    const JSON_CACHE_KEYS: &str =
        "hits shared_waits misses evictions gc_passes retries stale_responses";
    const JSON_HIST_KEYS: &str = "count mean_ns p50_ns p90_ns p95_ns p99_ns max_ns";

    /// The Prometheus families the endpoint exposed before it exposed
    /// every row.
    const GAUGES: &str = "remaining idle_compers steal_inflight quiescent resumed_epoch";
    const COUNTERS: &str = "tasks_finished compute_calls net_bytes_sent net_bytes_received \
        net_writev_calls net_frames_coalesced net_backpressure_stalls net_delayed_write_errors \
        remote_stolen_tasks cache_hits cache_misses pull_retries trace_events_dropped recoveries \
        peer_down_events rejoins";

    #[test]
    fn json_keeps_every_frozen_key_and_adds_the_new_rows() {
        let s = MetricsSnapshot { elapsed: Duration::from_millis(5), workers: vec![numbered()] };
        let json = s.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Each key of the worker object has a line to itself.
        let line = |key: &str| {
            let start = format!("\n      \"{key}\": ");
            let at = json.find(&start).unwrap_or_else(|| panic!("no {key:?} in:\n{json}"));
            json[at + start.len()..].lines().next().unwrap()
        };
        let added = ["peak_mem_bytes", "output_records", "comper_cpu_ms"];
        for key in JSON_KEYS.split_whitespace().chain(added) {
            line(key);
        }
        for key in JSON_HIST_KEYS.split_whitespace() {
            assert!(line("pull_rtt").contains(&format!("\"{key}\": ")), "pull_rtt.{key}");
            assert!(line("responder_drain").contains(&format!("\"{key}\": ")), "drain.{key}");
        }
        for key in ["\"comper\": 1", "\"compute\": {", "\"e2e\": {", "\"park\": {", "\"merged\""] {
            assert!(json.contains(key), "missing {key}");
        }
        // Units: nanosecond totals as millisecond floats, the flag as a
        // JSON bool, everything else the integer itself.
        let nanos = position("compute_nanos") as f64 + 1.0;
        assert_eq!(line("compute_ms"), format!("{:.3},", nanos / 1e6));
        assert_eq!(line("quiescent"), "true,");
        assert_eq!(line("tasks_finished"), "1,");
        let first = ROWS.iter().position(|r| r.group == "cache").unwrap();
        let cache: Vec<String> = JSON_CACHE_KEYS
            .split_whitespace()
            .enumerate()
            .map(|(i, key)| format!("\"{key}\": {}", first + i + 1))
            .collect();
        assert_eq!(line("cache"), format!("{{{}}},", cache.join(", ")));
        assert!(s.pretty().contains("job metrics"));
        assert!(s.tail_report().contains("task latency tail"));
    }

    #[test]
    fn prometheus_exposes_every_row_under_the_frozen_names() {
        let mut s = snap_with(&[3, 7]);
        s.workers[0].remaining = 12;
        s.workers[1].net_bytes_sent = 900;
        s.workers[0].resumed_epoch = -1;
        s.workers[1].resumed_epoch = 2;
        s.workers[1].quiescent = true;
        s.workers[1].peak_mem_bytes = 4_096;
        let text = s.prometheus_text();
        let families = GAUGES
            .split_whitespace()
            .map(|name| (format!("gthinker_{name}"), "gauge"))
            .chain(COUNTERS.split_whitespace().map(|n| (format!("gthinker_{n}_total"), "counter")));
        for (family, kind) in families {
            assert!(text.contains(&format!("# TYPE {family} {kind}\n")), "{family} in:\n{text}");
            assert!(text.contains(&format!("# HELP {family} ")), "{family} has no help");
        }
        assert_eq!(text.matches("# TYPE ").count(), ROWS.len() + 1, "one family per row");
        for needle in [
            "gthinker_elapsed_seconds 0.005",
            "gthinker_remaining{worker=\"0\"} 12",
            "gthinker_remaining{worker=\"1\"} 0",
            "gthinker_net_bytes_sent_total{worker=\"1\"} 900",
            "gthinker_tasks_finished_total{worker=\"0\"} 3",
            "gthinker_tasks_finished_total{worker=\"1\"} 7",
            "gthinker_resumed_epoch{worker=\"0\"} -1",
            "gthinker_resumed_epoch{worker=\"1\"} 2",
            "gthinker_quiescent{worker=\"0\"} 0",
            "gthinker_quiescent{worker=\"1\"} 1",
            "# TYPE gthinker_peak_mem_bytes gauge",
            "gthinker_peak_mem_bytes{worker=\"1\"} 4096",
            "# TYPE gthinker_output_records_total counter",
            "# TYPE gthinker_compute_nanos_total counter",
            "# TYPE gthinker_cache_evictions_total counter",
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

    #[test]
    fn totals_fold_each_row_by_its_kind() {
        let mut s = snap_with(&[3, 7]);
        (s.workers[0].remaining, s.workers[1].remaining) = (5, 6);
        (s.workers[0].peak_mem_bytes, s.workers[1].peak_mem_bytes) = (30, 10);
        (s.workers[0].resumed_epoch, s.workers[1].resumed_epoch) = (-1, -1);
        (s.workers[0].cache.misses, s.workers[1].cache.misses) = (2, 9);
        s.workers[0].quiescent = true;
        let t = s.totals();
        assert_eq!((t.tasks_finished, t.remaining, t.cache.misses), (10, 11, 11));
        assert_eq!(t.peak_mem_bytes, 30, "a high-water mark is the maximum over machines");
        assert_eq!(t.resumed_epoch, -1);
        assert!(!t.quiescent, "one busy worker keeps the cluster busy");
        assert_eq!(MetricsSnapshot::default().totals(), WorkerMetricsSnapshot::default());

        let p = s.progress();
        assert_eq!((p.tasks_finished, p.remaining, p.cache_misses), (10, 11, 11));
        assert_eq!(p.quiescent_workers, 1);
        let m = s.merged_hists();
        assert_eq!((m.compute.count(), m.e2e.count()), (10, 10));
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(50), "50ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.5ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }

    /// `Ok` or `InvalidData` — and an `Ok` holds no more elements than
    /// the payload had bytes for.
    fn decodes_cleanly(sealed: &[u8]) -> bool {
        match WorkerMetricsSnapshot::decode_report(sealed) {
            Ok(s) => {
                let wire = s.compers.len() * 3 * MIN_HIST_BYTES + s.events.len() * EVENT_BYTES;
                assert!(wire <= sealed.len());
                true
            }
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                false
            }
        }
    }

    /// The unsealed payload of a valid report.
    fn raw_report(s: &WorkerMetricsSnapshot) -> Vec<u8> {
        frame::open(&s.encode_report()).unwrap().to_vec()
    }

    #[test]
    fn report_from_another_table_is_refused() {
        let mut raw = raw_report(&numbered());
        raw[0] ^= 1;
        let e = WorkerMetricsSnapshot::decode_report(&frame::seal(&raw)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("different metrics table"), "{e}");
    }

    #[test]
    fn counts_the_payload_cannot_hold_are_refused_before_allocating() {
        // A default report ends `compers: u16 = 0, events: u32 = 0`.
        let raw = raw_report(&WorkerMetricsSnapshot::default());
        let (compers, events) = (raw.len() - 6, raw.len() - 4);
        let mut many_compers = raw.clone();
        many_compers[compers..events].fill(0xFF);
        let mut many_events = raw;
        many_events[events..].fill(0xFF);
        assert!(!decodes_cleanly(&frame::seal(&many_compers)));
        assert!(!decodes_cleanly(&frame::seal(&many_events)));
        assert!(Cursor(&[0; 57]).count(2, EVENT_BYTES).is_err());
        assert_eq!(Cursor(&[0; 58]).count(2, EVENT_BYTES).unwrap(), 2);
        assert!(Cursor(&[0; 8]).count(usize::MAX, 3 * MIN_HIST_BYTES).is_err());
    }

    proptest! {
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            decodes_cleanly(&bytes);
            // Behind a valid frame and fingerprint, so that the row,
            // histogram and event decoders see the garbage too.
            let mut raw = fingerprint().to_le_bytes().to_vec();
            raw.extend_from_slice(&bytes);
            decodes_cleanly(&frame::seal(&raw));
        }

        #[test]
        fn decode_never_panics_on_a_damaged_report(
            cut in any::<usize>(), at in any::<usize>(), flip in 1u8..=255,
        ) {
            let sealed = numbered().encode_report();
            prop_assert!(!decodes_cleanly(&sealed[..cut % sealed.len()]));
            let mut flipped = sealed.clone();
            flipped[at % sealed.len()] ^= flip;
            prop_assert!(!decodes_cleanly(&flipped), "the frame seal catches any flip");
            // The same damage under a fresh seal reaches the decoder proper.
            let mut raw = raw_report(&numbered());
            decodes_cleanly(&frame::seal(&raw[..cut % raw.len()]));
            let at = at % raw.len();
            raw[at] ^= flip;
            decodes_cleanly(&frame::seal(&raw));
        }
    }

    #[test]
    fn cluster_telemetry_tracks_latest_and_finals() {
        let t = ClusterTelemetry::new(3);
        assert_eq!(t.num_workers(), 3);
        assert_eq!(t.reported(), 0);
        let mut first = numbered();
        first.tasks_finished = 1;
        t.publish(1, first, false);
        let mut newer = numbered();
        newer.tasks_finished = 5;
        t.publish(1, newer, false);
        assert_eq!(t.reported(), 1);
        let snap = t.cluster_snapshot();
        assert_eq!(snap.workers.len(), 3);
        assert_eq!(snap.workers[1].tasks_finished, 5, "newest report wins");
        assert_eq!(snap.workers[0].tasks_finished, 0, "unreported worker is zeroed");
        assert!(t.final_snapshots().iter().all(|f| f.is_none()));
        t.publish(2, numbered(), true);
        let finals = t.final_snapshots();
        assert!(finals[2].is_some());
        assert!(finals[1].is_none());
        // Out-of-range publishes are ignored, not panics.
        t.publish(9, numbered(), true);
        assert_eq!(t.reported(), 2);
    }
}
