//! Worker-internal shared state and the non-comper threads.
//!
//! Each simulated machine runs (Fig. 3 / §V):
//! * `n` **comper** threads ([`crate::comper`]),
//! * one **receiver** thread handling vertex pulls, steal transfers and
//!   control traffic,
//! * one **GC** thread keeping `T_cache` bounded,
//! * the **worker main** thread (in [`crate::job`]) doing periodic
//!   progress/aggregator synchronization (and, on worker 0, the master
//!   logic of [`crate::master`]).

use crate::agg::LocalAgg;
use crate::api::{App, SpawnEnv};
use crate::config::JobConfig;
use crate::metrics::WorkerCounters;
use crossbeam::channel::Receiver;
use crossbeam::channel::Sender;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_graph::partition::HashPartitioner;
use gthinker_metrics::{
    now_nanos, ComperHists, Event, EventKind, WorkerMetrics, TID_GC, TID_MAIN, TID_RECEIVER,
};
use gthinker_net::batch::RequestBatcher;
use gthinker_net::frame;
use gthinker_net::message::Message;
use gthinker_net::transport::NetEndpoint;
use gthinker_store::cache::VertexCache;
use gthinker_store::local::LocalTable;
use gthinker_task::buffer::TaskBuffer;
use gthinker_task::codec::to_bytes;
use gthinker_task::park::EventCount;
use gthinker_task::pending::PendingTable;
use gthinker_task::queue::SharedTaskQueue;
use gthinker_task::spill::SpillManager;
use gthinker_task::task::Task;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Rough fixed overhead per in-memory task, on top of its subgraph.
const TASK_OVERHEAD_BYTES: usize = 128;

/// [`WorkerShared::reported_epoch`] while the last progress report said
/// busy (or none has gone out yet). Never a real activity epoch.
const NOT_IDLE: u64 = u64::MAX;

/// Nanoseconds of CPU time consumed by the calling thread.
///
/// Compute-time accounting must use *thread CPU time*, not wall-clock:
/// on a host with fewer cores than compers, a `compute()` call's
/// wall-time includes preemption by other threads, which would inflate
/// the per-comper work measurements the scalability analysis
/// (`modeled parallel time`) is built on. This is a system call, not a
/// vDSO read: compers call it once per window of `compute()` calls
/// (`comper::CpuWindow`), never per call.
pub(crate) fn thread_cpu_nanos() -> u64 {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: ts is a valid, writable timespec; the clock id is a
    // compile-time constant supported on all Linux targets.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Estimated heap cost of a task (for the memory accounting the paper
/// reports as "peak VM memory").
pub(crate) fn task_cost<C>(t: &Task<C>) -> i64 {
    (t.subgraph.heap_bytes() + TASK_OVERHEAD_BYTES) as i64
}

/// Per-comper state shared with the receiver thread and with sibling
/// compers (which steal from `queue`).
pub(crate) struct ComperShared<C> {
    /// `B_task`: ready tasks moved here by the receiver.
    pub buffer: TaskBuffer<C>,
    /// `T_task`: pending tasks keyed by task ID.
    pub pending: PendingTable<C>,
    /// `Q_task`, behind a stealable structure so idle siblings can take
    /// the newest half (tail-latency scheduler, layer 1). Its cached
    /// length replaces the old `queue_len` mirror for quiescence.
    pub queue: SharedTaskQueue<C>,
    /// True while the comper is (or may be about to start) processing a
    /// task; set **before** checking task sources to close the
    /// quiescence race.
    pub busy: AtomicBool,
    /// Per-comper latency histograms (compute / e2e / park); merged
    /// lock-free at snapshot time by the metrics registry.
    pub hists: ComperHists,
}

impl<C> ComperShared<C> {
    fn new(task_batch: usize) -> Self {
        ComperShared {
            buffer: TaskBuffer::new(),
            pending: PendingTable::new(),
            queue: SharedTaskQueue::new(task_batch),
            busy: AtomicBool::new(true), // busy until the comper proves idle
            hists: ComperHists::new(),
        }
    }
}

/// One sealed, unacknowledged steal batch retained by the victim.
///
/// Ownership of the tasks inside stays with this worker until the
/// thief's [`Message::StealAck`] arrives: the resend path in
/// [`worker_tick`] re-sends the identical frame after `deadline`, and
/// the thief's per-`(victim, seq)` dedup makes redelivery idempotent.
/// Ownership therefore *overlaps* (thief spilled, victim not yet
/// acked) but never gaps — the invariant the extended quiescence
/// argument in DESIGN.md §12 rests on.
pub(crate) struct OutgoingSteal {
    /// Destination worker.
    pub thief: WorkerId,
    /// The exact framed payload; resends are byte-identical.
    pub framed: Vec<u8>,
    /// Tasks inside (checkpoint bookkeeping).
    pub tasks: u64,
    /// Next resend time.
    pub deadline: Instant,
}

/// Peer clock-offset estimation for cross-process trace stitching.
///
/// Non-master cluster workers ping the master (at most
/// [`ClockSync::MAX_SAMPLES`] times, one per tick) and estimate the
/// offset of the master's metrics clock from their own by the classic
/// RTT-midpoint rule: `offset = master_now - (t_send + t_recv) / 2`.
/// The estimate from the minimum-RTT exchange wins — the shorter the
/// round trip, the tighter the bound on where inside it the master
/// stamped its reply.
pub(crate) struct ClockSync {
    /// Send timestamps of outstanding pings, keyed by nonce.
    pending: Mutex<HashMap<u64, u64>>,
    /// Lowest RTT (nanos) among answered pings; `u64::MAX` until one
    /// lands.
    best_rtt: AtomicU64,
    /// Offset estimate from the minimum-RTT sample.
    offset: AtomicI64,
    /// Pings issued so far.
    sent: AtomicU64,
}

impl ClockSync {
    /// Samples after which pinging stops: enough ticks to catch one
    /// quiet round trip without adding control traffic forever.
    const MAX_SAMPLES: u64 = 8;

    fn new() -> Self {
        ClockSync {
            pending: Mutex::new(HashMap::new()),
            best_rtt: AtomicU64::new(u64::MAX),
            offset: AtomicI64::new(0),
            sent: AtomicU64::new(0),
        }
    }

    /// Starts one ping if the sample budget allows; returns its nonce.
    pub fn begin_ping(&self) -> Option<u64> {
        let nonce = self.sent.fetch_add(1, Ordering::Relaxed);
        if nonce >= Self::MAX_SAMPLES {
            return None;
        }
        self.pending.lock().insert(nonce, now_nanos());
        Some(nonce)
    }

    /// Absorbs the master's reply to `nonce`, stamped `master_nanos`
    /// on the master's metrics clock. Unknown or duplicated nonces are
    /// ignored (the control plane is reliable, but be defensive).
    pub fn on_pong(&self, nonce: u64, master_nanos: u64) {
        let Some(t_send) = self.pending.lock().remove(&nonce) else {
            return;
        };
        let t_recv = now_nanos();
        let rtt = t_recv.saturating_sub(t_send);
        if rtt < self.best_rtt.load(Ordering::Relaxed) {
            self.best_rtt.store(rtt, Ordering::Relaxed);
            let midpoint = (t_send / 2) + (t_recv / 2);
            self.offset.store(master_nanos as i64 - midpoint as i64, Ordering::Relaxed);
        }
    }

    /// Current estimate of `master_now - local_now` (0 until a pong
    /// lands, and always 0 on the master itself).
    pub fn offset_nanos(&self) -> i64 {
        self.offset.load(Ordering::Relaxed)
    }
}

/// Everything one worker's threads share.
pub(crate) struct WorkerShared<A: App> {
    pub me: WorkerId,
    pub app: Arc<A>,
    pub config: JobConfig,
    pub local: LocalTable,
    pub cache: VertexCache,
    pub spill: SpillManager,
    pub compers: Vec<ComperShared<A::Context>>,
    pub batcher: RequestBatcher,
    /// This worker's interconnect endpoint — a sim-router handle or a
    /// TCP mesh endpoint; worker threads cannot tell the difference.
    pub net: Box<dyn NetEndpoint>,
    pub agg: LocalAgg<A::Agg>,
    pub partitioner: HashPartitioner,
    /// Pull requests sent whose responses have not arrived (counted at
    /// the requester; part of the quiescence condition).
    pub outstanding_pulls: AtomicI64,
    /// Terminate signal (master broadcast or local decision).
    pub done: AtomicBool,
    /// Suspend signal (checkpoint-and-stop).
    pub suspend: AtomicBool,
    /// Set when the fault injector delivered a [`Message::Crash`]: the
    /// worker stops dead — no final aggregator sync, no checkpoint
    /// shard — modelling a machine that lost power.
    pub crashed: AtomicBool,
    /// Set when the master broadcast [`Message::Abort`]: a peer process
    /// died mid-job and every survivor must fall back to the last
    /// validated checkpoint. Unlike `crashed`, the surviving worker
    /// shuts down *cleanly* (final syncs still flow) so the recovery
    /// runner can rendezvous again and resume.
    pub aborted: AtomicBool,
    /// Cluster-recovery mode: on peer failure the master broadcasts
    /// [`Message::Abort`] (fall back to the checkpoint) instead of
    /// [`Message::Terminate`] (fail the job).
    pub abort_on_failure: AtomicBool,
    /// Recovery rounds this process has been through (telemetry).
    pub recoveries: AtomicU64,
    /// Times this process re-joined an existing mesh with a bumped
    /// generation (1 on a respawned worker, 0 otherwise).
    pub rejoins: AtomicU64,
    /// Checkpoint epoch the current attempt resumed from, or -1 for a
    /// fresh start (telemetry).
    pub resumed_epoch: AtomicI64,
    /// Set by the worker main thread once no further inbound messages
    /// matter; the receiver thread exits on it. Kept separate from
    /// `done`/`suspend` because control traffic (final aggregator
    /// syncs, checkpoint acks) must still flow *after* those fire.
    pub receiver_stop: AtomicBool,
    /// Estimated bytes of task subgraphs currently in memory.
    pub task_mem: AtomicI64,
    /// Peak of the per-tick memory estimate.
    pub peak_mem: AtomicU64,
    /// Wakes compers parked for lack of work. Notified by the receiver
    /// (`B_task` push, new spill file), by sibling compers (enqueue
    /// crossing the stealable threshold, overflow spill), by the GC
    /// (evictions reopening the pop gate) and on stop/suspend.
    pub sched_events: EventCount,
    /// Wakes the GC thread when the cache may have grown past its
    /// limit (receiver installed responses) or the worker is stopping.
    pub gc_events: EventCount,
    /// Wakes the worker main thread out of its sync-interval wait: on
    /// stop/suspend, on the worker's own quiescence edge (so the idle
    /// report leaves at once) and, on the master, when a control
    /// message that can change the termination verdict arrives.
    pub tick_events: EventCount,
    /// Activity epoch: bumped on every idle → busy transition (a comper
    /// leaving a park with work, the receiver landing a steal batch or
    /// executing a steal request), *after* the transition is visible
    /// to [`WorkerShared::quiescent`]. A progress report reads it before
    /// evaluating the predicate and a probe ack after, so two equal
    /// readings around two `true` verdicts prove the worker never left
    /// quiescence in between.
    pub activity: AtomicU64,
    /// The epoch the last progress report said idle at, or [`NOT_IDLE`].
    /// Written by the main thread only; threads that may have just made
    /// the worker quiescent compare it with `activity` to tell a new
    /// quiescence edge from one already reported.
    pub reported_epoch: AtomicU64,
    pub counters: WorkerCounters,
    /// First UDF panic observed on this worker (message), if any. A
    /// panicking `compute()`/`task_spawn()` must not strand the job in
    /// a never-quiescent state: the comper records it here, the worker
    /// main thread broadcasts termination, and `run_job` re-panics with
    /// the original message once every thread has shut down.
    pub failure: Mutex<Option<String>>,
    /// Where compers park their residual `Q_task` contents at suspend.
    pub drained_queues: Mutex<Vec<Task<A::Context>>>,
    /// Victim-side ledger of sealed-but-unacked steal batches, keyed
    /// by sequence number. Entries are retained (and periodically
    /// resent by `worker_tick`) until the thief's `StealAck`.
    pub steal_outgoing: Mutex<HashMap<u64, OutgoingSteal>>,
    /// Mirror of `steal_outgoing`'s size, incremented *before* tasks
    /// leave a local source for a batch under assembly — part of the
    /// quiescence predicate, so in-flight steal batches count as
    /// outstanding work.
    pub steal_inflight: AtomicU64,
    /// Next outgoing steal-batch sequence number.
    pub steal_seq: AtomicU64,
    /// Thief-side dedup ledger: per victim, every sequence number
    /// already applied to the local `L_file`. A duplicated or resent
    /// batch is re-acked but never re-applied.
    pub steal_applied: Mutex<HashMap<WorkerId, HashSet<u64>>>,
    /// Replicated label table for labeled graphs (see
    /// [`crate::api::ComputeEnv::label_of`]); `None` when unlabeled.
    pub labels: Option<Arc<Vec<gthinker_graph::ids::Label>>>,
    /// Output sink when `JobConfig::output_dir` is set.
    pub output: Option<Arc<crate::output::OutputSink>>,
    /// Worker-level instrumentation: pull-RTT / responder-drain
    /// histograms and the scheduler/cache event ring.
    pub metrics: WorkerMetrics,
    /// Peer clock-offset estimator (cluster trace stitching).
    pub clock: ClockSync,
    /// Cluster telemetry sink, installed only on the master process of
    /// a multi-process run; inbound `MetricsReport`s and the master's
    /// own periodic snapshots are published into it.
    pub telemetry: OnceLock<Arc<crate::metrics::ClusterTelemetry>>,
    /// Set on every process of a multi-process cluster run: ship a
    /// final metrics report (with the event ring) to the master just
    /// before the final aggregator sync.
    pub remote_report: AtomicBool,
    /// When the last periodic metrics report went out (tick thread
    /// only; a lock keeps `WorkerShared` construction simple).
    pub last_report: Mutex<Option<Instant>>,
}

impl<A: App> WorkerShared<A> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: WorkerId,
        app: Arc<A>,
        config: JobConfig,
        local: LocalTable,
        cache: VertexCache,
        spill: SpillManager,
        net: Box<dyn NetEndpoint>,
        partitioner: HashPartitioner,
        labels: Option<Arc<Vec<gthinker_graph::ids::Label>>>,
        output: Option<Arc<crate::output::OutputSink>>,
    ) -> Arc<Self> {
        let agg = LocalAgg::new(Arc::new(app.make_aggregator()));
        let compers =
            (0..config.compers_per_worker).map(|_| ComperShared::new(config.task_batch)).collect();
        let batcher = RequestBatcher::new(me, config.num_workers, config.request_batch);
        let metrics = WorkerMetrics::new(config.trace_capacity);
        Arc::new(WorkerShared {
            me,
            app,
            config,
            local,
            cache,
            spill,
            compers,
            batcher,
            net,
            agg,
            partitioner,
            outstanding_pulls: AtomicI64::new(0),
            done: AtomicBool::new(false),
            suspend: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            abort_on_failure: AtomicBool::new(false),
            recoveries: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            resumed_epoch: AtomicI64::new(-1),
            receiver_stop: AtomicBool::new(false),
            task_mem: AtomicI64::new(0),
            peak_mem: AtomicU64::new(0),
            sched_events: EventCount::new(),
            gc_events: EventCount::new(),
            tick_events: EventCount::new(),
            activity: AtomicU64::new(0),
            reported_epoch: AtomicU64::new(NOT_IDLE),
            counters: WorkerCounters::default(),
            failure: Mutex::new(None),
            drained_queues: Mutex::new(Vec::new()),
            steal_outgoing: Mutex::new(HashMap::new()),
            steal_inflight: AtomicU64::new(0),
            steal_seq: AtomicU64::new(0),
            steal_applied: Mutex::new(HashMap::new()),
            labels,
            output,
            metrics,
            clock: ClockSync::new(),
            telemetry: OnceLock::new(),
            remote_report: AtomicBool::new(false),
            last_report: Mutex::new(None),
        })
    }

    /// Estimated offset of this worker's metrics clock from the
    /// master's (see [`ClockSync`]).
    pub fn clock_offset_nanos(&self) -> i64 {
        self.clock.offset_nanos()
    }

    /// True when this worker should stop its threads.
    ///
    /// `Relaxed` loads: both flags are monotone one-shot signals, and
    /// every code path that sets one also calls [`WorkerShared::wake_all`],
    /// whose `SeqCst` epoch bump makes the flag visible to any thread it
    /// wakes; a thread that reads a stale `false` here merely runs one
    /// more (harmless) round before the park/wait path observes the
    /// wakeup.
    pub fn stopping(&self) -> bool {
        self.done.load(Ordering::Relaxed) || self.suspend.load(Ordering::Relaxed)
    }

    /// Wakes every parked thread of this worker. Call after flipping
    /// `done` or `suspend` so shutdown latency is bounded by the wakeup
    /// path, not by park fallbacks or the sync interval.
    pub fn wake_all(&self) {
        self.sched_events.notify_all();
        self.gc_events.notify_all();
        self.tick_events.notify_all();
    }

    /// Estimated remaining load in tasks: spilled batches plus
    /// unspawned vertices plus queued/buffered/pending tasks.
    pub fn remaining_estimate(&self) -> u64 {
        let spilled = self.spill.num_files() as u64 * self.config.task_batch as u64;
        let unspawned = self.local.unspawned() as u64;
        let queued: u64 = self
            .compers
            .iter()
            .map(|c| (c.queue.len() + c.buffer.len() + c.pending.len()) as u64)
            .sum();
        spilled + unspawned + queued
    }

    /// Compers parked with nothing reachable (a gauge, not part of the
    /// quiescence protocol — hence the relaxed read).
    pub fn idle_compers(&self) -> usize {
        self.compers
            .iter()
            .filter(|c| {
                !c.busy.load(Ordering::Relaxed) && c.queue.is_empty() && c.buffer.is_empty()
            })
            .count()
    }

    /// The quiescence predicate used for distributed termination: no
    /// local work of any kind and no pull in flight. Busy flags are set
    /// by compers *before* they check their task sources, so this check
    /// cannot race past a task that is about to start.
    ///
    /// Memory-ordering notes (the weakest orderings the protocol
    /// permits, per site):
    ///
    /// * `outstanding_pulls` is read `Acquire` to pair with the
    ///   `Release` decrement the receiver performs *after* pushing the
    ///   ready task into `B_task`: reading 0 here implies every such
    ///   push is visible to the buffer checks below.
    /// * `busy` is read `SeqCst` — it anchors the protocol. A comper
    ///   stores `busy = true` (`SeqCst`) *before* taking from any
    ///   source, so in the seqcst total order either this check sees
    ///   `busy == true`, or the comper's source reads happen after this
    ///   check's (empty) snapshot.
    /// * The short-circuit order matters: `busy` is read *before* the
    ///   queue length. `SharedTaskQueue::len` is a relaxed mirror, but
    ///   queues only grow while their owner (or a stealing sibling) is
    ///   busy, and observing `busy == false` (a `SeqCst` store by the
    ///   comper after its last queue update) makes all prior relaxed
    ///   stores — including the length mirror — visible.
    /// * `steal_inflight` is read `Acquire` and incremented `SeqCst`
    ///   *before* a steal batch's tasks leave any local source
    ///   (`execute_steal_request`), so tasks under assembly or awaiting
    ///   the thief's ack always count as outstanding work somewhere:
    ///   the victim stays non-quiescent until the ack, and by then the
    ///   thief has durably spilled the batch (it acks only after
    ///   `push_file_bytes`), making its own `spill.is_empty()` false.
    ///   Ownership overlaps; it never gaps.
    pub fn quiescent(&self) -> bool {
        self.outstanding_pulls.load(Ordering::Acquire) == 0
            && self.steal_inflight.load(Ordering::Acquire) == 0
            && self.local.unspawned() == 0
            && self.spill.is_empty()
            && self.batcher.pending() == 0
            && self.compers.iter().all(|c| {
                !c.busy.load(Ordering::SeqCst)
                    && c.queue.is_empty()
                    && c.buffer.is_empty()
                    && c.pending.is_empty()
            })
    }

    /// Called by a thread that may just have made the worker quiescent
    /// (a comper about to park, the receiver after settling the last
    /// pull or the last unacked steal batch): wakes the main thread if
    /// this is a quiescence edge it has not reported yet, so the idle
    /// report leaves now instead of at the next periodic tick.
    pub fn signal_if_newly_quiescent(&self) {
        if self.reported_epoch.load(Ordering::SeqCst) != self.activity.load(Ordering::SeqCst)
            && self.quiescent()
        {
            self.tick_events.notify_all();
        }
    }

    /// Evaluates quiescence and reports it to the master — always on a
    /// `periodic` tick (the report also carries the steal planner's
    /// inputs and the heartbeat), otherwise only when the verdict
    /// differs from the last one sent. Returns the verdict.
    ///
    /// The epoch is read *before* the predicate: an idle → busy
    /// transition that this evaluation misses bumps the epoch after the
    /// read, and the probe ack that would confirm this report sees it.
    pub fn report_progress(&self, master: WorkerId, periodic: bool) -> bool {
        let epoch = self.activity.load(Ordering::SeqCst);
        let idle = self.quiescent();
        let report = if idle { epoch } else { NOT_IDLE };
        if !periodic && self.reported_epoch.load(Ordering::SeqCst) == report {
            return idle;
        }
        self.reported_epoch.store(report, Ordering::SeqCst);
        // Idle compers feed the master's thief selection; the in-flight
        // count gates its suspend broadcast.
        self.net.send(
            master,
            Message::Progress {
                worker: self.me,
                remaining: self.remaining_estimate(),
                idle,
                idle_compers: self.idle_compers() as u16,
                steal_inflight: self.steal_inflight.load(Ordering::Relaxed).min(u32::MAX as u64)
                    as u32,
                epoch,
            },
        );
        idle
    }

    /// Pushes an instant event on the main thread's trace row.
    pub fn trace_main(&self, kind: EventKind, arg: u64) {
        if self.metrics.ring.enabled() {
            self.metrics.ring.push(Event { ts: now_nanos(), dur: 0, tid: TID_MAIN, arg, kind });
        }
    }

    /// Records a UDF panic (first one wins).
    pub fn record_failure(&self, payload: Box<dyn std::any::Any + Send>) {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "application UDF panicked".to_string());
        let mut f = self.failure.lock();
        if f.is_none() {
            *f = Some(msg);
        }
    }

    /// One memory-estimate sample; updates the peak.
    pub fn sample_memory(&self) {
        let est = self.local.heap_bytes() as u64
            + self.cache.heap_bytes() as u64
            + self.task_mem.load(Ordering::Relaxed).max(0) as u64;
        self.peak_mem.fetch_max(est, Ordering::Relaxed);
    }
}

/// One request batch queued from the receiver to a responder.
#[derive(Debug)]
pub(crate) struct RespondJob {
    /// Requesting worker (the response's destination).
    pub from: WorkerId,
    /// Requested vertices.
    pub vertices: Vec<VertexId>,
    /// The request's `sent_nanos`, echoed back for RTT measurement.
    pub req_nanos: u64,
    /// When the receiver dispatched the job (drain-time measurement).
    pub enqueued_nanos: u64,
}

/// Round-robin dispatcher from the receiver to the responder pool
/// (tail-latency scheduler, layer 3). The receiver owns it; dropping it
/// (receiver exit) hangs up every responder channel, which is how the
/// pool shuts down.
pub(crate) struct ResponderRing {
    txs: Vec<Sender<RespondJob>>,
    next: usize,
}

impl ResponderRing {
    pub fn new(txs: Vec<Sender<RespondJob>>) -> Self {
        assert!(!txs.is_empty(), "at least one responder");
        ResponderRing { txs, next: 0 }
    }

    fn dispatch(&mut self, job: RespondJob) {
        self.txs[self.next].send(job).expect("responder outlives the receiver");
        self.next = (self.next + 1) % self.txs.len();
    }
}

/// One responder thread: serves `VertexRequest` batches from `T_local`
/// off the receiver thread, so response installation and request
/// serving overlap instead of serializing behind one thread. Exits when
/// the receiver drops the [`ResponderRing`]. `ridx` is the responder's
/// index in the pool (trace thread ID only).
pub(crate) fn responder_loop<A: App>(
    shared: &Arc<WorkerShared<A>>,
    rx: Receiver<RespondJob>,
    ridx: usize,
) {
    while let Ok(RespondJob { from, vertices, req_nanos, enqueued_nanos }) = rx.recv() {
        let served = vertices.len() as u64;
        let entries = vertices
            .into_iter()
            .map(|v| {
                let adj = shared
                    .local
                    .get(v)
                    .unwrap_or_else(|| panic!("worker {} asked for non-local {v}", shared.me));
                // The clone models the copy onto the wire.
                (v, (*adj).clone())
            })
            .collect();
        shared.net.send(from, Message::VertexResponse { entries, req_nanos });
        let now = now_nanos();
        shared.metrics.responder_drain.record(now.saturating_sub(enqueued_nanos));
        if shared.metrics.ring.enabled() {
            shared.metrics.ring.push(Event {
                ts: enqueued_nanos,
                dur: now.saturating_sub(enqueued_nanos),
                tid: gthinker_metrics::TID_RESPONDER_BASE + ridx as u32,
                arg: served,
                kind: EventKind::Respond,
            });
        }
        shared.counters.responses_served.fetch_add(served, Ordering::Relaxed);
        shared.counters.responder_backlog.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Most messages the receiver applies before issuing its accumulated
/// wakeups. Sized so a burst of small responses amortizes the parks
/// and wakes without letting one batch starve control traffic.
const RECV_BATCH: usize = 64;

/// Wakeups accumulated while applying one received batch: every
/// message is installed first, then each set flag fires **one**
/// `EventCount` notify — a batch of N vertex responses costs one
/// scheduler wakeup, not N.
#[derive(Default)]
struct WakeSet {
    sched: bool,
    gc: bool,
    /// The master's main thread has verdict-changing control traffic
    /// queued on its channel.
    tick: bool,
}

impl WakeSet {
    fn flush<A: App>(&mut self, shared: &WorkerShared<A>) {
        if std::mem::take(&mut self.sched) {
            shared.sched_events.notify_all();
        }
        if std::mem::take(&mut self.gc) {
            shared.gc_events.notify_all();
        }
        if std::mem::take(&mut self.tick) {
            shared.tick_events.notify_all();
        }
    }
}

/// The receiver thread: dispatches pull requests to the responder pool,
/// installs responses into `T_cache`, wakes pending tasks, executes
/// steal plans, and forwards control-plane messages to the worker main
/// thread. Messages are drained in batches ([`NetEndpoint::recv_batch`])
/// and downstream wakeups flushed once per batch.
pub(crate) fn receiver_loop<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctrl: Sender<Message>,
    mut responders: ResponderRing,
) {
    let mut batch = Vec::with_capacity(RECV_BATCH);
    let mut wakes = WakeSet::default();
    loop {
        let n = shared.net.recv_batch(Duration::from_millis(1), RECV_BATCH, &mut batch);
        if n == 0 {
            if shared.receiver_stop.load(Ordering::SeqCst) {
                // Drain whatever is still queued, then exit.
                while let Some(msg) = shared.net.try_recv() {
                    handle_message(shared, &ctrl, &mut responders, &mut wakes, msg);
                }
                wakes.flush(shared);
                return;
            }
            continue;
        }
        for msg in batch.drain(..) {
            handle_message(shared, &ctrl, &mut responders, &mut wakes, msg);
        }
        wakes.flush(shared);
    }
}

fn handle_message<A: App>(
    shared: &Arc<WorkerShared<A>>,
    ctrl: &Sender<Message>,
    responders: &mut ResponderRing,
    wakes: &mut WakeSet,
    msg: Message,
) {
    if shared.crashed.load(Ordering::Relaxed) {
        // A dead machine processes nothing; the router also stops
        // delivering, but anything already queued is dropped here.
        return;
    }
    match msg {
        Message::Crash => {
            // Fault-injected kill: stop every thread without the usual
            // shutdown courtesies (no final sync, no checkpoint shard).
            shared.crashed.store(true, Ordering::SeqCst);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        Message::VertexRequest { from, vertices, sent_nanos } => {
            let depth = shared.counters.responder_backlog.fetch_add(1, Ordering::Relaxed) + 1;
            shared.counters.responder_peak_backlog.fetch_max(depth, Ordering::Relaxed);
            responders.dispatch(RespondJob {
                from,
                vertices,
                req_nanos: sent_nanos,
                enqueued_nanos: now_nanos(),
            });
        }
        Message::VertexResponse { entries, req_nanos } => {
            // One RTT sample per response batch: send → install start.
            if req_nanos > 0 {
                shared.metrics.pull_rtt.record(now_nanos().saturating_sub(req_nanos));
            }
            let mut made_ready = false;
            let mut settled_last_pull = false;
            for (v, adj) in entries {
                // `None` = no open R-table entry: a duplicate (the wire
                // duplicated the response, or a retry raced the
                // original). OP2 is idempotent — drop it without
                // touching the pull count, which the first copy already
                // settled.
                let Some(waiters) = shared.cache.insert_response(v, adj) else {
                    continue;
                };
                for id in waiters {
                    let comper = &shared.compers[id.comper() as usize];
                    // Task accounting moves with the task; the push
                    // happens under the table's lock so a checkpoint
                    // draining `pending` then `buffer` cannot miss it.
                    comper.pending.notify_with(id, |task| {
                        comper.buffer.push(task);
                        made_ready = true;
                    });
                }
                // Decrement only after the ready task is visible in
                // B_task, so quiescence can never miss it. `Release`
                // (paired with the `Acquire` load in `quiescent`)
                // orders the buffer push before the count reaching 0;
                // nothing here needs the full seqcst fence the old code
                // paid per entry.
                settled_last_pull = shared.outstanding_pulls.fetch_sub(1, Ordering::Release) == 1;
            }
            // No activity-epoch bump for a task made ready: a pull was
            // outstanding, so the worker was not quiescent, and a parked
            // comper that picks the task up bumps the epoch itself.
            if settled_last_pull && !made_ready {
                shared.signal_if_newly_quiescent();
            }
            // Edge-triggered wakes, batched: a comper parks only with
            // an empty B_task, so a response that completes no task
            // carries no edge it could act on — pull-count decrements
            // alone keep `pending + buffer` constant. Likewise the GC
            // only has work once the inserts leave the cache over its
            // limit (eviction of released entries below the limit is
            // not its job). The flags fire one notify per received
            // batch (`WakeSet::flush`), not one per message.
            if made_ready {
                wakes.sched = true;
            }
            if shared.cache.over_limit() {
                wakes.gc = true;
            }
        }
        Message::StealRequest { victim, thief, max_tasks } => {
            debug_assert_eq!(victim, shared.me, "steal request routed to the wrong worker");
            execute_steal_request(shared, thief, max_tasks);
        }
        Message::StealBatch { victim, seq, bytes } => {
            // Dedup before anything else: the data plane may duplicate
            // the frame, or deliver the victim's resend after the
            // original. Applying a sequence number twice would
            // double-run every task inside.
            let fresh = shared.steal_applied.lock().entry(victim).or_default().insert(seq);
            if fresh {
                // Steal batches cross a trust boundary (another process
                // on the tcp backend), so they travel sealed; a version
                // or CRC mismatch must fail loudly, not deserialize
                // garbage tasks.
                let batch = match frame::open(&bytes) {
                    Ok(payload) => payload.to_vec(),
                    Err(e) => panic!("rejecting steal batch from a mismatched peer: {e}"),
                };
                // Durably append to `L_file` BEFORE acking: from the
                // victim's drain to this ack, some worker always owns
                // the tasks (overlap, never a gap).
                shared.spill.push_file_bytes(batch).expect("spill dir writable");
                // Idle → busy, bumped once the batch is visible in the
                // spill pool: a later probe is answered by this same
                // thread, so its ack cannot miss the bump.
                shared.activity.fetch_add(1, Ordering::SeqCst);
                if shared.metrics.ring.enabled() {
                    shared.metrics.ring.push(Event {
                        ts: now_nanos(),
                        dur: 0,
                        tid: TID_RECEIVER,
                        arg: steal_flow_key(victim, seq),
                        kind: EventKind::StealRecv,
                    });
                }
                // A new spill file is a refill source every comper
                // checks (wake batched with the rest of this drain).
                wakes.sched = true;
                shared.net.send(WorkerId(0), Message::StealDone);
            }
            // (Re-)ack even for duplicates: the earlier ack may have
            // crossed a resend on the wire, and the victim keeps
            // resending until one lands.
            shared.net.send(victim, Message::StealAck { seq });
        }
        Message::StealAck { seq } => {
            // The thief holds the batch durably; drop the retained
            // copy. A second ack for the same seq finds nothing.
            if shared.steal_outgoing.lock().remove(&seq).is_some()
                && shared.steal_inflight.fetch_sub(1, Ordering::Release) == 1
            {
                shared.signal_if_newly_quiescent();
            }
        }
        Message::AggregatorGlobal { payload } => match gthinker_task::codec::from_bytes(&payload) {
            Ok(global) => shared.agg.set_global(global),
            Err(e) => panic!("corrupt aggregator broadcast: {e}"),
        },
        Message::Probe { round } => {
            // Predicate first, epoch second — the mirror image of
            // `report_progress`, so equal epochs bracket the interval
            // between the report and this ack.
            let idle = shared.quiescent();
            let epoch = shared.activity.load(Ordering::SeqCst);
            shared
                .net
                .send(WorkerId(0), Message::ProbeAck { worker: shared.me, round, idle, epoch });
            if shared.me != WorkerId(0) {
                shared.trace_main(EventKind::Probe, round);
            }
        }
        Message::Terminate => {
            shared.trace_main(EventKind::Terminate, 0);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        Message::Suspend => {
            shared.suspend.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        Message::ClockPing { worker, nonce } => {
            // Clock-sync request from a peer: stamp it with this
            // process's metrics clock and bounce it straight back off
            // the receiver thread — any queueing here would widen the
            // RTT and loosen the peer's offset estimate.
            shared.net.send(worker, Message::ClockPong { nonce, nanos: now_nanos() });
        }
        Message::ClockPong { nonce, nanos } => {
            shared.clock.on_pong(nonce, nanos);
        }
        Message::Abort { .. } => {
            // A peer process died and the master ordered a fall-back to
            // the last validated checkpoint. Stop cleanly (unlike
            // `Crash`): final control traffic still flows, and the
            // recovery runner re-rendezvouses afterwards.
            shared.aborted.store(true, Ordering::SeqCst);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
        }
        Message::Resume { .. } => {
            // Rendezvous-phase message; by the time the receiver thread
            // runs, the recovery runner has already consumed the one
            // that mattered. A straggling duplicate is meaningless.
        }
        m @ (Message::Progress { .. }
        | Message::ProbeAck { .. }
        | Message::AggregatorSync { .. }
        | Message::MetricsReport { .. }
        | Message::StealExecuted { .. }
        | Message::StealDone
        | Message::SuspendDone { .. }
        | Message::PeerDown { .. }) => {
            // Master-only control traffic: hand to the main thread.
            // (`PeerDown` at a non-master just accumulates unread — the
            // master decides what a dead peer means for the job.) The
            // kinds that can change the termination verdict or free the
            // steal planner wake it; the rest wait for its next tick.
            wakes.tick |= matches!(
                m,
                Message::Progress { idle: true, .. }
                    | Message::ProbeAck { .. }
                    | Message::StealExecuted { .. }
                    | Message::StealDone
            );
            let _ = ctrl.send(m);
        }
    }
}

/// How long a victim waits for a [`Message::StealAck`] before
/// resending the retained frame. Reuses the pull-retry deadline: both
/// recover the same class of data-plane loss on the same wire.
fn steal_resend_after(config: &JobConfig) -> Duration {
    config.cache.pull_timeout
}

/// Task count of an encoded `Vec<Task<C>>` payload (u64 LE prefix).
fn batch_task_count(bytes: &[u8]) -> u64 {
    bytes.get(..8).map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// Chrome flow-event id correlating a steal batch's send and receive
/// across processes: victim worker in the high 32 bits, sequence
/// number (truncated) in the low 32.
fn steal_flow_key(victim: WorkerId, seq: u64) -> u64 {
    ((victim.0 as u64) << 32) | (seq & 0xFFFF_FFFF)
}

/// Victim-side execution of a master-brokered steal: seal up to
/// `max_tasks` tasks into one `StealBatch` addressed to `thief`,
/// retaining the framed bytes in the outgoing ledger until the thief
/// acknowledges (see [`OutgoingSteal`]). Sources in priority order:
/// an already-spilled batch file (zero serialization), then the newest
/// half of the largest live comper `Q_task` (the straggler drain the
/// cluster stealing exists for), then fresh tasks spawned from
/// unspawned local vertices (the paper: stolen tasks "could be spawned
/// from their local vertex table").
fn execute_steal_request<A: App>(shared: &Arc<WorkerShared<A>>, thief: WorkerId, max_tasks: u32) {
    // Cover the assembly window: from the moment tasks leave a local
    // source until the sealed batch sits in the ledger, this counter
    // keeps the worker non-quiescent (`WorkerShared::quiescent`).
    shared.steal_inflight.fetch_add(1, Ordering::SeqCst);
    // Even an empty-handed request takes the worker out of quiescence
    // for a moment; an idle report from before it must not be confirmed.
    shared.activity.fetch_add(1, Ordering::SeqCst);
    let Some((bytes, count)) = steal_payload(shared, (max_tasks as usize).max(1)) else {
        shared.steal_inflight.fetch_sub(1, Ordering::Release);
        shared.net.send(WorkerId(0), Message::StealExecuted { sent: 0 });
        shared.signal_if_newly_quiescent();
        return;
    };
    let seq = shared.steal_seq.fetch_add(1, Ordering::Relaxed);
    let framed = frame::seal(&bytes);
    shared.counters.remote_steals.fetch_add(1, Ordering::Relaxed);
    shared.counters.remote_stolen_tasks.fetch_add(count, Ordering::Relaxed);
    shared.counters.steal_batch_bytes.fetch_add(framed.len() as u64, Ordering::Relaxed);
    shared.steal_outgoing.lock().insert(
        seq,
        OutgoingSteal {
            thief,
            framed: framed.clone(),
            tasks: count,
            deadline: Instant::now() + steal_resend_after(&shared.config),
        },
    );
    shared.net.send(thief, Message::StealBatch { victim: shared.me, seq, bytes: framed });
    if shared.metrics.ring.enabled() {
        shared.metrics.ring.push(Event {
            ts: now_nanos(),
            dur: 0,
            tid: TID_RECEIVER,
            arg: steal_flow_key(shared.me, seq),
            kind: EventKind::StealSend,
        });
    }
    shared.net.send(WorkerId(0), Message::StealExecuted { sent: 1 });
}

/// Picks the payload for one steal batch: raw spill-format bytes
/// (`Vec<Task>` encoding) plus the task count inside. `None` when the
/// victim has nothing transferable.
fn steal_payload<A: App>(
    shared: &Arc<WorkerShared<A>>,
    max_tasks: usize,
) -> Option<(Vec<u8>, u64)> {
    // (1) An already-spilled batch ships as-is.
    if let Some(bytes) = shared.spill.pop_file_bytes().expect("spill dir readable") {
        let count = batch_task_count(&bytes);
        return Some((bytes, count));
    }
    // (2) Drain the newest half of the largest live Q_task. The tasks
    // were counted into `task_mem` when enqueued; shipping them off
    // the machine releases that estimate.
    let largest = shared
        .compers
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.queue.len())
        .filter(|(_, c)| c.queue.len() >= 2)
        .map(|(j, _)| j);
    if let Some(j) = largest {
        if let Some(mut tasks) = shared.compers[j].queue.steal_half(2) {
            if tasks.len() > max_tasks {
                // Keep the newest `max_tasks`; return the rest.
                let keep = tasks.split_off(tasks.len() - max_tasks);
                shared.compers[j].queue.push_batch(tasks);
                tasks = keep;
            }
            for t in &tasks {
                shared.task_mem.fetch_sub(task_cost(t), Ordering::Relaxed);
            }
            let count = tasks.len() as u64;
            return Some((to_bytes(&tasks), count));
        }
    }
    // (3) Spawn a batch directly for the thief.
    let verts: Vec<VertexId> = shared.local.claim_spawn_batch(shared.config.task_batch).to_vec();
    if verts.is_empty() {
        return None;
    }
    let batch: Vec<_> = verts
        .into_iter()
        .map(|v| {
            let adj = shared.local.get(v).expect("claimed vertex is local");
            (v, adj, shared.local.label(v))
        })
        .collect();
    let mut env = SpawnEnv::<A>::new(&shared.agg, None);
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.app.task_spawn_batch(&batch, &mut env)
    })) {
        shared.record_failure(payload);
        shared.done.store(true, std::sync::atomic::Ordering::SeqCst);
        shared.wake_all();
        return None;
    }
    let tasks: Vec<Task<A::Context>> = env.take_tasks();
    if tasks.is_empty() {
        return None; // all pruned at spawn
    }
    let count = tasks.len() as u64;
    Some((to_bytes(&tasks), count))
}

/// The GC thread: runs lazy eviction passes until the worker stops.
/// Event-driven: parks on `gc_events` whenever a pass evicts nothing
/// (the cache is under its limit), and is woken by the receiver after
/// response installs grow the cache, or by `wake_all` at shutdown.
pub(crate) fn gc_loop<A: App>(shared: &Arc<WorkerShared<A>>) {
    let mut handle = shared.cache.counter_handle();
    loop {
        // Listen before the stop check and the pass, so a wake between
        // "nothing evicted" and the wait below is never lost.
        let key = shared.gc_events.listen();
        if shared.stopping() {
            break;
        }
        let trace = shared.metrics.ring.enabled();
        let pass_start = if trace { now_nanos() } else { 0 };
        let evicted = shared.cache.gc_pass(&mut handle);
        if evicted > 0 {
            if trace {
                shared.metrics.ring.push(Event {
                    ts: pass_start,
                    dur: now_nanos().saturating_sub(pass_start),
                    tid: TID_GC,
                    arg: evicted as u64,
                    kind: EventKind::GcPass,
                });
            }
            // Evictions may reopen the pop() gate (`over_limit`) that
            // idle compers are parked behind.
            shared.sched_events.notify_all();
        } else {
            shared.gc_events.wait(key, Duration::from_millis(5));
        }
    }
    handle.flush();
}

/// Periodic duties of every worker's main thread (master or not), run
/// once per sync interval: flush request batches, retry lost pulls and
/// steal batches, sample memory, ship the aggregator partial. (The
/// progress report is [`WorkerShared::report_progress`], which also
/// runs between ticks on quiescence edges.)
pub(crate) fn worker_tick<A: App>(shared: &Arc<WorkerShared<A>>, master: WorkerId) {
    shared.batcher.flush_all(&*shared.net);
    // Loss tolerance: re-request pulls whose R-table deadline expired
    // (the wire may have dropped the request or the response). The scan
    // is a single atomic load when nothing is in flight, and each lost
    // vertex backs off exponentially inside the cache, so a healthy
    // wire pays nothing and a lossy one converges instead of storming.
    let timed_out = shared.cache.collect_timed_out(std::time::Instant::now());
    if !timed_out.is_empty() {
        shared.counters.pull_retries.fetch_add(timed_out.len() as u64, Ordering::Relaxed);
        for v in timed_out {
            let owner = shared.partitioner.owner(v);
            shared.batcher.add(&*shared.net, owner, v);
        }
        shared.batcher.flush_all(&*shared.net);
    }
    // Steal-batch loss tolerance: resend retained frames whose ack
    // deadline passed. Resends are byte-identical and the thief dedups
    // by sequence number, so redelivery is idempotent; collect under
    // the lock, send outside it (a TCP send may block).
    let resends: Vec<(WorkerId, u64, Vec<u8>)> = {
        let mut outgoing = shared.steal_outgoing.lock();
        if outgoing.is_empty() {
            Vec::new()
        } else {
            let now = Instant::now();
            let backoff = steal_resend_after(&shared.config);
            outgoing
                .iter_mut()
                .filter(|(_, o)| now >= o.deadline)
                .map(|(seq, o)| {
                    o.deadline = now + backoff;
                    (o.thief, *seq, o.framed.clone())
                })
                .collect()
        }
    };
    for (thief, seq, framed) in resends {
        shared.counters.steal_batch_bytes.fetch_add(framed.len() as u64, Ordering::Relaxed);
        shared.net.send(thief, Message::StealBatch { victim: shared.me, seq, bytes: framed });
    }
    shared.sample_memory();
    let partial = shared.agg.take_partial();
    shared.net.send(
        master,
        Message::AggregatorSync { worker: shared.me, payload: to_bytes(&partial), is_final: false },
    );
    // Clock-sync pings: non-master workers take a few RTT samples early
    // in the run so end-of-job trace stitching can map their event
    // timestamps onto the master's clock.
    if shared.config.num_workers > 1 && shared.me != master {
        if let Some(nonce) = shared.clock.begin_ping() {
            shared.net.send(master, Message::ClockPing { worker: shared.me, nonce });
        }
    }
    // Live metrics streaming: ship a compact cumulative snapshot every
    // `report_interval` so the master's cluster view stays fresh.
    if let Some(interval) = shared.config.report_interval {
        let due = {
            let mut last = shared.last_report.lock();
            match *last {
                Some(t) if t.elapsed() < interval => false,
                _ => {
                    *last = Some(Instant::now());
                    true
                }
            }
        };
        if due {
            crate::metrics::send_report(shared, master, false);
        }
    }
}
