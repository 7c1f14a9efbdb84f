//! Worker-internal shared state and the main thread's inbox dispatch.
//!
//! Each simulated machine runs (Fig. 3 / §V):
//! * `n` **comper** threads ([`crate::comper`]), which also keep
//!   `T_cache` bounded: a comper whose pop gate the cache overflow
//!   closes runs the GC pass (DESIGN.md §7, "Where OP4 runs"),
//! * the **worker main** thread (in [`crate::job`]), the only reader of
//!   the worker's inbox: between its periodic progress/aggregator
//!   synchronization ticks it answers vertex pulls, installs pull
//!   responses, lands steal transfers and, on worker 0, feeds control
//!   traffic to the master logic of [`crate::master`].

use crate::agg::LocalAgg;
use crate::api::{App, SpawnEnv};
use crate::config::JobConfig;
use crate::master::MasterState;
use crate::metrics::{ComperHists, WorkerCounters, WorkerHists};
use gthinker_graph::adj::SharedAdj;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_graph::partition::HashPartitioner;
use gthinker_metrics::{now_nanos, Event, EventKind, EventRing, TID_MAIN};
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
use gthinker_task::spill::{seal_batch, SpillManager};
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

/// Per-comper state shared with the main thread and with sibling
/// compers (which steal from `queue`).
pub(crate) struct ComperShared<C> {
    /// `B_task`: ready tasks moved here by the main thread.
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
    /// The metrics table's per-comper histograms; merged lock-free at
    /// snapshot time by the metrics registry.
    pub hists: ComperHists,
}

impl<C> ComperShared<C> {
    fn new(task_batch: usize) -> Self {
        ComperShared {
            buffer: TaskBuffer::new(),
            pending: PendingTable::new(),
            queue: SharedTaskQueue::new(task_batch),
            busy: AtomicBool::new(true), // busy until the comper proves idle
            hists: ComperHists::default(),
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
    /// Estimated bytes of task subgraphs currently in memory.
    pub task_mem: AtomicI64,
    /// Peak of the per-tick memory estimate.
    pub peak_mem: AtomicU64,
    /// Wakes compers parked for lack of work. Notified by the main
    /// thread (`B_task` push, new spilled batch), by sibling compers
    /// (enqueue crossing the stealable threshold, overflow spill, a GC
    /// pass that evicted and so may have reopened the pop gate) and on
    /// stop/suspend.
    pub sched_events: EventCount,
    /// Activity epoch: bumped on every idle → busy transition (a comper
    /// leaving a park with work, the main thread landing a steal batch
    /// or executing a steal request), *after* the transition is visible
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
    /// The metrics table's per-worker histograms.
    pub hists: WorkerHists,
    /// Bounded scheduler/cache event timeline (empty capacity = off).
    pub ring: EventRing,
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
        let ring = EventRing::new(config.trace_capacity);
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
            task_mem: AtomicI64::new(0),
            peak_mem: AtomicU64::new(0),
            sched_events: EventCount::new(),
            activity: AtomicU64::new(0),
            reported_epoch: AtomicU64::new(NOT_IDLE),
            counters: WorkerCounters::default(),
            failure: Mutex::new(None),
            steal_outgoing: Mutex::new(HashMap::new()),
            steal_inflight: AtomicU64::new(0),
            steal_seq: AtomicU64::new(0),
            steal_applied: Mutex::new(HashMap::new()),
            labels,
            output,
            hists: WorkerHists::default(),
            ring,
            clock: ClockSync::new(),
            telemetry: OnceLock::new(),
            remote_report: AtomicBool::new(false),
        })
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

    /// Wakes every parked thread of this worker — the main thread by a
    /// [`Message::Wake`] on its inbox. Call after flipping `done` or
    /// `suspend` so shutdown latency is bounded by the wakeup path, not
    /// by park fallbacks or the sync interval.
    pub fn wake_all(&self) {
        self.sched_events.notify_all();
        self.net.requeue(Message::Wake);
    }

    /// Estimated remaining load in tasks: spilled batches plus
    /// unspawned vertices plus queued/buffered/pending tasks.
    pub fn remaining_estimate(&self) -> u64 {
        let spilled = self.spill.num_batches() as u64 * self.config.task_batch as u64;
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
    ///   `Release` decrement the main thread performs *after* pushing the
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
    ///   `push_sealed`), making its own `spill.is_empty()` false.
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

    /// Asked by a thread that may just have made the worker quiescent
    /// (a comper about to park, the main thread after settling the last
    /// pull or the last unacked steal batch): true on a quiescence edge
    /// the main thread has not reported yet, whose idle report should
    /// leave now instead of at the next periodic tick.
    pub fn newly_quiescent(&self) -> bool {
        self.reported_epoch.load(Ordering::SeqCst) != self.activity.load(Ordering::SeqCst)
            && self.quiescent()
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
        if self.ring.enabled() {
            self.ring.push(Event { ts: now_nanos(), dur: 0, tid: TID_MAIN, arg, kind });
        }
    }

    /// Fails the job with a caught panic — a UDF's, or one while the
    /// main thread applied an inbound message — or with a comper's spill
    /// I/O error (a `String` payload): records its message
    /// (first one wins), then sets `done` and wakes every thread, so the
    /// main loop broadcasts `Terminate` and `run_job` re-raises the
    /// message once every thread has shut down.
    pub fn fail(&self, payload: Box<dyn std::any::Any + Send>) {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "application UDF panicked".to_string());
        self.failure.lock().get_or_insert(msg);
        self.done.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// One memory-estimate sample; updates the peak.
    pub fn sample_memory(&self) {
        let est = self.local.heap_bytes() as u64
            + self.cache.heap_bytes() as u64
            + self.task_mem.load(Ordering::Relaxed).max(0) as u64;
        self.peak_mem.fetch_max(est, Ordering::Relaxed);
    }
}

/// Answers one pull batch from `T_local` on the main thread that took
/// the request off the inbox: look each list up, send one
/// `VertexResponse` back, the lists encoded from `T_local` itself on a
/// TCP wire (`NetEndpoint::send_response`). Serving is a lookup and an
/// encode per vertex, cheaper than handing the batch to another thread.
fn serve_pull<A: App>(
    shared: &WorkerShared<A>,
    from: WorkerId,
    vertices: Vec<VertexId>,
    req_nanos: u64,
) {
    let start = now_nanos();
    let served = vertices.len() as u64;
    let entries: Vec<(VertexId, SharedAdj)> = vertices
        .into_iter()
        .map(|v| {
            let adj = shared
                .local
                .get(v)
                .unwrap_or_else(|| panic!("worker {} asked for non-local {v}", shared.me));
            (v, adj)
        })
        .collect();
    shared.net.send_response(from, &entries, req_nanos);
    let took = now_nanos().saturating_sub(start);
    shared.hists.pull_serve.record(took);
    if shared.ring.enabled() {
        shared.ring.push(Event {
            ts: start,
            dur: took,
            tid: TID_MAIN,
            arg: served,
            kind: EventKind::Respond,
        });
    }
    shared.counters.responses_served.fetch_add(served, Ordering::Relaxed);
}

/// Most messages the main thread applies before issuing its
/// accumulated wakeups. Sized so a burst of small responses amortizes
/// the parks and wakes without letting one batch starve control traffic.
const RECV_BATCH: usize = 64;

/// The main thread's side of its worker's inbox, of which it is the only
/// reader: a reused batch buffer, and whether applying the batch owes the
/// compers a wakeup. Every message is installed first, then **one**
/// `sched_events` notify fires — a batch of N vertex responses costs one
/// scheduler wakeup, not N.
#[derive(Default)]
pub(crate) struct Inbox {
    batch: Vec<Message>,
    wake_compers: bool,
}

impl Inbox {
    /// Waits at most `timeout` for inbound traffic, applies up to
    /// [`RECV_BATCH`] messages ([`handle_message`]; master-bound control
    /// traffic goes to `master`, and is dropped without one), then
    /// flushes the batch's wakeups. Returns true when a message asks for
    /// the main loop's sync step now.
    ///
    /// A panic while applying a message (a corrupt aggregator
    /// broadcast, say) fails the job the way a panicking UDF does
    /// ([`WorkerShared::fail`]).
    pub fn dispatch<A: App>(
        &mut self,
        shared: &Arc<WorkerShared<A>>,
        mut master: Option<&mut MasterState<A>>,
        timeout: Duration,
    ) -> bool {
        shared.net.recv_batch(timeout, RECV_BATCH, &mut self.batch);
        let mut sync = false;
        for msg in self.batch.drain(..) {
            let wake = &mut self.wake_compers;
            let master = master.as_deref_mut();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_message(shared, master, wake, msg)
            })) {
                Ok(wants_sync) => sync |= wants_sync,
                Err(payload) => {
                    shared.fail(payload);
                    sync = true;
                }
            }
        }
        if std::mem::take(&mut self.wake_compers) {
            shared.sched_events.notify_all();
        }
        sync
    }
}

/// Applies one inbound message on the main thread. Returns true when
/// the main loop should run its sync step (progress report, master
/// step) now rather than at the next tick: a [`Message::Wake`], a stop
/// signal, a quiescence edge this message caused, or control traffic
/// that can change the master's verdict or free its steal planner.
fn handle_message<A: App>(
    shared: &Arc<WorkerShared<A>>,
    master: Option<&mut MasterState<A>>,
    wake_compers: &mut bool,
    msg: Message,
) -> bool {
    if shared.crashed.load(Ordering::Relaxed) {
        // A dead machine processes nothing; the router also stops
        // delivering, but anything already queued is dropped here.
        return false;
    }
    match msg {
        Message::Crash => {
            // Fault-injected kill: stop every thread without the usual
            // shutdown courtesies (no final sync, no checkpoint shard).
            shared.crashed.store(true, Ordering::SeqCst);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
            true
        }
        Message::VertexRequest { from, vertices, sent_nanos } => {
            serve_pull(shared, from, vertices, sent_nanos);
            false
        }
        Message::VertexResponse { entries, req_nanos } => {
            // One RTT sample per response batch: send → install start.
            if req_nanos > 0 {
                shared.hists.pull_rtt.record(now_nanos().saturating_sub(req_nanos));
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
                    // happens under the table's lock, so no reader of
                    // `pending` then `buffer` can miss it.
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
            // Edge-triggered wake, batched: a comper parks only with
            // an empty B_task, so a response that completes no task
            // carries no edge it could act on — pull-count decrements
            // alone keep `pending + buffer` constant. The flag fires
            // one notify per received batch (`Inbox::dispatch`), not
            // one per message.
            *wake_compers |= made_ready;
            // No activity-epoch bump for a task made ready: a pull was
            // outstanding, so the worker was not quiescent, and a parked
            // comper that picks the task up bumps the epoch itself.
            settled_last_pull && !made_ready && shared.newly_quiescent()
        }
        Message::StealRequest { victim, thief, max_tasks } => {
            debug_assert_eq!(victim, shared.me, "steal request routed to the wrong worker");
            execute_steal_request(shared, thief, max_tasks)
        }
        Message::StealBatch { victim, seq, bytes } => {
            // Dedup before anything else: the data plane may duplicate
            // the frame, or deliver the victim's resend after the
            // original. Applying a sequence number twice would
            // double-run every task inside.
            let fresh = shared.steal_applied.lock().entry(victim).or_default().insert(seq);
            if fresh {
                // Steal batches cross a trust boundary (another process
                // on the tcp backend), so they travel sealed. Open the
                // frame and durably append the same bytes to `L_file`
                // BEFORE acking: some worker always owns the tasks
                // (overlap, never a gap). A bad frame or a failed append
                // fails the job unacked.
                let opened = frame::open(&bytes).map(drop).map_err(std::io::Error::from);
                if let Err(e) = opened.and_then(|()| shared.spill.push_sealed(&bytes)) {
                    shared.fail(Box::new(format!("cannot take a stolen task batch: {e}")));
                    return true;
                }
                // Idle → busy, bumped once the batch is visible in the
                // spill pool: a later probe is answered by this same
                // thread, so its ack cannot miss the bump.
                shared.activity.fetch_add(1, Ordering::SeqCst);
                shared.trace_main(EventKind::StealRecv, steal_flow_key(victim, seq));
                // A new spilled batch is a refill source every comper
                // checks (wake batched with the rest of this drain).
                *wake_compers = true;
                shared.net.send(WorkerId(0), Message::StealDone);
            }
            // (Re-)ack even for duplicates: the earlier ack may have
            // crossed a resend on the wire, and the victim keeps
            // resending until one lands.
            shared.net.send(victim, Message::StealAck { seq });
            false
        }
        Message::StealAck { seq } => {
            // The thief holds the batch durably; drop the retained
            // copy. A second ack for the same seq finds nothing.
            shared.steal_outgoing.lock().remove(&seq).is_some()
                && shared.steal_inflight.fetch_sub(1, Ordering::Release) == 1
                && shared.newly_quiescent()
        }
        Message::AggregatorGlobal { payload } => {
            match gthinker_task::codec::from_bytes(&payload) {
                Ok(global) => shared.agg.set_global(global),
                Err(e) => panic!("corrupt aggregator broadcast: {e}"),
            }
            false
        }
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
            false
        }
        Message::Terminate => {
            shared.trace_main(EventKind::Terminate, 0);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
            true
        }
        Message::Suspend => {
            shared.suspend.store(true, Ordering::SeqCst);
            shared.wake_all();
            true
        }
        Message::ClockPing { worker, nonce } => {
            // Clock-sync request from a peer: stamp it with this
            // process's metrics clock and bounce it straight back —
            // any queueing here would widen the RTT and loosen the
            // peer's offset estimate.
            shared.net.send(worker, Message::ClockPong { nonce, nanos: now_nanos() });
            false
        }
        Message::ClockPong { nonce, nanos } => {
            shared.clock.on_pong(nonce, nanos);
            false
        }
        Message::Abort { .. } => {
            // A peer process died and the master ordered a fall-back to
            // the last validated checkpoint. Stop cleanly (unlike
            // `Crash`): final control traffic still flows, and the
            // recovery runner re-rendezvouses afterwards.
            shared.aborted.store(true, Ordering::SeqCst);
            shared.done.store(true, Ordering::SeqCst);
            shared.wake_all();
            true
        }
        // Rendezvous-phase message; by the time the main loop runs, the
        // recovery runner has already consumed the one that mattered. A
        // straggling duplicate is meaningless.
        Message::Resume { .. } => false,
        Message::Wake => true,
        m @ (Message::Progress { .. }
        | Message::ProbeAck { .. }
        | Message::AggregatorSync { .. }
        | Message::MetricsReport { .. }
        | Message::StealExecuted { .. }
        | Message::StealDone
        | Message::SuspendDone { .. }
        | Message::PeerDown { .. }) => {
            // Master-only control traffic. A non-master drops it
            // (`PeerDown` there means nothing: the master decides what a
            // dead peer means for the job).
            master.is_some_and(|master| master.absorb(m))
        }
    }
}

/// How long a victim waits for a [`Message::StealAck`] before
/// resending the retained frame. Reuses the pull-retry deadline: both
/// recover the same class of data-plane loss on the same wire.
fn steal_resend_after(config: &JobConfig) -> Duration {
    config.cache.pull_timeout
}

/// Task count of a sealed batch: the u64 LE its payload starts with.
fn batch_task_count(sealed: &[u8]) -> u64 {
    let count = sealed.get(frame::HEADER_LEN..frame::HEADER_LEN + 8);
    count.map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
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
/// an already-spilled batch (zero serialization), then the newest
/// half of the largest live comper `Q_task` (the straggler drain the
/// cluster stealing exists for), then fresh tasks spawned from
/// unspawned local vertices (the paper: stolen tasks "could be spawned
/// from their local vertex table"). True when an empty-handed request
/// leaves the worker newly quiescent.
fn execute_steal_request<A: App>(
    shared: &Arc<WorkerShared<A>>,
    thief: WorkerId,
    max_tasks: u32,
) -> bool {
    // Cover the assembly window: from the moment tasks leave a local
    // source until the sealed batch sits in the ledger, this counter
    // keeps the worker non-quiescent (`WorkerShared::quiescent`).
    shared.steal_inflight.fetch_add(1, Ordering::SeqCst);
    // Even an empty-handed request takes the worker out of quiescence
    // for a moment; an idle report from before it must not be confirmed.
    shared.activity.fetch_add(1, Ordering::SeqCst);
    let Some((framed, count)) = steal_payload(shared, (max_tasks as usize).max(1)) else {
        shared.steal_inflight.fetch_sub(1, Ordering::Release);
        shared.net.send(WorkerId(0), Message::StealExecuted { sent: 0 });
        return shared.newly_quiescent();
    };
    let seq = shared.steal_seq.fetch_add(1, Ordering::Relaxed);
    shared.counters.remote_steals.fetch_add(1, Ordering::Relaxed);
    shared.counters.remote_stolen_tasks.fetch_add(count, Ordering::Relaxed);
    shared.counters.steal_batch_bytes.fetch_add(framed.len() as u64, Ordering::Relaxed);
    shared.steal_outgoing.lock().insert(
        seq,
        OutgoingSteal {
            thief,
            framed: framed.clone(),
            deadline: Instant::now() + steal_resend_after(&shared.config),
        },
    );
    shared.net.send(thief, Message::StealBatch { victim: shared.me, seq, bytes: framed });
    shared.trace_main(EventKind::StealSend, steal_flow_key(shared.me, seq));
    shared.net.send(WorkerId(0), Message::StealExecuted { sent: 1 });
    false
}

/// Picks one steal batch, sealed like a spilled batch, plus the task
/// count inside. `None` when the victim has nothing transferable.
fn steal_payload<A: App>(
    shared: &Arc<WorkerShared<A>>,
    max_tasks: usize,
) -> Option<(Vec<u8>, u64)> {
    // (1) An already-spilled batch ships as-is: it is sealed already.
    let spilled = shared.spill.pop_sealed().unwrap_or_else(|e| {
        shared.fail(Box::new(format!("cannot read a spilled task batch for a thief: {e}")));
        None
    });
    if let Some(sealed) = spilled {
        let count = batch_task_count(&sealed);
        return Some((sealed, count));
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
            return Some((seal_batch(&tasks), count));
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
        shared.fail(payload);
        return None;
    }
    let tasks: Vec<Task<A::Context>> = env.take_tasks();
    if tasks.is_empty() {
        return None; // all pruned at spawn
    }
    let count = tasks.len() as u64;
    Some((seal_batch(&tasks), count))
}

/// Periodic duties of every worker's main thread (master or not), run
/// once per sync interval: flush request batches, retry lost pulls and
/// steal batches, sample memory, ship the aggregator partial. (The
/// progress report is [`WorkerShared::report_progress`], which also
/// runs between ticks on quiescence edges.) `last_report` is when the
/// last periodic metrics report went out.
pub(crate) fn worker_tick<A: App>(
    shared: &Arc<WorkerShared<A>>,
    master: WorkerId,
    last_report: &mut Option<Instant>,
) {
    shared.batcher.flush_all(&*shared.net);
    // Loss tolerance: re-request pulls whose R-table deadline expired
    // (the wire may have dropped the request or the response). The scan
    // is a single atomic load when nothing is in flight, and each lost
    // vertex backs off exponentially inside the cache, so a healthy
    // wire pays nothing and a lossy one converges instead of storming.
    let timed_out = shared.cache.collect_timed_out(std::time::Instant::now());
    if !timed_out.is_empty() {
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
        if last_report.is_none_or(|t| t.elapsed() >= interval) {
            *last_report = Some(Instant::now());
            crate::metrics::send_report(shared, master, false);
        }
    }
}
