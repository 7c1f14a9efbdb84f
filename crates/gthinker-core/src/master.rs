//! Master-side coordination (run on worker 0's main thread).
//!
//! The master merges aggregator partials and broadcasts the global
//! value, gathers progress reports, plans work stealing from loaded to
//! idle workers, and decides distributed termination (or suspension for
//! the fault-tolerance path). The termination verdict itself is the
//! pure state machine in [`crate::termination`]; this module feeds it
//! events and carries out its actions.

use crate::agg::Aggregator;
use crate::api::App;
use crate::termination::{Action, Event, Termination};
use crate::worker::WorkerShared;
use crossbeam::channel::Receiver;
use gthinker_graph::ids::WorkerId;
use gthinker_net::message::Message;
use gthinker_task::codec::{from_bytes, to_bytes};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum estimated remaining batches on a victim before the master
/// bothers stealing from it.
const STEAL_MIN_REMAINING: u64 = 2;

/// Imbalance hysteresis: the master brokers a steal only when the
/// victim's remaining estimate is at least this many times the thief's
/// (floored at one task batch). Prevents batches ping-ponging between
/// near-balanced workers.
const STEAL_IMBALANCE: u64 = 2;

/// Upper bound on tasks per brokered batch, in task-batch (`C`) units.
const STEAL_MAX_BATCHES: u64 = 4;

/// Master-side retry: how long an unfinished brokering may stay open
/// before it is abandoned and re-planned. Safe to drop early — any
/// batch already in flight is still owned (and resent) by its victim,
/// whose quiescence predicate accounts for it, so abandoning the
/// bookkeeping can neither lose work nor unblock termination.
const STEAL_RETRY: Duration = Duration::from_secs(3);

#[derive(Clone, Copy, Default)]
struct Report {
    remaining: u64,
    /// The planner's view of "this worker is starving": the report's
    /// idle flag, cleared when a batch is brokered to the worker. (The
    /// termination verdict keeps its own, epoch-checked copy.)
    quiescent: bool,
    seen: bool,
    /// Compers the worker reported parked with nothing reachable.
    idle_compers: u16,
    /// Steal batches the worker has sealed but not yet seen acked.
    steal_inflight: u32,
    /// Report arrived after `request_suspend` (the suspend broadcast
    /// gates on a post-request report from every worker showing
    /// `steal_inflight == 0`).
    fresh: bool,
}

/// Outstanding steal-brokering bookkeeping. At most one is in flight
/// at a time; termination is blocked while one is.
struct StealPlanState {
    /// `Some(sent)` once the victim reported execution.
    executed: Option<u32>,
    /// Receipt acks from the thief so far.
    acked: u32,
    /// When the brokering is abandoned (retry timeout).
    deadline: Instant,
}

impl StealPlanState {
    fn complete(&self) -> bool {
        matches!(self.executed, Some(sent) if self.acked >= sent)
    }
}

/// The per-worker message a [`MasterState::collect`] waits for.
#[derive(Clone, Copy)]
pub(crate) enum Collect {
    /// The final aggregator partial, after termination.
    Finals,
    /// `SuspendDone`, after a suspend broadcast.
    Suspends,
}

/// Master state machine; drive with [`MasterState::step`].
pub(crate) struct MasterState<A: App> {
    shared: Arc<WorkerShared<A>>,
    ctrl: Receiver<Message>,
    global: <A::Agg as Aggregator>::Global,
    reports: Vec<Report>,
    plan: Option<StealPlanState>,
    term: Termination,
    /// Encoding of the last global broadcast; an unchanged value is not
    /// sent again.
    sent_global: Option<Vec<u8>>,
    finals_seen: Vec<bool>,
    suspend_seen: Vec<bool>,
    /// Set by [`MasterState::request_suspend`]; the actual broadcast is
    /// deferred until no brokering is in flight and every worker's
    /// post-request progress report shows zero unacked steal batches —
    /// otherwise a batch could land in both the victim's checkpoint and
    /// the thief's, double-running its tasks after resume.
    suspend_pending: bool,
    terminated: bool,
    /// Failure-detection window; `None` disables detection (a job with
    /// no fault injection never pays for it).
    heartbeat: Option<Duration>,
    /// Last time each worker was heard from on the control channel.
    last_seen: Vec<Instant>,
    /// Per-worker TCP peer-death events ([`Message::PeerDown`] from the
    /// transport): the socket-level complement to the heartbeat. A
    /// closed link is evidence *now*; the heartbeat window is only the
    /// backstop for a peer that hangs without dying.
    peer_down: Vec<bool>,
    /// First worker the failure detector declared dead, if any.
    failed: Option<WorkerId>,
}

impl<A: App> MasterState<A> {
    pub fn new(
        shared: Arc<WorkerShared<A>>,
        ctrl: Receiver<Message>,
        heartbeat: Option<Duration>,
    ) -> Self {
        let global = shared.agg.aggregator().init_global();
        let n = shared.config.num_workers;
        MasterState {
            shared,
            ctrl,
            global,
            reports: vec![Report::default(); n],
            plan: None,
            term: Termination::new(n),
            sent_global: None,
            finals_seen: vec![false; n],
            suspend_seen: vec![false; n],
            suspend_pending: false,
            terminated: false,
            heartbeat,
            last_seen: vec![Instant::now(); n],
            peer_down: vec![false; n],
            failed: None,
        }
    }

    /// The worker the heartbeat declared crashed, if any.
    pub fn failed(&self) -> Option<WorkerId> {
        self.failed
    }

    /// Drains control traffic and reacts to it: runs on every wake of
    /// the worker-0 main thread, `periodic` marking the ones that fall
    /// on the sync-interval cadence (the only ones that broadcast the
    /// global aggregate). Returns `true` once the master has broadcast
    /// the terminate (or suspend) decision.
    pub fn step(&mut self, periodic: bool) -> bool {
        self.drain_ctrl();
        if self.detect_failure() {
            return true;
        }
        if periodic {
            self.broadcast_global();
        }
        if self.terminated {
            return true;
        }
        if self.suspend_pending {
            self.try_broadcast_suspend();
            return self.terminated;
        }
        self.plan_stealing();
        false
    }

    /// Feeds the termination state machine and carries out its action.
    /// A pending suspend ends the segment instead, so the verdict is
    /// not pursued while one is.
    fn observe(&mut self, event: Event) {
        if self.terminated || self.suspend_pending {
            return;
        }
        match self.term.step(event) {
            Some(Action::Probe { round }) => {
                self.shared.trace_main(gthinker_metrics::EventKind::Probe, round);
                // The master's own worker answers like any other: its
                // receiver thread evaluates the ack, which is what the
                // "continuously idle" argument needs.
                for w in 0..self.shared.config.num_workers {
                    self.shared.net.send(WorkerId(w as u16), Message::Probe { round });
                }
            }
            Some(Action::Terminate) => {
                self.terminated = true;
                self.shared.trace_main(gthinker_metrics::EventKind::Terminate, 0);
                self.shared.net.broadcast(&Message::Terminate);
                self.shared.done.store(true, std::sync::atomic::Ordering::SeqCst);
                // Remote workers are woken by their receivers on
                // Terminate; this wakes the master's own parked threads.
                self.shared.wake_all();
            }
            None => {}
        }
    }

    /// The unified failure detector. Two signals fold into one verdict:
    ///
    /// * **TCP peer-down events** (socket EOF / reset surfaced by the
    ///   transport as [`Message::PeerDown`]) — event-driven, checked
    ///   unconditionally; a closed link *is* a dead peer.
    /// * **Heartbeat silence** — deadline-driven backstop for a peer
    ///   that hangs without closing its sockets; only armed when a
    ///   window is configured.
    ///
    /// On a verdict the job is torn down: [`Message::Terminate`] (the
    /// job fails) or, when the shared `abort_on_failure` flag is set by
    /// the cluster-recovery runner, [`Message::Abort`] (every survivor
    /// falls back to the last validated checkpoint and re-rendezvouses).
    /// Worker 0 hosts this master loop, so it is exempt.
    fn detect_failure(&mut self) -> bool {
        if self.terminated {
            return false;
        }
        let now = Instant::now();
        let dead = (1..self.shared.config.num_workers).find(|&w| {
            self.peer_down[w]
                || self
                    .heartbeat
                    .is_some_and(|window| now.duration_since(self.last_seen[w]) > window)
        });
        let Some(w) = dead else { return false };
        let w = WorkerId(w as u16);
        self.failed = Some(w);
        self.terminated = true;
        if self.shared.abort_on_failure.load(std::sync::atomic::Ordering::Relaxed) {
            self.shared.net.broadcast(&Message::Abort { worker: w });
            self.shared.aborted.store(true, std::sync::atomic::Ordering::SeqCst);
        } else {
            self.shared.net.broadcast(&Message::Terminate);
        }
        self.shared.done.store(true, std::sync::atomic::Ordering::SeqCst);
        self.shared.wake_all();
        true
    }

    fn drain_ctrl(&mut self) {
        while let Ok(msg) = self.ctrl.try_recv() {
            self.absorb(msg);
        }
    }

    fn absorb(&mut self, msg: Message) {
        match msg {
            Message::Progress { worker, remaining, idle, idle_compers, steal_inflight, epoch } => {
                self.reports[worker.index()] = Report {
                    remaining,
                    quiescent: idle,
                    seen: true,
                    idle_compers,
                    steal_inflight,
                    fresh: true,
                };
                self.last_seen[worker.index()] = Instant::now();
                self.observe(Event::Report { worker: worker.index(), idle, epoch });
            }
            Message::ProbeAck { worker, round, idle, epoch } => {
                self.last_seen[worker.index()] = Instant::now();
                self.observe(Event::Ack { worker: worker.index(), round, idle, epoch });
            }
            Message::AggregatorSync { worker, payload, is_final } => {
                let partial: <A::Agg as Aggregator>::Partial =
                    from_bytes(&payload).expect("partials encode/decode symmetrically");
                self.shared.agg.aggregator().merge(&mut self.global, &partial);
                self.last_seen[worker.index()] = Instant::now();
                if is_final {
                    self.finals_seen[worker.index()] = true;
                }
            }
            Message::StealExecuted { sent } => {
                if let Some(plan) = &mut self.plan {
                    plan.executed = Some(sent);
                }
            }
            Message::StealDone => {
                if let Some(plan) = &mut self.plan {
                    plan.acked += 1;
                }
            }
            Message::SuspendDone { worker } => {
                self.suspend_seen[worker.index()] = true;
                self.last_seen[worker.index()] = Instant::now();
            }
            Message::PeerDown { worker } => {
                // Transport-level peer death. Per-link FIFO means every
                // control message the peer managed to send was absorbed
                // before this event, so during teardown it is benign
                // (the `terminated` guard in `detect_failure`) and
                // during a run it is immediate, sleep-free evidence.
                self.peer_down[worker.index()] = true;
            }
            Message::MetricsReport { worker, payload, is_final } => {
                // Telemetry is advisory: a report that fails its frame
                // check is dropped (the next cumulative report
                // supersedes it anyway), but any report — even a
                // corrupt one — proves the worker is alive.
                self.last_seen[worker.index()] = Instant::now();
                if let Some(telemetry) = self.shared.telemetry.get() {
                    match crate::metrics::WorkerMetricsSnapshot::decode_report(&payload) {
                        Ok(snap) => telemetry.publish(worker.index(), snap, is_final),
                        Err(e) => eprintln!("dropping corrupt metrics report from {worker}: {e}"),
                    }
                }
            }
            other => panic!("unexpected control message at master: {other:?}"),
        }
        if self.plan.as_ref().is_some_and(StealPlanState::complete) {
            self.plan = None;
            self.observe(Event::PlanClosed);
        }
    }

    /// Broadcasts the merged global aggregate, unless it still encodes
    /// to exactly what the last broadcast carried.
    fn broadcast_global(&mut self) {
        let payload = to_bytes(&self.global);
        if self.sent_global.as_ref() == Some(&payload) {
            return;
        }
        self.shared.net.broadcast(&Message::AggregatorGlobal { payload: payload.clone() });
        // The master's own snapshot updates directly (its self-send
        // would work too, but this keeps it fresh within the tick).
        if let Ok(g) = from_bytes(&payload) {
            self.shared.agg.set_global(g);
        }
        self.sent_global = Some(payload);
    }

    /// Picks one (victim, thief) pair when the ready-queue depth and
    /// idle-comper reports show a clear imbalance, and brokers a steal
    /// by sending the victim a [`Message::StealRequest`]. One brokering
    /// in flight at a time; a stuck one is abandoned (and later
    /// re-planned) after [`STEAL_RETRY`].
    fn plan_stealing(&mut self) {
        if !self.shared.config.work_stealing {
            return;
        }
        if let Some(plan) = &self.plan {
            if Instant::now() < plan.deadline {
                return;
            }
            self.plan = None; // timed out — re-broker below
            self.observe(Event::PlanClosed);
        }
        // Thief: the most starved worker — fully quiescent beats
        // partially idle, more parked compers beats fewer.
        let thief = self
            .reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.seen && (r.quiescent || r.idle_compers > 0))
            .max_by_key(|(_, r)| (r.quiescent, r.idle_compers))
            .map(|(w, _)| w);
        let batch = self.shared.config.task_batch as u64;
        let victim = self
            .reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.seen)
            .max_by_key(|(_, r)| r.remaining)
            .filter(|(_, r)| r.remaining >= STEAL_MIN_REMAINING * batch)
            .map(|(w, r)| (w, r.remaining));
        if let (Some(thief), Some((victim, remaining))) = (thief, victim) {
            if thief == victim {
                return;
            }
            // Hysteresis: act only when the victim holds a multiple of
            // the thief's load. A fully-quiescent thief reduces this to
            // the old `STEAL_MIN_REMAINING` threshold.
            if remaining < STEAL_IMBALANCE * self.reports[thief].remaining.max(batch) {
                return;
            }
            let max_tasks = (remaining / 2).clamp(1, STEAL_MAX_BATCHES * batch) as u32;
            self.plan = Some(StealPlanState {
                executed: None,
                acked: 0,
                deadline: Instant::now() + STEAL_RETRY,
            });
            // Before the request leaves: from here until the plan
            // closes, no confirmation wave can succeed.
            self.observe(Event::PlanOpened);
            self.shared.net.send(
                WorkerId(victim as u16),
                Message::StealRequest {
                    victim: WorkerId(victim as u16),
                    thief: WorkerId(thief as u16),
                    max_tasks,
                },
            );
            // A stolen batch makes the thief non-quiescent; clear the
            // stale flags until fresh reports arrive.
            self.reports[thief].quiescent = false;
            self.reports[thief].idle_compers = 0;
        }
    }

    /// Requests a suspend (fault-tolerance path). Idempotent; the
    /// broadcast itself is deferred by [`MasterState::step`] until the
    /// steal protocol holds no task in flight, so a checkpoint can
    /// never capture a batch on both its victim and its thief.
    pub fn request_suspend(&mut self) {
        if self.suspend_pending || self.terminated {
            return;
        }
        self.suspend_pending = true;
        // Only reports that arrive from here on prove the in-flight
        // count drained *after* brokering stopped.
        for r in &mut self.reports {
            r.fresh = false;
        }
    }

    /// Broadcasts the deferred suspend once it is provably safe: no
    /// brokering outstanding, and every worker's post-request progress
    /// report shows zero sealed-but-unacked steal batches. In-flight
    /// counts only drain while the request is pending (no new plans are
    /// issued), so this fires within a few sync rounds.
    fn try_broadcast_suspend(&mut self) {
        let ready =
            self.plan.is_none() && self.reports.iter().all(|r| r.fresh && r.steal_inflight == 0);
        if !ready {
            return;
        }
        self.terminated = true;
        self.shared.net.broadcast(&Message::Suspend);
        self.shared.suspend.store(true, std::sync::atomic::Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Waits for one `what` message per worker — after termination the
    /// final partials, after a suspend broadcast the checkpoint-shard
    /// acknowledgements — then returns the global value (final, or to
    /// be persisted). A crashed worker sends neither, so with a
    /// heartbeat configured the wait is bounded: quiet for longer than
    /// the window → the missing worker is declared failed and the
    /// (unreliable) global returned.
    pub fn collect(&mut self, what: Collect) -> <A::Agg as Aggregator>::Global {
        let mut quiet_since = Instant::now();
        while !self.seen(what).iter().all(|&s| s) {
            match self.ctrl.recv_timeout(Duration::from_millis(100)) {
                Ok(msg) => {
                    self.absorb(msg);
                    quiet_since = Instant::now();
                    // Event-driven bail: nothing can arrive from a
                    // worker whose sockets have closed.
                    if self.missing_are_down(|s| s.seen(what)) {
                        break;
                    }
                }
                Err(_) => {
                    // Keep waiting; receivers forward the messages as
                    // they come — unless the silence outlasts the
                    // heartbeat.
                    if self.give_up(quiet_since, |s| s.seen(what)) {
                        break;
                    }
                }
            }
        }
        self.global.clone()
    }

    /// Which workers' `what` message has arrived.
    fn seen(&self, what: Collect) -> &Vec<bool> {
        match what {
            Collect::Finals => &self.finals_seen,
            Collect::Suspends => &self.suspend_seen,
        }
    }

    /// Shared bail-out for [`Self::collect`]: once the control channel
    /// has been silent past the heartbeat window, name the first worker
    /// still missing from `seen` as failed and stop waiting.
    fn give_up(&mut self, quiet_since: Instant, seen: impl Fn(&Self) -> &Vec<bool>) -> bool {
        let Some(window) = self.heartbeat else { return false };
        if quiet_since.elapsed() <= window {
            return false;
        }
        if self.failed.is_none() {
            let missing = seen(self).iter().position(|s| !s).unwrap_or(0);
            self.failed = Some(WorkerId(missing as u16));
        }
        true
    }

    /// Event-driven counterpart of [`Self::give_up`]: true when at
    /// least one worker is still missing from `seen` and every missing
    /// worker's transport link has already closed — nothing more can
    /// arrive, so waiting out the heartbeat would be pure latency.
    fn missing_are_down(&mut self, seen: impl Fn(&Self) -> &Vec<bool>) -> bool {
        let missing: Vec<usize> =
            seen(self).iter().enumerate().filter_map(|(w, &s)| (!s).then_some(w)).collect();
        if missing.is_empty() || missing.iter().any(|&w| !self.peer_down[w]) {
            return false;
        }
        if self.failed.is_none() {
            self.failed = Some(WorkerId(missing[0] as u16));
        }
        true
    }

    /// Seeds the master's running global (checkpoint resume).
    pub fn set_global(&mut self, g: <A::Agg as Aggregator>::Global) {
        self.global = g;
    }
}
