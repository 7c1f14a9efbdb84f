//! The simulated cluster interconnect.
//!
//! A [`Router`] connects `n` simulated workers living in one process.
//! Each worker owns a [`NetHandle`] with an inbox; sends go through an
//! optional **latency/bandwidth model** ([`LinkConfig`]) that reproduces
//! the behaviour of the paper's GigE testbed: every message is delayed
//! by a fixed per-message latency plus its size divided by the link
//! bandwidth, and messages on the same directed link serialize (a large
//! steal batch delays the requests queued behind it).
//!
//! With the default zero-cost config, messages are delivered
//! immediately — that models the single-machine case where "tasks never
//! need to wait for remote vertices" (Table IV(c)).

use crate::fault::{FaultConfig, FaultRuntime, FaultStats};
use crate::message::Message;
use crate::transport::{NetEndpoint, NetStats, Transport};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gthinker_graph::ids::WorkerId;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency/bandwidth model for every directed link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Fixed delay added to every message (round-trip time share).
    pub latency: Duration,
    /// Link bandwidth in bytes/second; `None` = infinite.
    pub bytes_per_sec: Option<u64>,
}

impl LinkConfig {
    /// No latency, infinite bandwidth: in-process delivery.
    pub const INSTANT: LinkConfig = LinkConfig { latency: Duration::ZERO, bytes_per_sec: None };

    /// A GigE-like profile scaled for the simulator: 100 µs latency,
    /// 125 MB/s. (The paper's cluster used GigE and observed that
    /// network cost matters; this profile reproduces that shape.)
    pub fn gige() -> LinkConfig {
        LinkConfig { latency: Duration::from_micros(100), bytes_per_sec: Some(125_000_000) }
    }

    /// True when this config delivers instantly.
    pub fn is_instant(&self) -> bool {
        self.latency.is_zero() && self.bytes_per_sec.is_none()
    }

    /// Transmission time of a message of `bytes` bytes.
    fn tx_time(&self, bytes: usize) -> Duration {
        match self.bytes_per_sec {
            None => Duration::ZERO,
            Some(bw) => Duration::from_secs_f64(bytes as f64 / bw as f64),
        }
    }
}

struct Envelope {
    deliver_at: Instant,
    seq: u64,
    to: usize,
    msg: Message,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Envelope {}
impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Envelope {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct Shared {
    inbox_txs: Vec<Sender<Message>>,
    stats: Vec<NetStats>,
    config: LinkConfig,
    /// `busy_until[from * n + to]`: when the directed link frees up.
    link_busy: Vec<Mutex<Instant>>,
    delay_tx: Option<Sender<Envelope>>,
    seq: AtomicU64,
    num_workers: usize,
    /// Present only when fault injection is enabled; the fault-free
    /// path pays a single `Option` check per send.
    fault: Option<FaultRuntime>,
}

/// The simulated interconnect; create once per job, then split into
/// per-worker [`NetHandle`]s.
pub struct Router {
    shared: Arc<Shared>,
    delivery_thread: Option<std::thread::JoinHandle<()>>,
    handles_taken: bool,
    inbox_rxs: Vec<Option<Receiver<Message>>>,
}

impl Router {
    /// Creates a router for `n` workers with the given link model and
    /// no fault injection.
    pub fn new(n: usize, config: LinkConfig) -> Router {
        Router::with_faults(n, config, FaultConfig::default())
    }

    /// Creates a router whose wire additionally obeys `fault`.
    pub fn with_faults(n: usize, config: LinkConfig, fault: FaultConfig) -> Router {
        assert!(n >= 1, "need at least one worker");
        if let Some(cs) = &fault.crash {
            assert!(cs.worker.index() < n, "crash target out of range");
            assert!(cs.worker.index() != 0, "worker 0 hosts the master loop and cannot crash");
        }
        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded()).map(|(tx, rx)| (tx, Some(rx))).unzip();
        let now = Instant::now();
        let link_busy = (0..n * n).map(|_| Mutex::new(now)).collect();
        let stats = (0..n).map(|_| NetStats::default()).collect();
        let fault = FaultRuntime::new(n, fault);

        // Fault-injected delays need the delivery heap even on an
        // otherwise instant link.
        let (delay_tx, delivery_thread) = if config.is_instant() && fault.is_none() {
            (None, None)
        } else {
            let (tx, rx) = unbounded::<Envelope>();
            let txs = inbox_txs.clone();
            let thread = std::thread::Builder::new()
                .name("net-delivery".into())
                .spawn(move || delivery_loop(rx, txs))
                .expect("spawn delivery thread");
            (Some(tx), Some(thread))
        };

        Router {
            shared: Arc::new(Shared {
                inbox_txs,
                stats,
                config,
                link_busy,
                delay_tx,
                seq: AtomicU64::new(0),
                num_workers: n,
                fault,
            }),
            delivery_thread,
            handles_taken: false,
            inbox_rxs,
        }
    }

    /// Number of connected workers.
    pub fn num_workers(&self) -> usize {
        self.shared.num_workers
    }

    /// Takes the per-worker handles; callable once.
    pub fn take_handles(&mut self) -> Vec<NetHandle> {
        assert!(!self.handles_taken, "handles already taken");
        self.handles_taken = true;
        (0..self.inbox_rxs.len()).map(|i| self.take_handle(WorkerId(i as u16))).collect()
    }

    /// Takes one worker's handle; callable once per worker.
    pub fn take_handle(&mut self, w: WorkerId) -> NetHandle {
        let rx = self.inbox_rxs[w.index()].take().expect("handle already taken");
        NetHandle { shared: Arc::clone(&self.shared), inbox: rx, me: w.index() }
    }

    /// Total bytes sent across all workers.
    pub fn total_bytes(&self) -> u64 {
        self.shared.stats.iter().map(|s| s.bytes_sent.load(Ordering::Relaxed)).sum()
    }

    /// Per-worker traffic counters.
    pub fn stats(&self, w: WorkerId) -> &NetStats {
        &self.shared.stats[w.index()]
    }

    /// Per-worker fault counters; `None` when fault injection is off.
    pub fn fault_stats(&self, w: WorkerId) -> Option<&FaultStats> {
        self.shared.fault.as_ref().map(|f| f.stats(w.index()))
    }
}

impl Transport for Router {
    fn num_workers(&self) -> usize {
        self.shared.num_workers
    }

    /// The simulated router hosts the whole cluster in one process.
    fn hosted(&self) -> Vec<WorkerId> {
        (0..self.shared.num_workers).map(|w| WorkerId(w as u16)).collect()
    }

    fn take_endpoint(&mut self, w: WorkerId) -> Box<dyn NetEndpoint> {
        Box::new(self.take_handle(w))
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // The delivery thread exits once every sender clone of its
        // channel is gone (i.e. when all NetHandles drop). Joining here
        // could deadlock while handles are still alive, so detach.
        drop(self.delivery_thread.take());
    }
}

fn delivery_loop(rx: Receiver<Envelope>, txs: Vec<Sender<Message>>) {
    let mut heap: BinaryHeap<Reverse<Envelope>> = BinaryHeap::new();
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(e)| e.deliver_at <= now) {
            let Reverse(e) = heap.pop().expect("peeked");
            // Receiver may be gone during shutdown; ignore.
            let _ = txs[e.to].send(e.msg);
        }
        let timeout = heap
            .peek()
            .map(|Reverse(e)| e.deliver_at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(env) => heap.push(Reverse(env)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Drain remaining messages immediately (job teardown).
                while let Some(Reverse(e)) = heap.pop() {
                    let _ = txs[e.to].send(e.msg);
                }
                return;
            }
        }
    }
}

/// One worker's endpoint: send to any worker, receive from its inbox.
pub struct NetHandle {
    shared: Arc<Shared>,
    inbox: Receiver<Message>,
    me: usize,
}

impl NetHandle {
    /// Delivers one copy of `msg`, through the delay heap when the link
    /// model or an injected delay requires it.
    fn deliver(&self, to: usize, msg: Message, bytes: usize, extra: Duration) {
        let s = &self.shared;
        s.stats[to].bytes_received.fetch_add(bytes as u64, Ordering::Relaxed);
        s.stats[to].msgs_received.fetch_add(1, Ordering::Relaxed);
        match (&s.delay_tx, to == self.me) {
            // Self-sends and instant configs bypass the delay model.
            (None, _) | (_, true) => {
                let _ = s.inbox_txs[to].send(msg);
            }
            (Some(delay_tx), false) => {
                let now = Instant::now();
                let link = &s.link_busy[self.me * s.num_workers + to];
                let deliver_at = {
                    let mut busy = link.lock();
                    let start = (*busy).max(now);
                    let done = start + s.config.latency + s.config.tx_time(bytes);
                    *busy = done;
                    done
                };
                let seq = s.seq.fetch_add(1, Ordering::Relaxed);
                // Injected delay holds the message, not the link: later
                // traffic overtakes it (that is the reorder).
                let deliver_at = deliver_at + extra;
                let _ = delay_tx.send(Envelope { deliver_at, seq, to, msg });
            }
        }
    }
}

impl NetEndpoint for NetHandle {
    fn id(&self) -> WorkerId {
        WorkerId(self.me as u16)
    }

    fn num_workers(&self) -> usize {
        self.shared.num_workers
    }

    /// Sends `msg` to worker `to`, applying the link model and, when
    /// enabled, the fault model.
    fn send(&self, to: WorkerId, msg: Message) {
        let s = &self.shared;
        if let Some(f) = &s.fault {
            // A dying machine does not go through the wire model: the
            // Crash signal jumps straight to the victim's inbox.
            if let Some(victim) = f.crash_due() {
                let _ = s.inbox_txs[victim].send(Message::Crash);
            }
            // A dead machine neither sends nor receives; in-flight
            // traffic to it still reaches the inbox and is discarded by
            // the worker's crashed guard.
            if f.is_crashed(self.me) || f.is_crashed(to.index()) {
                return;
            }
        }
        let bytes = msg.encoded_len();
        s.stats[self.me].bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        s.stats[self.me].msgs_sent.fetch_add(1, Ordering::Relaxed);

        let mut extra = Duration::ZERO;
        if let Some(f) = &s.fault {
            if to.index() != self.me && msg.is_data_plane() {
                let d = f.next_decision(self.me, to.index());
                if d.drop {
                    return;
                }
                if d.duplicate {
                    // The copy trails the original by one jitter window.
                    let lag = d.delay + f.config().reorder_jitter;
                    self.deliver(to.index(), msg.clone(), bytes, lag);
                }
                extra = d.delay;
            }
        }
        self.deliver(to.index(), msg, bytes, extra);
    }

    /// Straight into the inbox: no traffic accounting, and no fault
    /// model — a crashed worker's main thread is still woken.
    fn requeue(&self, msg: Message) {
        let _ = self.shared.inbox_txs[self.me].send(msg);
    }

    fn try_recv(&self) -> Option<Message> {
        self.inbox.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn stats(&self) -> &NetStats {
        &self.shared.stats[self.me]
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.shared.fault.as_ref().map(|f| f.stats(self.me))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_graph::ids::VertexId;

    #[test]
    fn instant_delivery_round_trip() {
        let mut r = Router::new(2, LinkConfig::INSTANT);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        h0.send(
            WorkerId(1),
            Message::VertexRequest {
                from: WorkerId(0),
                vertices: vec![VertexId(3)],
                sent_nanos: 0,
            },
        );
        match h1.recv_timeout(Duration::from_secs(1)).expect("delivered") {
            Message::VertexRequest { from, vertices, .. } => {
                assert_eq!(from, WorkerId(0));
                assert_eq!(vertices, vec![VertexId(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(h1.try_recv().is_none());
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = LinkConfig { latency: Duration::from_millis(30), bytes_per_sec: None };
        let mut r = Router::new(2, cfg);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        let start = Instant::now();
        h0.send(WorkerId(1), Message::Terminate);
        assert!(h1.try_recv().is_none(), "not delivered instantly");
        let got = h1.recv_timeout(Duration::from_secs(1));
        assert!(matches!(got, Some(Message::Terminate)));
        assert!(start.elapsed() >= Duration::from_millis(25), "latency applied");
    }

    #[test]
    fn bandwidth_serializes_link() {
        // 1 KB/s bandwidth: a 109-byte message takes >100 ms; two of
        // them queue behind each other.
        let cfg = LinkConfig { latency: Duration::ZERO, bytes_per_sec: Some(1_000) };
        let mut r = Router::new(2, cfg);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        let msg = Message::StealBatch { victim: WorkerId(0), seq: 0, bytes: vec![0u8; 100] };
        let start = Instant::now();
        h0.send(WorkerId(1), msg.clone());
        h0.send(WorkerId(1), msg);
        let _ = h1.recv_timeout(Duration::from_secs(2)).expect("first");
        let _ = h1.recv_timeout(Duration::from_secs(2)).expect("second");
        assert!(
            start.elapsed() >= Duration::from_millis(200),
            "two messages serialized on the link: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn self_send_bypasses_delay() {
        let cfg = LinkConfig { latency: Duration::from_secs(5), bytes_per_sec: None };
        let mut r = Router::new(1, cfg);
        let mut handles = r.take_handles();
        let h0 = handles.remove(0);
        h0.send(WorkerId(0), Message::Terminate);
        assert!(matches!(h0.recv_timeout(Duration::from_millis(100)), Some(Message::Terminate)));
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        let mut r = Router::new(3, LinkConfig::INSTANT);
        let mut handles = r.take_handles();
        let h2 = handles.remove(2);
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        h0.broadcast(&Message::Terminate);
        assert!(matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Terminate)));
        assert!(matches!(h2.recv_timeout(Duration::from_secs(1)), Some(Message::Terminate)));
        assert!(h0.try_recv().is_none());
    }

    #[test]
    fn byte_accounting_tracks_traffic() {
        let mut r = Router::new(2, LinkConfig::INSTANT);
        let handles = r.take_handles();
        let msg = Message::StealBatch { victim: WorkerId(0), seq: 0, bytes: vec![0u8; 84] };
        let expect = msg.encoded_len() as u64;
        handles[0].send(WorkerId(1), msg);
        assert_eq!(handles[0].stats().bytes_sent.load(Ordering::Relaxed), expect);
        assert_eq!(handles[1].stats().bytes_received.load(Ordering::Relaxed), expect);
        assert_eq!(r.total_bytes(), expect);
        assert_eq!(r.stats(WorkerId(0)).msgs_sent.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "handles already taken")]
    fn handles_taken_once() {
        let mut r = Router::new(1, LinkConfig::INSTANT);
        let _ = r.take_handles();
        let _ = r.take_handles();
    }

    use crate::fault::{CrashSchedule, FaultConfig};

    fn lossy_fault() -> FaultConfig {
        FaultConfig {
            seed: 7,
            drop_prob: 0.2,
            dup_prob: 0.2,
            reorder_prob: 0.3,
            reorder_jitter: Duration::from_micros(200),
            ..FaultConfig::default()
        }
    }

    /// Sends `n` single-vertex requests 0→1 and returns the receiver's
    /// delivered payloads plus the sender's fault counters.
    fn run_lossy_sequence(n: u32, fault: FaultConfig) -> (Vec<u32>, (u64, u64, u64)) {
        let mut r = Router::with_faults(2, LinkConfig::INSTANT, fault);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        for i in 0..n {
            h0.send(
                WorkerId(1),
                Message::VertexRequest {
                    from: WorkerId(0),
                    vertices: vec![VertexId(i)],
                    sent_nanos: 0,
                },
            );
        }
        let mut got = Vec::new();
        while let Some(msg) = h1.recv_timeout(Duration::from_millis(100)) {
            if let Message::VertexRequest { vertices, .. } = msg {
                got.push(vertices[0].0);
            }
        }
        let fs = h0.fault_stats().expect("fault injection enabled");
        (
            got,
            (
                fs.dropped.load(Ordering::Relaxed),
                fs.duplicated.load(Ordering::Relaxed),
                fs.delayed.load(Ordering::Relaxed),
            ),
        )
    }

    #[test]
    fn fault_injection_is_deterministic_across_routers() {
        let (got_a, counts_a) = run_lossy_sequence(300, lossy_fault());
        let (got_b, counts_b) = run_lossy_sequence(300, lossy_fault());
        assert_eq!(counts_a, counts_b, "same seed → same counters");
        let mut sorted_a = got_a.clone();
        let mut sorted_b = got_b.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        // Delivery *order* can race the jitter clock, but the multiset
        // of delivered copies is fully determined by the seed.
        assert_eq!(sorted_a, sorted_b, "same seed → same delivered multiset");
        assert!(counts_a.0 > 0, "some drops expected");
        assert!(counts_a.1 > 0, "some duplicates expected");
        assert!(got_a.len() as u64 == 300 - counts_a.0 + counts_a.1);
    }

    #[test]
    fn control_plane_is_never_faulted() {
        let fault = FaultConfig { drop_prob: 1.0, ..FaultConfig::default() };
        let mut r = Router::with_faults(2, LinkConfig::INSTANT, fault);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        h0.send(WorkerId(1), Message::Terminate);
        assert!(
            matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Terminate)),
            "control messages bypass the fault model"
        );
        h0.send(
            WorkerId(1),
            Message::VertexRequest {
                from: WorkerId(0),
                vertices: vec![VertexId(1)],
                sent_nanos: 0,
            },
        );
        assert!(h1.recv_timeout(Duration::from_millis(50)).is_none(), "data plane dropped");
    }

    #[test]
    fn crash_schedule_kills_worker_links() {
        let fault = FaultConfig {
            crash: Some(CrashSchedule {
                worker: WorkerId(1),
                after_messages: Some(3),
                after: None,
            }),
            ..FaultConfig::default()
        };
        let mut r = Router::with_faults(2, LinkConfig::INSTANT, fault);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        h0.send(WorkerId(1), Message::Terminate);
        h0.send(WorkerId(1), Message::Terminate);
        assert!(matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Terminate)));
        assert!(matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Terminate)));
        // Third send crosses the mark: the victim gets a Crash signal
        // and all of its links go dark.
        h0.send(WorkerId(1), Message::Terminate);
        assert!(matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Crash)));
        assert!(h1.recv_timeout(Duration::from_millis(50)).is_none(), "link to victim is dark");
        h1.send(WorkerId(0), Message::Terminate);
        assert!(h0.recv_timeout(Duration::from_millis(50)).is_none(), "victim cannot send");
        assert_eq!(r.fault_stats(WorkerId(1)).expect("enabled").crashes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn requeue_reaches_a_crashed_workers_own_inbox_uncounted() {
        let fault = FaultConfig {
            crash: Some(CrashSchedule {
                worker: WorkerId(1),
                after_messages: Some(1),
                after: None,
            }),
            ..FaultConfig::default()
        };
        let mut r = Router::with_faults(2, LinkConfig::gige(), fault);
        let mut handles = r.take_handles();
        let h1 = handles.remove(1);
        let h0 = handles.remove(0);
        h0.send(WorkerId(1), Message::Terminate);
        h1.requeue(Message::Wake);
        assert!(matches!(h1.recv_timeout(Duration::from_secs(1)), Some(Message::Crash)));
        assert!(matches!(h1.try_recv(), Some(Message::Wake)), "a dead worker is still woken");
        assert_eq!(h1.stats().msgs_sent.load(Ordering::Relaxed), 0);
        assert_eq!(h1.stats().msgs_received.load(Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "worker 0 hosts the master loop")]
    fn crashing_the_master_is_rejected() {
        let fault = FaultConfig {
            crash: Some(CrashSchedule {
                worker: WorkerId(0),
                after_messages: Some(1),
                after: None,
            }),
            ..FaultConfig::default()
        };
        let _ = Router::with_faults(2, LinkConfig::INSTANT, fault);
    }
}
