//! The transport abstraction: what a worker needs from its interconnect.
//!
//! A [`Transport`] owns the interconnect for a job and hands out one
//! [`NetEndpoint`] per worker it hosts. The simulated
//! [`Router`](crate::router::Router) hosts **all** workers of a job in
//! one process; the real [`TcpTransport`](crate::tcp::TcpTransport)
//! hosts exactly **one** worker per OS process and speaks length-prefixed
//! [`frame`](crate::frame)s to its peers. Worker, master and job code
//! run against these traits only, so the two backends are
//! interchangeable — the chaos suite injects the same seeded faults on
//! either one through the shared
//! [`FaultRuntime`](crate::fault::FaultRuntime).

use crate::fault::FaultStats;
use crate::message::Message;
use gthinker_graph::ids::WorkerId;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

/// Per-worker traffic counters. On the simulated router these count
/// message encodings; on the TCP backend they count real frame bytes
/// (payload plus [`FRAME_OVERHEAD`](crate::frame::FRAME_OVERHEAD)).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Bytes sent by this worker.
    pub bytes_sent: AtomicU64,
    /// Bytes received by this worker.
    pub bytes_received: AtomicU64,
    /// Messages sent.
    pub msgs_sent: AtomicU64,
    /// Messages received.
    pub msgs_received: AtomicU64,
    /// Vectored (`writev`-style) socket writes issued by the TCP data
    /// plane's I/O loop. 0 on the sim router (no sockets).
    pub writev_calls: AtomicU64,
    /// Frames that shared a vectored write with at least one other
    /// frame — the write-coalescing win. For each vectored write of
    /// `k > 1` frames this counts `k - 1`.
    pub frames_coalesced: AtomicU64,
    /// Sends that had to wait because the destination peer's bounded
    /// outbound ring was full (backpressure from a slow wire or peer).
    pub backpressure_stalls: AtomicU64,
    /// Fault-delayed frames whose deferred write failed (dead peer or
    /// closed socket) and were silently dropped. Surfaced so a chaos
    /// run can tell injected loss from delay-path loss.
    pub delayed_write_errors: AtomicU64,
    /// Per-peer dead-link events: the reader hit EOF/error or a write
    /// failed on that peer's socket. Always empty on the sim router
    /// (links there cannot die), sized to the cluster on TCP.
    pub peer_downs: Vec<AtomicU64>,
    /// Per-peer links accepted *beyond the first* at rendezvous — a
    /// count of observed rejoins. Empty on the sim router.
    pub peer_reconnects: Vec<AtomicU64>,
}

impl NetStats {
    /// Counters with per-peer down/reconnect slots for an `n`-worker
    /// cluster (the TCP backend's constructor; `default()` keeps the
    /// slots empty for backends whose links cannot die).
    pub fn for_cluster(n: usize) -> NetStats {
        NetStats {
            peer_downs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            peer_reconnects: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ..NetStats::default()
        }
    }

    /// Records a dead link to `peer` (no-op without per-peer slots).
    pub fn peer_down(&self, peer: usize) {
        if let Some(c) = self.peer_downs.get(peer) {
            c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Records a re-accepted link from `peer`.
    pub fn peer_reconnect(&self, peer: usize) {
        if let Some(c) = self.peer_reconnects.get(peer) {
            c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Total dead-link events across all peers.
    pub fn peer_downs_total(&self) -> u64 {
        self.peer_downs.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum()
    }

    /// Total re-accepted links across all peers.
    pub fn peer_reconnects_total(&self) -> u64 {
        self.peer_reconnects.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum()
    }
}

/// One worker's view of the interconnect: send to any worker, receive
/// from an inbox that merges every peer. Shared by the worker's comper,
/// receiver and responder threads, hence `Send + Sync`.
///
/// Delivery contract (both backends): per directed link, messages from
/// one sending thread arrive in send order unless the fault model
/// reorders them; sends never block on the receiver; sends to a
/// departed or crashed peer are silently discarded.
pub trait NetEndpoint: Send + Sync {
    /// This endpoint's worker ID.
    fn id(&self) -> WorkerId;

    /// Number of workers on the interconnect.
    fn num_workers(&self) -> usize;

    /// Sends `msg` to worker `to` (self-sends loop straight back to the
    /// inbox).
    fn send(&self, to: WorkerId, msg: Message);

    /// Broadcasts `msg` to every worker except this one.
    fn broadcast(&self, msg: &Message) {
        for w in 0..self.num_workers() {
            if w != self.id().index() {
                self.send(WorkerId(w as u16), msg.clone());
            }
        }
    }

    /// Puts a message this worker already received back on its own
    /// inbox, to be consumed again later — the cluster-recovery
    /// rendezvous uses this to stash peer traffic that raced ahead of
    /// the master's `Resume`. Backends override it to bypass fault
    /// injection and traffic accounting; the default re-sends to self.
    fn requeue(&self, msg: Message) {
        self.send(self.id(), msg);
    }

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<Message>;

    /// Receive with a timeout; `None` on timeout or disconnect.
    fn recv_timeout(&self, timeout: Duration) -> Option<Message>;

    /// Drains up to `max` queued messages into `out`, waiting at most
    /// `timeout` for the first; returns how many arrived. One call per
    /// receiver wake lets the worker batch its downstream work (install
    /// every response, then issue **one** scheduler wakeup) instead of
    /// paying a wakeup per message.
    fn recv_batch(&self, timeout: Duration, max: usize, out: &mut Vec<Message>) -> usize {
        let Some(first) = self.recv_timeout(timeout) else {
            return 0;
        };
        out.push(first);
        let mut n = 1;
        while n < max {
            let Some(m) = self.try_recv() else { break };
            out.push(m);
            n += 1;
        }
        n
    }

    /// This worker's traffic counters.
    fn stats(&self) -> &NetStats;

    /// This worker's fault counters; `None` when fault injection is off.
    fn fault_stats(&self) -> Option<&FaultStats>;
}

/// A job's interconnect: knows the cluster size, which workers live in
/// this process, and hands each of them its endpoint exactly once.
pub trait Transport {
    /// Total workers in the cluster (across all processes).
    fn num_workers(&self) -> usize;

    /// The workers this transport hosts in the current process: all of
    /// them for the simulated router, exactly one for TCP.
    fn hosted(&self) -> Vec<WorkerId>;

    /// Takes worker `w`'s endpoint. Panics if `w` is not hosted here or
    /// its endpoint was already taken.
    fn take_endpoint(&mut self, w: WorkerId) -> Box<dyn NetEndpoint>;
}
