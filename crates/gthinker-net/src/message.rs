//! Messages exchanged between workers, with their wire encoding.
//!
//! G-thinker's communication module carries two data-plane message
//! kinds — batched vertex pull **requests** and batched **responses** —
//! plus a small control plane used by the master's main thread for
//! progress synchronization, work-stealing plans and aggregator sync.
//!
//! Every variant has a real [`Encode`]/[`Decode`] impl (tag byte +
//! little-endian fields, the `gthinker-task` codec): the TCP backend
//! puts these bytes on actual sockets, and the simulated router's byte
//! accounting uses [`Message::encoded_len`], which is derived from the
//! same layout — the counters can never drift from the wire format.

use gthinker_graph::adj::{AdjList, SharedAdj};
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_task::codec::{CodecError, Decode, Encode};

/// A message on the wire (simulated or TCP).
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A batch of vertex pull requests from `from`; the receiver serves
    /// each from its `T_local` and responds with one `VertexResponse`.
    VertexRequest {
        /// Requesting worker (responses go back to it).
        from: WorkerId,
        /// Requested vertex IDs (batched for round-trip amortization).
        vertices: Vec<VertexId>,
        /// Metrics-clock send timestamp, echoed by the responder so the
        /// requester can histogram pull round-trip time. Only ever
        /// compared against the requester's own clock, so it works
        /// across processes (0 when metrics are disabled).
        sent_nanos: u64,
    },
    /// A batch of `(v, Γ(v))` responses.
    VertexResponse {
        /// The served records; adjacency lists are already trimmed.
        entries: Vec<(VertexId, AdjList)>,
        /// The originating request's `sent_nanos`, echoed back verbatim
        /// (0 when metrics are disabled or for multi-request merges).
        req_nanos: u64,
    },
    /// A batch of serialized tasks moved by the work stealer (a sealed
    /// frame around raw spill-file bytes; the thief validates the frame
    /// and appends the payload to its `L_file`). Travels on the data
    /// plane: the fault model may drop, duplicate or reorder it, so the
    /// `(victim, seq)` pair makes delivery idempotent — the victim
    /// resends until the thief's [`Message::StealAck`], and the thief
    /// applies each sequence number at most once.
    StealBatch {
        /// Worker that gave up the tasks (dedup namespace for `seq`).
        victim: WorkerId,
        /// Victim-local monotone sequence number of this batch.
        seq: u64,
        /// Framed task batch (`frame::seal` around the spill bytes).
        bytes: Vec<u8>,
    },
    /// A worker's progress report to the master.
    Progress {
        /// Reporting worker.
        worker: WorkerId,
        /// Estimated remaining load: spilled files plus unspawned
        /// vertices (in task-batch units).
        remaining: u64,
        /// True when the worker's compers are starving.
        idle: bool,
        /// Number of compers currently parked with empty queues.
        idle_compers: u16,
        /// Steal batches this worker has sealed but not yet seen acked
        /// (outstanding ownership transfers; nonzero blocks suspend).
        steal_inflight: u32,
        /// The worker's activity epoch, read just before `idle` was
        /// evaluated. It moves on every idle → busy transition, so an
        /// idle report is only confirmed by a [`Message::ProbeAck`]
        /// carrying the same value.
        epoch: u64,
    },
    /// The master instructs `victim` to send up to `max_tasks` tasks to
    /// `thief`.
    StealRequest {
        /// Worker that must give up tasks.
        victim: WorkerId,
        /// Worker that receives them.
        thief: WorkerId,
        /// Upper bound on the number of tasks to transfer.
        max_tasks: u32,
    },
    /// The victim's report of how many batches it actually shipped for
    /// the current steal request (may be zero if it ran dry).
    StealExecuted {
        /// Batches actually sent to the thief.
        sent: u32,
    },
    /// The thief's per-batch receipt acknowledgement to the master.
    StealDone,
    /// The thief's receipt acknowledgement to the **victim** for one
    /// steal batch: the thief has durably appended the batch to its
    /// `L_file`, so the victim may drop its retained copy. Control
    /// plane (reliable) — only the batch itself needs the resend path.
    StealAck {
        /// The acknowledged batch's sequence number.
        seq: u64,
    },
    /// Opaque aggregator payload (application-encoded partial value).
    AggregatorSync {
        /// Reporting worker.
        worker: WorkerId,
        /// Encoded partial aggregate.
        payload: Vec<u8>,
        /// True for the final sync sent after the terminate signal;
        /// the master waits for one final sync per worker.
        is_final: bool,
    },
    /// The master broadcasts the merged global aggregate.
    AggregatorGlobal {
        /// Encoded global aggregate.
        payload: Vec<u8>,
    },
    /// Termination confirmation wave: the master saw an idle report
    /// from every worker and asks each (itself included) whether it is
    /// *still* idle. Answered by the worker's receiver thread with a
    /// [`Message::ProbeAck`].
    Probe {
        /// The wave this probe belongs to; echoed in the ack.
        round: u64,
    },
    /// A worker's answer to a [`Message::Probe`].
    ProbeAck {
        /// Answering worker.
        worker: WorkerId,
        /// The probe's round, echoed verbatim.
        round: u64,
        /// The quiescence predicate, evaluated when the probe arrived.
        idle: bool,
        /// The worker's activity epoch, read just after `idle`.
        epoch: u64,
    },
    /// Job end signal from the master; workers stop their threads.
    Terminate,
    /// Suspend signal: workers drain their task containers into a
    /// checkpoint and stop (fault-tolerance path).
    Suspend,
    /// A worker finished writing its checkpoint shard.
    SuspendDone {
        /// Reporting worker.
        worker: WorkerId,
    },
    /// Fault injection killed the receiving worker: its threads stop
    /// immediately without final syncs or checkpoint shards. Only the
    /// sim router's crash schedule emits this; it never crosses a
    /// socket.
    Crash,
    /// A worker's metrics report to the master: an opaque encoded
    /// worker metrics snapshot (sealed in a CRC frame, like steal
    /// batches). Workers push one at every `report_interval` tick and a
    /// final one (with the event ring) at job end. Control plane
    /// (reliable); reports are cumulative, so a newer report simply
    /// supersedes an older one.
    MetricsReport {
        /// Reporting worker.
        worker: WorkerId,
        /// Framed, encoded worker metrics snapshot.
        payload: Vec<u8>,
        /// True for the final snapshot sent just before the final
        /// aggregator sync.
        is_final: bool,
    },
    /// Clock-synchronization probe from a worker to the master. The
    /// master's receiver answers inline with a [`Message::ClockPong`]
    /// carrying its metrics-clock reading; the worker estimates its
    /// clock offset as `master_nanos - (t_send + t_recv) / 2` and keeps
    /// the minimum-RTT sample (trace stitching).
    ClockPing {
        /// Probing worker (the pong goes back to it).
        worker: WorkerId,
        /// Echo token matching the pong to the ping's send timestamp.
        nonce: u64,
    },
    /// The master's reply to a [`Message::ClockPing`].
    ClockPong {
        /// The originating ping's nonce, echoed verbatim.
        nonce: u64,
        /// The master's metrics-clock reading when it saw the ping.
        nanos: u64,
    },
    /// The transport observed worker `worker`'s link die (reader EOF or
    /// error, or a failed write). Injected into the local inbox by the
    /// TCP backend so the master's failure detector reacts to a dead
    /// process the moment the OS closes its sockets, instead of waiting
    /// out a heartbeat window. Local-only, like [`Message::Crash`]: it
    /// never crosses a socket.
    PeerDown {
        /// The peer whose link died.
        worker: WorkerId,
    },
    /// Master broadcast in cluster-recovery mode: worker `worker`
    /// failed, abandon the current attempt (like [`Message::Terminate`]
    /// for thread shutdown) and rendezvous again to resume from the
    /// last validated checkpoint.
    Abort {
        /// The worker the master declared failed (for logs/telemetry).
        worker: WorkerId,
    },
    /// Master broadcast at the start of every cluster-recovery attempt,
    /// synchronizing all processes on the resume point before any
    /// worker threads start.
    Resume {
        /// True when a validated checkpoint epoch exists to restore.
        resume: bool,
        /// The epoch number to restore from (0 when `resume` is false).
        epoch: u64,
        /// The attempt index; names the epoch directory this attempt's
        /// periodic checkpoint will be written to.
        attempt: u64,
    },
    /// A worker's main thread to its own receiver, through
    /// [`NetEndpoint::requeue`](crate::transport::NetEndpoint::requeue):
    /// no message that arrives from now on matters, so apply what is
    /// queued and exit. Local-only, like [`Message::Crash`]: it never
    /// crosses a socket.
    Stop,
}

/// Variant tags. One byte on the wire; `Decode` rejects anything else.
mod tag {
    pub const VERTEX_REQUEST: u8 = 0;
    pub const VERTEX_RESPONSE: u8 = 1;
    pub const STEAL_BATCH: u8 = 2;
    pub const PROGRESS: u8 = 3;
    pub const STEAL_REQUEST: u8 = 4;
    pub const STEAL_EXECUTED: u8 = 5;
    pub const STEAL_DONE: u8 = 6;
    pub const AGGREGATOR_SYNC: u8 = 7;
    pub const AGGREGATOR_GLOBAL: u8 = 8;
    pub const TERMINATE: u8 = 9;
    pub const SUSPEND: u8 = 10;
    pub const SUSPEND_DONE: u8 = 11;
    pub const CRASH: u8 = 12;
    pub const STEAL_ACK: u8 = 13;
    pub const METRICS_REPORT: u8 = 14;
    pub const CLOCK_PING: u8 = 15;
    pub const CLOCK_PONG: u8 = 16;
    pub const PEER_DOWN: u8 = 17;
    pub const ABORT: u8 = 18;
    pub const RESUME: u8 = 19;
    pub const PROBE: u8 = 20;
    pub const PROBE_ACK: u8 = 21;
    pub const STOP: u8 = 22;
}

/// Byte-payload fields use the same layout as the codec's `Vec<u8>`
/// (u64 length prefix) but copy in bulk instead of per element.
fn encode_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    (bytes.len() as u64).encode(buf);
    buf.extend_from_slice(bytes);
}

/// The one `VertexResponse` layout: the codec's `Vec<(VertexId,
/// AdjList)>` then the timestamp, for owned and shared lists alike.
fn put_response<'a>(
    entries: impl ExactSizeIterator<Item = (VertexId, &'a AdjList)>,
    req_nanos: u64,
    buf: &mut Vec<u8>,
) {
    buf.push(tag::VERTEX_RESPONSE);
    (entries.len() as u64).encode(buf);
    for (v, adj) in entries {
        v.encode(buf);
        adj.encode(buf);
    }
    req_nanos.encode(buf);
}

/// Bytes after the tag of a `VertexResponse` whose lists have these
/// degrees.
fn response_fields_len(degrees: impl Iterator<Item = usize>) -> usize {
    8 + degrees.map(|d| 4 + 8 + 4 * d).sum::<usize>() + 8
}

fn decode_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, CodecError> {
    let len = u64::decode(buf)? as usize;
    if len > buf.len() {
        return Err(CodecError::Invalid("vec length exceeds buffer"));
    }
    let out = buf[..len].to_vec();
    *buf = &buf[len..];
    Ok(out)
}

impl Encode for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::VertexRequest { from, vertices, sent_nanos } => {
                buf.push(tag::VERTEX_REQUEST);
                from.encode(buf);
                vertices.encode(buf);
                sent_nanos.encode(buf);
            }
            Message::VertexResponse { entries, req_nanos } => {
                put_response(entries.iter().map(|(v, adj)| (*v, adj)), *req_nanos, buf);
            }
            Message::StealBatch { victim, seq, bytes } => {
                buf.push(tag::STEAL_BATCH);
                victim.encode(buf);
                seq.encode(buf);
                encode_bytes(bytes, buf);
            }
            Message::Progress { worker, remaining, idle, idle_compers, steal_inflight, epoch } => {
                buf.push(tag::PROGRESS);
                worker.encode(buf);
                remaining.encode(buf);
                idle.encode(buf);
                idle_compers.encode(buf);
                steal_inflight.encode(buf);
                epoch.encode(buf);
            }
            Message::StealRequest { victim, thief, max_tasks } => {
                buf.push(tag::STEAL_REQUEST);
                victim.encode(buf);
                thief.encode(buf);
                max_tasks.encode(buf);
            }
            Message::StealExecuted { sent } => {
                buf.push(tag::STEAL_EXECUTED);
                sent.encode(buf);
            }
            Message::StealDone => buf.push(tag::STEAL_DONE),
            Message::AggregatorSync { worker, payload, is_final } => {
                buf.push(tag::AGGREGATOR_SYNC);
                worker.encode(buf);
                encode_bytes(payload, buf);
                is_final.encode(buf);
            }
            Message::AggregatorGlobal { payload } => {
                buf.push(tag::AGGREGATOR_GLOBAL);
                encode_bytes(payload, buf);
            }
            Message::Probe { round } => {
                buf.push(tag::PROBE);
                round.encode(buf);
            }
            Message::ProbeAck { worker, round, idle, epoch } => {
                buf.push(tag::PROBE_ACK);
                worker.encode(buf);
                round.encode(buf);
                idle.encode(buf);
                epoch.encode(buf);
            }
            Message::Terminate => buf.push(tag::TERMINATE),
            Message::Suspend => buf.push(tag::SUSPEND),
            Message::SuspendDone { worker } => {
                buf.push(tag::SUSPEND_DONE);
                worker.encode(buf);
            }
            Message::Crash => buf.push(tag::CRASH),
            Message::StealAck { seq } => {
                buf.push(tag::STEAL_ACK);
                seq.encode(buf);
            }
            Message::MetricsReport { worker, payload, is_final } => {
                buf.push(tag::METRICS_REPORT);
                worker.encode(buf);
                encode_bytes(payload, buf);
                is_final.encode(buf);
            }
            Message::ClockPing { worker, nonce } => {
                buf.push(tag::CLOCK_PING);
                worker.encode(buf);
                nonce.encode(buf);
            }
            Message::ClockPong { nonce, nanos } => {
                buf.push(tag::CLOCK_PONG);
                nonce.encode(buf);
                nanos.encode(buf);
            }
            Message::PeerDown { worker } => {
                buf.push(tag::PEER_DOWN);
                worker.encode(buf);
            }
            Message::Abort { worker } => {
                buf.push(tag::ABORT);
                worker.encode(buf);
            }
            Message::Resume { resume, epoch, attempt } => {
                buf.push(tag::RESUME);
                resume.encode(buf);
                epoch.encode(buf);
                attempt.encode(buf);
            }
            Message::Stop => buf.push(tag::STOP),
        }
    }
}

impl Decode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::decode(buf)? {
            tag::VERTEX_REQUEST => Message::VertexRequest {
                from: WorkerId::decode(buf)?,
                vertices: Vec::decode(buf)?,
                sent_nanos: u64::decode(buf)?,
            },
            tag::VERTEX_RESPONSE => {
                Message::VertexResponse { entries: Vec::decode(buf)?, req_nanos: u64::decode(buf)? }
            }
            tag::STEAL_BATCH => Message::StealBatch {
                victim: WorkerId::decode(buf)?,
                seq: u64::decode(buf)?,
                bytes: decode_bytes(buf)?,
            },
            tag::PROGRESS => Message::Progress {
                worker: WorkerId::decode(buf)?,
                remaining: u64::decode(buf)?,
                idle: bool::decode(buf)?,
                idle_compers: u16::decode(buf)?,
                steal_inflight: u32::decode(buf)?,
                epoch: u64::decode(buf)?,
            },
            tag::STEAL_REQUEST => Message::StealRequest {
                victim: WorkerId::decode(buf)?,
                thief: WorkerId::decode(buf)?,
                max_tasks: u32::decode(buf)?,
            },
            tag::STEAL_EXECUTED => Message::StealExecuted { sent: u32::decode(buf)? },
            tag::STEAL_DONE => Message::StealDone,
            tag::AGGREGATOR_SYNC => Message::AggregatorSync {
                worker: WorkerId::decode(buf)?,
                payload: decode_bytes(buf)?,
                is_final: bool::decode(buf)?,
            },
            tag::AGGREGATOR_GLOBAL => Message::AggregatorGlobal { payload: decode_bytes(buf)? },
            tag::PROBE => Message::Probe { round: u64::decode(buf)? },
            tag::PROBE_ACK => Message::ProbeAck {
                worker: WorkerId::decode(buf)?,
                round: u64::decode(buf)?,
                idle: bool::decode(buf)?,
                epoch: u64::decode(buf)?,
            },
            tag::TERMINATE => Message::Terminate,
            tag::SUSPEND => Message::Suspend,
            tag::SUSPEND_DONE => Message::SuspendDone { worker: WorkerId::decode(buf)? },
            tag::CRASH => Message::Crash,
            tag::STEAL_ACK => Message::StealAck { seq: u64::decode(buf)? },
            tag::METRICS_REPORT => Message::MetricsReport {
                worker: WorkerId::decode(buf)?,
                payload: decode_bytes(buf)?,
                is_final: bool::decode(buf)?,
            },
            tag::CLOCK_PING => {
                Message::ClockPing { worker: WorkerId::decode(buf)?, nonce: u64::decode(buf)? }
            }
            tag::CLOCK_PONG => {
                Message::ClockPong { nonce: u64::decode(buf)?, nanos: u64::decode(buf)? }
            }
            tag::PEER_DOWN => Message::PeerDown { worker: WorkerId::decode(buf)? },
            tag::ABORT => Message::Abort { worker: WorkerId::decode(buf)? },
            tag::RESUME => Message::Resume {
                resume: bool::decode(buf)?,
                epoch: u64::decode(buf)?,
                attempt: u64::decode(buf)?,
            },
            tag::STOP => Message::Stop,
            _ => return Err(CodecError::Invalid("message tag")),
        })
    }
}

impl Message {
    /// Exact serialized size in bytes, derived from the codec layout
    /// (property-tested to equal `to_bytes(self).len()`). Used for the
    /// sim router's byte accounting and bandwidth model; the TCP
    /// backend counts actual socket bytes (this plus frame overhead).
    pub fn encoded_len(&self) -> usize {
        // tag byte + per-variant fields; Vec<T> costs 8 (u64 length
        // prefix) + items.
        1 + match self {
            Message::VertexRequest { vertices, .. } => 2 + 8 + 4 * vertices.len() + 8,
            Message::VertexResponse { entries, .. } => {
                response_fields_len(entries.iter().map(|(_, adj)| adj.degree()))
            }
            Message::StealBatch { bytes, .. } => 2 + 8 + 8 + bytes.len(),
            Message::Progress { .. } => 2 + 8 + 1 + 2 + 4 + 8,
            Message::Probe { .. } => 8,
            Message::ProbeAck { .. } => 2 + 8 + 1 + 8,
            Message::StealRequest { .. } => 2 + 2 + 4,
            Message::StealExecuted { .. } => 4,
            Message::StealAck { .. } => 8,
            Message::AggregatorSync { payload, .. } => 2 + 8 + payload.len() + 1,
            Message::AggregatorGlobal { payload } => 8 + payload.len(),
            Message::MetricsReport { payload, .. } => 2 + 8 + payload.len() + 1,
            Message::ClockPing { .. } => 2 + 8,
            Message::ClockPong { .. } => 8 + 8,
            Message::SuspendDone { .. } => 2,
            Message::PeerDown { .. } | Message::Abort { .. } => 2,
            Message::Resume { .. } => 1 + 8 + 8,
            Message::StealDone
            | Message::Terminate
            | Message::Suspend
            | Message::Crash
            | Message::Stop => 0,
        }
    }

    /// Writes the bytes of `VertexResponse { entries, req_nanos }` for
    /// lists the caller shares, without copying them into a message.
    pub fn encode_response(entries: &[(VertexId, SharedAdj)], req_nanos: u64, buf: &mut Vec<u8>) {
        put_response(entries.iter().map(|(v, adj)| (*v, &**adj)), req_nanos, buf);
    }

    /// What [`Message::encode_response`] writes, in bytes.
    pub fn response_len(entries: &[(VertexId, SharedAdj)]) -> usize {
        1 + response_fields_len(entries.iter().map(|(_, adj)| adj.degree()))
    }

    /// True for the data-plane messages (vertex pulls and steal
    /// batches) that the fault model may drop, duplicate, or delay.
    /// Pulls survive loss via the R-table deadline retries; steal
    /// batches survive it via the victim's retained-copy resend plus
    /// the thief's per-`(victim, seq)` dedup. The remaining control
    /// plane models reliable TCP-backed channels.
    pub fn is_data_plane(&self) -> bool {
        matches!(
            self,
            Message::VertexRequest { .. }
                | Message::VertexResponse { .. }
                | Message::StealBatch { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gthinker_task::codec::to_bytes;

    #[test]
    fn encoded_len_scales_with_content() {
        let small = Message::VertexRequest {
            from: WorkerId(0),
            vertices: vec![VertexId(1)],
            sent_nanos: 0,
        };
        let big = Message::VertexRequest {
            from: WorkerId(0),
            vertices: (0..100).map(VertexId).collect(),
            sent_nanos: 0,
        };
        assert!(big.encoded_len() > small.encoded_len());
        assert_eq!(big.encoded_len() - small.encoded_len(), 99 * 4);
    }

    /// Regression pin: known sizes of the wire layout. If these change,
    /// the wire format changed — bump `frame::WIRE_VERSION`.
    #[test]
    fn encoded_len_pins_known_sizes() {
        // tag 1 + from 2 + vec(8 + 4·3) + nanos 8 = 31.
        let req = Message::VertexRequest {
            from: WorkerId(2),
            vertices: vec![VertexId(1), VertexId(2), VertexId(3)],
            sent_nanos: 7,
        };
        assert_eq!(req.encoded_len(), 31);
        // tag 1 + vec(8 + (4 + 8 + 4·10)) + nanos 8 = 69.
        let resp = Message::VertexResponse {
            entries: vec![(VertexId(1), AdjList::from_unsorted((0..10).map(VertexId).collect()))],
            req_nanos: 0,
        };
        assert_eq!(resp.encoded_len(), 69);
        assert_eq!(Message::Terminate.encoded_len(), 1);
        assert_eq!(Message::StealDone.encoded_len(), 1);
        // tag 1 + worker 2 + remaining 8 + idle 1 + idle_compers 2 +
        // steal_inflight 4 + epoch 8 = 26.
        assert_eq!(
            Message::Progress {
                worker: WorkerId(1),
                remaining: 0,
                idle: true,
                idle_compers: 2,
                steal_inflight: 0,
                epoch: 3,
            }
            .encoded_len(),
            26
        );
        // tag 1 + round 8 = 9.
        assert_eq!(Message::Probe { round: 1 }.encoded_len(), 9);
        // tag 1 + worker 2 + round 8 + idle 1 + epoch 8 = 20.
        assert_eq!(
            Message::ProbeAck { worker: WorkerId(1), round: 1, idle: true, epoch: 3 }.encoded_len(),
            20
        );
        assert_eq!(
            Message::StealRequest { victim: WorkerId(1), thief: WorkerId(2), max_tasks: 3 }
                .encoded_len(),
            9
        );
        // tag 1 + victim 2 + seq 8 + vec(8 + 5) = 24.
        assert_eq!(
            Message::StealBatch { victim: WorkerId(1), seq: 9, bytes: vec![0; 5] }.encoded_len(),
            24
        );
        assert_eq!(Message::StealAck { seq: 3 }.encoded_len(), 9);
        assert_eq!(Message::SuspendDone { worker: WorkerId(4) }.encoded_len(), 3);
        // tag 1 + worker 2 + vec(8 + 5) + is_final 1 = 17.
        assert_eq!(
            Message::MetricsReport { worker: WorkerId(1), payload: vec![0; 5], is_final: false }
                .encoded_len(),
            17
        );
        // tag 1 + worker 2 + nonce 8 = 11.
        assert_eq!(Message::ClockPing { worker: WorkerId(1), nonce: 3 }.encoded_len(), 11);
        // tag 1 + nonce 8 + nanos 8 = 17.
        assert_eq!(Message::ClockPong { nonce: 3, nanos: 99 }.encoded_len(), 17);
        // tag 1 + worker 2 = 3.
        assert_eq!(Message::PeerDown { worker: WorkerId(1) }.encoded_len(), 3);
        assert_eq!(Message::Abort { worker: WorkerId(2) }.encoded_len(), 3);
        // tag 1 + resume 1 + epoch 8 + attempt 8 = 18.
        assert_eq!(Message::Resume { resume: true, epoch: 4, attempt: 5 }.encoded_len(), 18);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let msgs = vec![
            Message::VertexRequest { from: WorkerId(3), vertices: vec![], sent_nanos: u64::MAX },
            Message::VertexResponse {
                entries: vec![
                    (VertexId(0), AdjList::new()),
                    (VertexId(u32::MAX), AdjList::from_unsorted(vec![VertexId(1), VertexId(5)])),
                ],
                req_nanos: 1,
            },
            Message::StealBatch { victim: WorkerId(2), seq: 11, bytes: vec![9; 137] },
            Message::Progress {
                worker: WorkerId(1),
                remaining: 42,
                idle: false,
                idle_compers: 3,
                steal_inflight: 1,
                epoch: u64::MAX,
            },
            Message::Probe { round: 9 },
            Message::ProbeAck { worker: WorkerId(2), round: 9, idle: true, epoch: 4 },
            Message::StealRequest { victim: WorkerId(0), thief: WorkerId(1), max_tasks: 2 },
            Message::StealExecuted { sent: 1 },
            Message::StealDone,
            Message::StealAck { seq: u64::MAX },
            Message::AggregatorSync { worker: WorkerId(2), payload: vec![1, 2, 3], is_final: true },
            Message::AggregatorGlobal { payload: vec![] },
            Message::Terminate,
            Message::Suspend,
            Message::SuspendDone { worker: WorkerId(9) },
            Message::Crash,
            Message::MetricsReport { worker: WorkerId(1), payload: vec![7; 42], is_final: true },
            Message::ClockPing { worker: WorkerId(2), nonce: 5 },
            Message::ClockPong { nonce: 5, nanos: u64::MAX },
            Message::PeerDown { worker: WorkerId(3) },
            Message::Abort { worker: WorkerId(1) },
            Message::Resume { resume: false, epoch: 0, attempt: u64::MAX },
            Message::Stop,
        ];
        for m in msgs {
            assert_eq!(m.encoded_len(), to_bytes(&m).len(), "{m:?}");
        }
    }

    #[test]
    fn a_response_from_shared_lists_is_byte_identical_to_the_owned_one() {
        let owned = vec![
            (VertexId(4), AdjList::new()),
            (VertexId(9), AdjList::from_unsorted(vec![VertexId(7), VertexId(1)])),
        ];
        let shared: Vec<(VertexId, SharedAdj)> =
            owned.iter().map(|(v, adj)| (*v, SharedAdj::new(adj.clone()))).collect();
        let msg = Message::VertexResponse { entries: owned, req_nanos: 42 };
        let mut buf = Vec::new();
        Message::encode_response(&shared, 42, &mut buf);
        assert_eq!(buf, to_bytes(&msg));
        assert_eq!(Message::response_len(&shared), msg.encoded_len());
    }
}
