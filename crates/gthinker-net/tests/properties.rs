//! Property-based tests for the wire codec: every [`Message`] variant
//! round-trips through its binary encoding, `encoded_len` is exact,
//! and malformed or truncated input decodes to a clean [`CodecError`]
//! (or a [`frame`] error) instead of panicking.

use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_net::frame;
use gthinker_net::message::Message;
use gthinker_task::codec::{from_bytes, to_bytes};
use proptest::prelude::*;

/// Any vertex ID, including the extremes.
fn any_vertex() -> impl Strategy<Value = VertexId> {
    prop_oneof![any::<u32>().prop_map(VertexId), Just(VertexId(0)), Just(VertexId(u32::MAX))]
}

fn any_worker() -> impl Strategy<Value = WorkerId> {
    any::<u16>().prop_map(WorkerId)
}

fn any_adj() -> impl Strategy<Value = AdjList> {
    proptest::collection::vec(any_vertex(), 0..12).prop_map(AdjList::from_unsorted)
}

/// A strategy producing every one of the 22 `Message` variants,
/// including empty batches and extreme field values.
fn any_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any_worker(), proptest::collection::vec(any_vertex(), 0..16), any::<u64>()).prop_map(
            |(from, vertices, sent_nanos)| Message::VertexRequest { from, vertices, sent_nanos }
        ),
        (proptest::collection::vec((any_vertex(), any_adj()), 0..8), any::<u64>())
            .prop_map(|(entries, req_nanos)| Message::VertexResponse { entries, req_nanos }),
        (any_worker(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(victim, seq, bytes)| Message::StealBatch { victim, seq, bytes }),
        (any_worker(), any::<u64>(), any::<bool>(), any::<u16>(), any::<u32>(), any::<u64>())
            .prop_map(|(worker, remaining, idle, idle_compers, steal_inflight, epoch)| {
                Message::Progress { worker, remaining, idle, idle_compers, steal_inflight, epoch }
            }),
        any::<u64>().prop_map(|round| Message::Probe { round }),
        (any_worker(), any::<u64>(), any::<bool>(), any::<u64>()).prop_map(
            |(worker, round, idle, epoch)| Message::ProbeAck { worker, round, idle, epoch }
        ),
        (any_worker(), any_worker(), any::<u32>()).prop_map(|(victim, thief, max_tasks)| {
            Message::StealRequest { victim, thief, max_tasks }
        }),
        any::<u32>().prop_map(|sent| Message::StealExecuted { sent }),
        Just(Message::StealDone),
        any::<u64>().prop_map(|seq| Message::StealAck { seq }),
        (any_worker(), proptest::collection::vec(any::<u8>(), 0..64), any::<bool>()).prop_map(
            |(worker, payload, is_final)| Message::AggregatorSync { worker, payload, is_final }
        ),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|payload| Message::AggregatorGlobal { payload }),
        Just(Message::Terminate),
        Just(Message::Suspend),
        any_worker().prop_map(|worker| Message::SuspendDone { worker }),
        Just(Message::Crash),
        (any_worker(), proptest::collection::vec(any::<u8>(), 0..64), any::<bool>()).prop_map(
            |(worker, payload, is_final)| Message::MetricsReport { worker, payload, is_final }
        ),
        (any_worker(), any::<u64>())
            .prop_map(|(worker, nonce)| Message::ClockPing { worker, nonce }),
        (any::<u64>(), any::<u64>()).prop_map(|(nonce, nanos)| Message::ClockPong { nonce, nanos }),
        any_worker().prop_map(|worker| Message::PeerDown { worker }),
        any_worker().prop_map(|worker| Message::Abort { worker }),
        (any::<bool>(), any::<u64>(), any::<u64>())
            .prop_map(|(resume, epoch, attempt)| Message::Resume { resume, epoch, attempt }),
    ]
}

proptest! {
    /// Encode → decode is the identity for every variant.
    #[test]
    fn message_round_trips(msg in any_message()) {
        let bytes = to_bytes(&msg);
        let back: Message = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// `encoded_len` is exactly the serialized size — the byte
    /// accounting can never drift from the wire format.
    #[test]
    fn encoded_len_is_exact(msg in any_message()) {
        prop_assert_eq!(msg.encoded_len(), to_bytes(&msg).len());
    }

    /// Any strict prefix of a valid encoding fails cleanly.
    #[test]
    fn truncation_is_a_clean_error(msg in any_message(), frac in 0.0f64..1.0) {
        let bytes = to_bytes(&msg);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(from_bytes::<Message>(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = from_bytes::<Message>(&bytes);
    }

    /// Sealed frames round-trip, and flipping any byte is detected
    /// (magic, version, reserved, length or CRC error — never a panic
    /// and never silent acceptance of a corrupt payload).
    #[test]
    fn frame_corruption_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flip in any::<usize>(),
        xor in 1u8..,
    ) {
        let sealed = frame::seal(&payload);
        prop_assert_eq!(frame::open(&sealed).unwrap(), &payload[..]);
        let mut bad = sealed.clone();
        let i = flip % bad.len();
        bad[i] ^= xor;
        prop_assert!(frame::open(&bad).is_err(), "flipped byte {} went undetected", i);
    }
}
