//! Network-simulator guarantees the framework relies on: per-link FIFO
//! under the latency/bandwidth model, loss-free delivery under load,
//! and accurate byte accounting.

use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_net::message::Message;
use gthinker_net::router::{LinkConfig, Router};
use gthinker_net::transport::NetEndpoint;
use std::time::Duration;

#[test]
fn per_link_delivery_is_fifo_under_latency() {
    let cfg = LinkConfig { latency: Duration::from_micros(300), bytes_per_sec: Some(5_000_000) };
    let mut r = Router::new(2, cfg);
    let mut hs = r.take_handles();
    let h1 = hs.remove(1);
    let h0 = hs.remove(0);
    for i in 0..200u32 {
        h0.send(
            WorkerId(1),
            Message::VertexRequest {
                from: WorkerId(0),
                vertices: vec![VertexId(i)],
                sent_nanos: 0,
            },
        );
    }
    for expect in 0..200u32 {
        match h1.recv_timeout(Duration::from_secs(5)).expect("delivered") {
            Message::VertexRequest { vertices, .. } => {
                assert_eq!(vertices, vec![VertexId(expect)], "out-of-order delivery");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn concurrent_senders_lose_nothing() {
    let cfg = LinkConfig { latency: Duration::from_micros(50), bytes_per_sec: None };
    let mut r = Router::new(4, cfg);
    let mut hs = r.take_handles();
    let sink = hs.remove(3);
    let senders: Vec<_> = hs.into_iter().collect();
    std::thread::scope(|s| {
        for (w, h) in senders.iter().enumerate() {
            s.spawn(move || {
                for i in 0..500u32 {
                    h.send(
                        WorkerId(3),
                        Message::VertexRequest {
                            from: WorkerId(w as u16),
                            vertices: vec![VertexId(i)],
                            sent_nanos: 0,
                        },
                    );
                }
            });
        }
        let mut per_sender = [0u32; 3];
        for _ in 0..1500 {
            match sink.recv_timeout(Duration::from_secs(10)).expect("no loss") {
                Message::VertexRequest { from, vertices, .. } => {
                    // Per sender, arrivals must be in send order.
                    assert_eq!(vertices, vec![VertexId(per_sender[from.index()])]);
                    per_sender[from.index()] += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(per_sender, [500, 500, 500]);
    });
}

#[test]
fn byte_accounting_is_exact_under_concurrency() {
    let mut r = Router::new(3, LinkConfig::INSTANT);
    let hs = r.take_handles();
    let msg = Message::StealBatch { victim: WorkerId(0), seq: 0, bytes: vec![7u8; 100] };
    let per_msg = msg.encoded_len() as u64;
    std::thread::scope(|s| {
        for h in &hs[..2] {
            s.spawn(|| {
                for _ in 0..1_000 {
                    h.send(
                        WorkerId(2),
                        Message::StealBatch { victim: WorkerId(0), seq: 0, bytes: vec![7u8; 100] },
                    );
                }
            });
        }
    });
    assert_eq!(r.total_bytes(), 2_000 * per_msg);
    assert_eq!(
        r.stats(WorkerId(2)).bytes_received.load(std::sync::atomic::Ordering::Relaxed),
        2_000 * per_msg
    );
}
