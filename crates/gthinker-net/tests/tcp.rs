//! Deterministic tests for the TCP backend: mesh rendezvous, framed
//! delivery, byte accounting, fault injection parity with the sim
//! router, and descriptive rejection of incompatible peers.

use gthinker_graph::crc::crc32;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_net::fault::{CrashSchedule, FaultConfig};
use gthinker_net::message::Message;
use gthinker_net::router::{LinkConfig, Router};
use gthinker_net::tcp::{ClusterManifest, MeshAcceptor, TcpTransport};
use gthinker_net::transport::{NetEndpoint, Transport};
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const RECV: Duration = Duration::from_secs(5);
const RENDEZVOUS: Duration = Duration::from_secs(10);

/// Brings up an n-worker loopback mesh, one thread per worker, and
/// runs `f(endpoint)` on each; returns the per-worker results.
fn with_mesh<R: Send + 'static>(
    n: usize,
    fault: FaultConfig,
    f: impl Fn(Box<dyn NetEndpoint>) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let (manifest, listeners) = ClusterManifest::loopback(n).expect("bind loopback");
    let f = std::sync::Arc::new(f);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let manifest = manifest.clone();
            let fault = fault.clone();
            let f = std::sync::Arc::clone(&f);
            std::thread::spawn(move || {
                let me = WorkerId(w as u16);
                let mut t = TcpTransport::connect_on(&manifest, me, fault, RENDEZVOUS, listener)
                    .expect("rendezvous");
                assert_eq!(Transport::num_workers(&t), n);
                assert_eq!(t.hosted(), vec![me]);
                f(t.take_endpoint(me))
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
}

/// Next message from a live peer. A peer that has already finished its
/// closure and closed its sockets shows up as `PeerDown`, which may
/// arrive ahead of a slower peer's traffic; the `with_mesh` tests below
/// are not about link death, so they skip it.
fn recv_skipping_peer_down(net: &dyn NetEndpoint, what: &str) -> Message {
    loop {
        match net.recv_timeout(RECV).expect(what) {
            Message::PeerDown { .. } => continue,
            m => return m,
        }
    }
}

fn pull(from: u16, v: u32) -> Message {
    Message::VertexRequest { from: WorkerId(from), vertices: vec![VertexId(v)], sent_nanos: 0 }
}

#[test]
fn mesh_delivers_across_processes_and_counts_bytes() {
    let counters = with_mesh(3, FaultConfig::default(), |net| {
        let me = net.id().index() as u16;
        // Everyone sends one pull to every peer, tagged by sender.
        for w in 0..3u16 {
            if w != me {
                net.send(WorkerId(w), pull(me, 1000 + me as u32));
            }
        }
        let mut seen = Vec::new();
        for _ in 0..2 {
            match recv_skipping_peer_down(&*net, "peer message") {
                Message::VertexRequest { from, vertices, .. } => {
                    seen.push((from.index(), vertices[0].0))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        seen.sort_unstable();
        let s = net.stats();
        (seen, s.bytes_sent.load(Ordering::Relaxed), s.bytes_received.load(Ordering::Relaxed))
    });
    for (w, (seen, sent, received)) in counters.into_iter().enumerate() {
        let expected: Vec<_> = (0..3).filter(|&p| p != w).map(|p| (p, 1000 + p as u32)).collect();
        assert_eq!(seen, expected, "worker {w} saw the wrong messages");
        assert!(sent > 0 && received > 0, "worker {w}: sent {sent} received {received}");
    }
}

#[test]
fn self_sends_and_broadcasts_loop_back() {
    // No worker broadcasts before both have taken their self-send: a
    // peer's `Terminate` may otherwise reach the inbox first.
    let both_looped = std::sync::Barrier::new(2);
    let got = with_mesh(2, FaultConfig::default(), move |net| {
        let me = net.id();
        net.send(me, pull(me.index() as u16, 7));
        let local = recv_skipping_peer_down(&*net, "self-send");
        both_looped.wait();
        net.broadcast(&Message::Terminate);
        let remote = recv_skipping_peer_down(&*net, "peer broadcast");
        (local, remote)
    });
    for (w, (local, remote)) in got.into_iter().enumerate() {
        assert!(matches!(local, Message::VertexRequest { .. }), "worker {w}: {local:?}");
        assert_eq!(remote, Message::Terminate, "worker {w}");
    }
}

/// Crash schedules are accepted on the TCP backend (they abort the
/// victim process for real). A non-victim — or a victim whose mark is
/// far away — connects and exchanges traffic normally. The mark here
/// is deliberately unreachable: the victim endpoint lives in *this*
/// process, and a fired schedule would abort the test runner.
#[test]
fn crash_schedules_are_accepted_and_dormant_until_their_mark() {
    let fault = FaultConfig {
        crash: Some(CrashSchedule {
            worker: WorkerId(1),
            after_messages: Some(1_000_000),
            after: None,
        }),
        ..FaultConfig::default()
    };
    let got = with_mesh(2, fault, |net| {
        let me = net.id().index() as u16;
        net.send(WorkerId(1 - me), pull(me, 5));
        net.recv_timeout(RECV)
    });
    assert!(got.iter().all(|m| matches!(m, Some(Message::VertexRequest { .. }))), "{got:?}");
}

/// With `dup_prob = 1` every data-plane message arrives exactly twice
/// (sent once on the wire model: counters record one send), and the
/// control plane is never duplicated.
#[test]
fn duplicates_are_delivered_twice() {
    let fault = FaultConfig { seed: 9, dup_prob: 1.0, ..FaultConfig::default() };
    let got = with_mesh(2, fault, |net| {
        let me = net.id().index();
        if me == 0 {
            net.send(WorkerId(1), pull(0, 42));
            net.send(WorkerId(1), Message::Terminate);
        }
        if me != 1 {
            return (0, 0, 0);
        }
        let mut pulls = 0;
        let mut terminates = 0;
        while let Some(m) = net.recv_timeout(RECV) {
            match m {
                Message::VertexRequest { .. } => pulls += 1,
                Message::Terminate => terminates += 1,
                other => panic!("unexpected {other:?}"),
            }
            if terminates == 1 && pulls == 2 {
                break;
            }
        }
        // Duplication is attributed at the sender, so worker 1's own
        // counters are clean.
        let dups = net.fault_stats().expect("faults on").duplicated.load(Ordering::Relaxed);
        (pulls, terminates, dups)
    });
    assert_eq!(got[1], (2, 1, 0));
}

/// With `drop_prob = 1` no data-plane message arrives, but control
/// messages (Terminate) still do — matching the sim router's contract.
#[test]
fn drops_lose_data_but_not_control() {
    let fault = FaultConfig { seed: 5, drop_prob: 1.0, ..FaultConfig::default() };
    let got = with_mesh(2, fault, |net| {
        let me = net.id().index();
        if me == 0 {
            for i in 0..10 {
                net.send(WorkerId(1), pull(0, i));
            }
            net.send(WorkerId(1), Message::Terminate);
            return net.fault_stats().expect("faults on").dropped.load(Ordering::Relaxed);
        }
        let mut data = 0u64;
        loop {
            match net.recv_timeout(RECV).expect("terminate must arrive") {
                Message::Terminate => break,
                _ => data += 1,
            }
        }
        data
    });
    assert_eq!(got[0], 10, "sender-side drop counter");
    assert_eq!(got[1], 0, "no data-plane message may survive drop_prob=1");
}

/// The same seeded fault config makes byte-identical drop decisions on
/// the TCP backend and the simulated router: send the same traffic
/// pattern through both and compare what survives.
#[test]
fn fault_decisions_match_the_sim_router() {
    let fault = FaultConfig { seed: 1234, drop_prob: 0.4, ..FaultConfig::default() };

    // Sim: worker 0 sends 40 pulls then Terminate to worker 1.
    let mut router = Router::with_faults(2, LinkConfig::INSTANT, fault.clone());
    let h1 = router.take_handle(WorkerId(1));
    let h0 = router.take_handle(WorkerId(0));
    for i in 0..40 {
        h0.send(WorkerId(1), pull(0, i));
    }
    h0.send(WorkerId(1), Message::Terminate);
    let mut sim_survivors = Vec::new();
    loop {
        match h1.recv_timeout(RECV).expect("sim terminate") {
            Message::Terminate => break,
            Message::VertexRequest { vertices, .. } => sim_survivors.push(vertices[0].0),
            other => panic!("unexpected {other:?}"),
        }
    }

    // TCP: identical traffic, identical seed.
    let got = with_mesh(2, fault, |net| {
        if net.id().index() == 0 {
            for i in 0..40 {
                net.send(WorkerId(1), pull(0, i));
            }
            net.send(WorkerId(1), Message::Terminate);
            return Vec::new();
        }
        let mut survivors = Vec::new();
        loop {
            match net.recv_timeout(RECV).expect("tcp terminate") {
                Message::Terminate => break,
                Message::VertexRequest { vertices, .. } => survivors.push(vertices[0].0),
                other => panic!("unexpected {other:?}"),
            }
        }
        survivors
    });

    assert!(!sim_survivors.is_empty() && sim_survivors.len() < 40, "seed too extreme");
    assert_eq!(got[1], sim_survivors, "same seed must drop the same messages on both backends");
}

/// A peer speaking a different wire version is rejected at rendezvous
/// with a descriptive error, not a hang or a garbled mesh.
#[test]
fn version_mismatch_fails_descriptively() {
    let (manifest, mut listeners) = ClusterManifest::loopback(2).expect("bind");
    let addr0 = manifest.addr(WorkerId(0));
    let listener0 = listeners.remove(0);
    let join = std::thread::spawn(move || {
        TcpTransport::connect_on(
            &manifest,
            WorkerId(0),
            FaultConfig::default(),
            Duration::from_secs(5),
            listener0,
        )
    });
    // Pose as worker 1 but with a bumped wire version: a hand-built
    // frame whose version field is WIRE_VERSION + 1.
    let mut stream = std::net::TcpStream::connect(addr0).expect("dial worker 0");
    // me=1, n=2 (little-endian u16s), generation=0 (u32).
    let payload = [1u8, 0, 2, 0, 0, 0, 0, 0];
    let mut bad = Vec::new();
    bad.extend_from_slice(&u32::from_le_bytes(*b"GTKW").to_le_bytes());
    bad.extend_from_slice(&(gthinker_net::frame::WIRE_VERSION + 1).to_le_bytes());
    bad.extend_from_slice(&0u16.to_le_bytes());
    bad.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bad.extend_from_slice(&payload);
    bad.extend_from_slice(&crc32(&payload).to_le_bytes());
    stream.write_all(&bad).expect("write bad hello");
    let err = join.join().expect("thread").expect_err("mismatched peer must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("version"), "error should name the version mismatch: {msg}");
}

/// Dropping one side of a loopback link surfaces as a `PeerDown` event
/// on the surviving side's inbox and bumps its per-peer counter — a
/// dead peer is an event the receiver reacts to, not a silently
/// vanished reader thread.
#[test]
fn dropping_a_link_surfaces_peer_down() {
    let got = with_mesh(2, FaultConfig::default(), |net| {
        if net.id().index() == 0 {
            // Returning drops the endpoint: the OS closes its sockets,
            // exactly like a process death.
            return 0;
        }
        match net.recv_timeout(RECV) {
            Some(Message::PeerDown { worker }) => {
                assert_eq!(worker, WorkerId(0));
                net.stats().peer_downs_total()
            }
            other => panic!("expected PeerDown, got {other:?}"),
        }
    });
    assert!(got[1] >= 1, "survivor's peer_downs counter: {}", got[1]);
}

/// Hand-builds a valid hello frame claiming worker 1 of 2 at the given
/// generation, and dials it at `addr`.
fn dial_as_worker_1(addr: std::net::SocketAddr, generation: u32) -> std::net::TcpStream {
    let mut payload = vec![1u8, 0, 2, 0];
    payload.extend_from_slice(&generation.to_le_bytes());
    let mut s = std::net::TcpStream::connect(addr).expect("dial");
    s.write_all(&gthinker_net::frame::seal(&payload)).expect("write hello");
    s
}

/// The acceptor's generation gate: a hello below the highest
/// generation seen for that peer is a frame from a pre-crash socket —
/// the connection is closed before it can deliver anything, and the
/// rejection is counted. Equal-or-newer generations are accepted, and
/// a second accepted link is flagged as a rejoin.
#[test]
fn stale_generation_hellos_are_rejected() {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let acceptor = MeshAcceptor::new(listener, WorkerId(0), 2).expect("acceptor");

    let _live5 = dial_as_worker_1(addr, 5);
    let (generation, _stream5, rejoin) =
        acceptor.take_pending(1, Instant::now() + RECV).expect("gen-5 link");
    assert_eq!(generation, 5);
    assert!(!rejoin, "first link from a peer is not a rejoin");

    // Generation 3 < 5: the stale link must be closed, not parked. Our
    // end observes the close as EOF (or a reset) on a blocking read —
    // event-driven, no sleep.
    let mut stale = dial_as_worker_1(addr, 3);
    stale.set_read_timeout(Some(RECV)).expect("read timeout");
    let mut buf = [0u8; 1];
    let n = stale.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "stale-generation link must be closed without traffic");
    assert_eq!(acceptor.stale_rejections(), 1);

    // Generation 6 ≥ 5: accepted, and it is the peer's second accepted
    // link — a rejoin.
    let _live6 = dial_as_worker_1(addr, 6);
    let (generation, _stream6, rejoin) =
        acceptor.take_pending(1, Instant::now() + RECV).expect("gen-6 link");
    assert_eq!(generation, 6);
    assert!(rejoin, "second accepted link is a rejoin");
}

/// Full re-rendezvous through persistent acceptors: worker 1 tears its
/// endpoint down mid-mesh (as its process death would), the survivor
/// sees `PeerDown`, and both sides rendezvous again — worker 1 with a
/// bumped generation — after which traffic flows on the new links.
#[test]
fn rejoin_re_forms_the_mesh_with_a_bumped_generation() {
    let (manifest, mut listeners) = ClusterManifest::loopback(2).expect("bind");
    let l1 = listeners.pop().expect("two listeners");
    let l0 = listeners.pop().expect("two listeners");

    let m0 = manifest.clone();
    let survivor = std::thread::spawn(move || {
        let acceptor = MeshAcceptor::new(l0, WorkerId(0), 2).expect("acceptor");
        let fault = FaultConfig::default();
        let mut t =
            TcpTransport::connect_via(&acceptor, &m0, WorkerId(0), fault.clone(), RENDEZVOUS, 0)
                .expect("attempt 1");
        let net = t.take_endpoint(WorkerId(0));
        // Per-link FIFO: the peer's last message arrives before the EOF
        // its death produces.
        assert!(matches!(net.recv_timeout(RECV), Some(Message::VertexRequest { .. })));
        match net.recv_timeout(RECV) {
            Some(Message::PeerDown { worker }) => assert_eq!(worker, WorkerId(1)),
            other => panic!("expected PeerDown, got {other:?}"),
        }
        drop(net);
        drop(t);
        // Attempt 2 through the same acceptor: the respawned peer's
        // fresh link is waiting (or arrives during the rendezvous).
        let mut t = TcpTransport::connect_via(&acceptor, &m0, WorkerId(0), fault, RENDEZVOUS, 0)
            .expect("attempt 2");
        let net = t.take_endpoint(WorkerId(0));
        let reconnects = net.stats().peer_reconnects_total();
        assert!(matches!(net.recv_timeout(RECV), Some(Message::Terminate)));
        reconnects
    });

    let m1 = manifest.clone();
    let rejoiner = std::thread::spawn(move || {
        let acceptor = MeshAcceptor::new(l1, WorkerId(1), 2).expect("acceptor");
        let fault = FaultConfig::default();
        let mut t =
            TcpTransport::connect_via(&acceptor, &m1, WorkerId(1), fault.clone(), RENDEZVOUS, 0)
                .expect("attempt 1");
        let net = t.take_endpoint(WorkerId(1));
        net.send(WorkerId(0), pull(1, 7));
        // "Die": drop the endpoint, closing every socket.
        drop(net);
        drop(t);
        // "Respawn": rendezvous again with a bumped generation.
        let mut t = TcpTransport::connect_via(&acceptor, &m1, WorkerId(1), fault, RENDEZVOUS, 1)
            .expect("attempt 2");
        let net = t.take_endpoint(WorkerId(1));
        net.send(WorkerId(0), Message::Terminate);
    });

    let reconnects = survivor.join().expect("survivor thread");
    rejoiner.join().expect("rejoiner thread");
    assert_eq!(reconnects, 1, "the survivor observed exactly one rejoin");
}

/// A deliberately slow third process does not fail the mesh: the other
/// workers' dials back off and retry (connection refused — its
/// listener is genuinely absent, not just slow to accept) until it
/// binds, all inside the rendezvous window.
#[test]
fn rendezvous_waits_for_a_delayed_third_process() {
    let (manifest, mut listeners) = ClusterManifest::loopback(3).expect("bind");
    let l2 = listeners.pop().expect("three listeners");
    let addr2 = manifest.addr(WorkerId(2));
    // Release worker 2's port so dials to it are refused outright.
    drop(l2);

    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                let me = WorkerId(w as u16);
                let mut t = TcpTransport::connect_on(
                    &manifest,
                    me,
                    FaultConfig::default(),
                    RENDEZVOUS,
                    listener,
                )
                .expect("rendezvous despite the late peer");
                let net = t.take_endpoint(me);
                assert!(matches!(net.recv_timeout(RECV), Some(Message::Terminate)));
            })
        })
        .collect();

    // Start worker 2 late: its peers are already dialing into refusals.
    std::thread::sleep(Duration::from_millis(300));
    let l2 = std::net::TcpListener::bind(addr2).expect("rebind worker 2's port");
    let mut t =
        TcpTransport::connect_on(&manifest, WorkerId(2), FaultConfig::default(), RENDEZVOUS, l2)
            .expect("late rendezvous");
    let net = t.take_endpoint(WorkerId(2));
    net.broadcast(&Message::Terminate);
    for h in handles {
        h.join().expect("worker thread");
    }
}

/// `requeue` re-injects a message into the local inbox without
/// touching traffic counters or fault decisions (it already paid both
/// on its original trip).
#[test]
fn requeue_bypasses_accounting() {
    let got = with_mesh(2, FaultConfig::default(), |net| {
        net.requeue(Message::Suspend);
        let m = net.recv_timeout(RECV);
        let s = net.stats();
        (m, s.msgs_sent.load(Ordering::Relaxed), s.msgs_received.load(Ordering::Relaxed))
    });
    for (w, (m, sent, received)) in got.into_iter().enumerate() {
        assert_eq!(m, Some(Message::Suspend), "worker {w}");
        assert_eq!((sent, received), (0, 0), "worker {w}: requeue must not count as traffic");
    }
}

/// A crash schedule counts the messages that cross the wire, never one
/// requeued on the local inbox: a victim whose mark is 3 requeues and
/// drains ten local messages and is still alive (a fired schedule would
/// abort the test runner).
#[test]
fn requeued_messages_do_not_count_toward_a_crash_mark() {
    let fault = FaultConfig {
        crash: Some(CrashSchedule { worker: WorkerId(1), after_messages: Some(3), after: None }),
        ..FaultConfig::default()
    };
    let drained = with_mesh(2, fault, |net| {
        if net.id() != WorkerId(1) {
            return 0;
        }
        for _ in 0..10 {
            net.requeue(Message::Wake);
        }
        (0..10)
            .filter(|_| recv_skipping_peer_down(&*net, "requeued message") == Message::Wake)
            .count()
    });
    assert_eq!(drained[1], 10);
}
