//! The real TCP interconnect: one worker per OS process, length-prefixed
//! [`frame`]s over sockets.
//!
//! A [`ClusterManifest`] lists every worker's listen address. At startup
//! each process binds its own address and calls
//! [`TcpTransport::connect_on`], which builds a full mesh of
//! **unidirectional** links: worker `a` dials worker `b` and writes on
//! that socket; `b` accepts and reads. Each accepted link starts with a
//! hello frame naming the dialing worker, the cluster size, and the
//! dialer's **generation** (how many times that worker has been
//! respawned), so a peer from a different build (wire version) or a
//! different manifest fails the rendezvous with a descriptive error
//! instead of corrupting traffic later. Dials retry with exponential
//! backoff + jitter while a peer's listener is still coming up, bounded
//! by the rendezvous timeout.
//!
//! This module is the rendezvous only. Once the mesh is up, every
//! socket is handed to the single-threaded `poll(2)` data plane in
//! [`evented`](crate::evented), which is where frames are read and
//! written, faults are injected and peer death is turned into a
//! [`Message::PeerDown`](crate::message::Message::PeerDown) event.
//!
//! The accepting side of the mesh is a persistent [`MeshAcceptor`] that
//! outlives any single job attempt: a respawned worker re-dials the
//! survivors with a bumped generation
//! ([`TcpTransport::connect_via`]), the acceptor swaps in the
//! newest-generation link at the next rendezvous, and frames from a
//! stale generation's socket are rejected (the connection is closed
//! before it can deliver anything).

use crate::fault::{splitmix64, FaultConfig, FaultRuntime};
use crate::frame;
use crate::transport::{NetEndpoint, NetStats, Transport};
use crossbeam::channel::unbounded;
use gthinker_graph::ids::WorkerId;
use gthinker_task::codec::{Decode, Encode};
use std::io::{self, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every worker's listen address, in worker-ID order; identical on all
/// processes of a job (worker `w` is `addrs[w]`).
#[derive(Clone, Debug)]
pub struct ClusterManifest {
    addrs: Vec<SocketAddr>,
}

impl ClusterManifest {
    /// Builds a manifest from resolved addresses.
    pub fn new(addrs: Vec<SocketAddr>) -> ClusterManifest {
        assert!(!addrs.is_empty(), "manifest needs at least one worker");
        ClusterManifest { addrs }
    }

    /// Parses a comma-separated `host:port` list (the `--hosts` flag),
    /// resolving names; entry `i` is worker `i`'s listen address.
    pub fn parse(hosts: &str) -> io::Result<ClusterManifest> {
        let mut addrs = Vec::new();
        for entry in hosts.split(',') {
            let entry = entry.trim();
            let addr = entry.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(ErrorKind::InvalidInput, format!("`{entry}` resolves to nothing"))
            })?;
            addrs.push(addr);
        }
        if addrs.is_empty() {
            return Err(io::Error::new(ErrorKind::InvalidInput, "empty host list"));
        }
        Ok(ClusterManifest { addrs })
    }

    /// Number of workers in the cluster.
    pub fn num_workers(&self) -> usize {
        self.addrs.len()
    }

    /// Worker `w`'s listen address.
    pub fn addr(&self, w: WorkerId) -> SocketAddr {
        self.addrs[w.index()]
    }

    /// Binds `n` OS-assigned loopback ports and returns the manifest
    /// plus the pre-bound listeners (pass each to
    /// [`TcpTransport::connect_on`]). Tests use this to run a real TCP
    /// cluster without racing for fixed port numbers.
    pub fn loopback(n: usize) -> io::Result<(ClusterManifest, Vec<TcpListener>)> {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        Ok((ClusterManifest::new(addrs), listeners))
    }
}

/// The hello frame opening every link:
/// `(dialing worker, cluster size, dialer generation)`.
fn hello_payload(me: usize, n: usize, generation: u32) -> Vec<u8> {
    let mut p = Vec::with_capacity(8);
    (me as u16).encode(&mut p);
    (n as u16).encode(&mut p);
    generation.encode(&mut p);
    p
}

/// Reads and validates a peer's hello; returns the peer's worker index
/// and its generation.
fn read_hello(stream: &mut TcpStream, n: usize) -> io::Result<(usize, u32)> {
    let payload = frame::read_frame(stream)?.ok_or_else(|| {
        io::Error::new(ErrorKind::UnexpectedEof, "peer closed the link before its hello")
    })?;
    let bad = |msg| io::Error::new(ErrorKind::InvalidData, msg);
    let mut buf = payload.as_slice();
    let peer = u16::decode(&mut buf).map_err(|_| bad("malformed hello".into()))? as usize;
    let peer_n = u16::decode(&mut buf).map_err(|_| bad("malformed hello".into()))? as usize;
    let generation = u32::decode(&mut buf).map_err(|_| bad("malformed hello".into()))?;
    if !buf.is_empty() {
        return Err(bad("malformed hello: trailing bytes".into()));
    }
    if peer_n != n {
        return Err(bad(format!(
            "peer expects a {peer_n}-worker cluster but this manifest lists {n} workers; \
             every process must get the same --hosts list"
        )));
    }
    if peer >= n {
        return Err(bad(format!("hello from out-of-range worker {peer}")));
    }
    Ok((peer, generation))
}

/// The persistent accepting half of a worker's mesh presence: one
/// listener plus one accept thread that outlive any single job attempt,
/// so a worker can tear its endpoint down after a failed attempt and
/// rendezvous again ([`TcpTransport::connect_via`]) without losing
/// links that peers — including a freshly respawned one — dialed in
/// the meantime.
///
/// Generation protocol: every inbound hello carries the dialer's
/// generation. Per peer, the acceptor keeps the highest generation it
/// has ever seen; a hello from a **lower** generation is a frame from
/// a pre-crash incarnation's socket and is rejected — the connection
/// is closed before any of its traffic can be read. An equal or higher
/// generation replaces whatever link is pending for that peer (newest
/// wins), which is what lets a respawned worker's fresh dial supersede
/// its dead predecessor's.
pub struct MeshAcceptor {
    me: usize,
    n: usize,
    addr: SocketAddr,
    inner: Arc<AcceptorInner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

// std Mutex/Condvar: the vendored parking_lot shim has no Condvar, and
// this lock is far off any hot path (rendezvous only).
struct AcceptorInner {
    stop: AtomicBool,
    stale_rejections: AtomicU64,
    state: std::sync::Mutex<AcceptState>,
    cond: std::sync::Condvar,
}

struct AcceptState {
    /// Newest pending inbound link per peer, with its generation.
    pending: Vec<Option<(u32, TcpStream)>>,
    /// Highest generation ever seen per peer (the stale gate).
    last_gen: Vec<u32>,
    /// Links handed out per peer; a second take is a rejoin.
    taken: Vec<u64>,
    /// First fatal hello error (wire-version or manifest mismatch),
    /// surfaced to the rendezvous in progress.
    error: Option<String>,
}

impl MeshAcceptor {
    /// Starts accepting on `listener` for worker `me` of an `n`-worker
    /// cluster. The accept thread runs until the acceptor is dropped.
    pub fn new(listener: TcpListener, me: WorkerId, n: usize) -> io::Result<Arc<MeshAcceptor>> {
        let addr = listener.local_addr()?;
        let inner = Arc::new(AcceptorInner {
            stop: AtomicBool::new(false),
            stale_rejections: AtomicU64::new(0),
            state: std::sync::Mutex::new(AcceptState {
                pending: (0..n).map(|_| None).collect(),
                last_gen: vec![0; n],
                taken: vec![0; n],
                error: None,
            }),
            cond: std::sync::Condvar::new(),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("tcp-accept-{}", me.index()))
                .spawn(move || accept_loop(listener, inner, n))
                .map_err(|e| io::Error::other(format!("spawn accept: {e}")))?
        };
        Ok(Arc::new(MeshAcceptor { me: me.index(), n, addr, inner, thread: Some(thread) }))
    }

    /// Hellos rejected because their generation was below the highest
    /// seen for that peer (frames from a pre-crash socket).
    pub fn stale_rejections(&self) -> u64 {
        self.inner.stale_rejections.load(Ordering::Relaxed)
    }

    /// Waits until `peer` has a pending inbound link and takes it.
    /// Returns `(generation, stream, rejoin)` — `rejoin` is true when
    /// this is not the first link taken from that peer. Event-driven:
    /// blocks on a condvar the accept thread notifies, bounded by
    /// `deadline`.
    pub fn take_pending(
        &self,
        peer: usize,
        deadline: Instant,
    ) -> io::Result<(u32, TcpStream, bool)> {
        let mut st = self.inner.state.lock().expect("acceptor lock");
        loop {
            if let Some(err) = st.error.take() {
                return Err(io::Error::new(ErrorKind::InvalidData, err));
            }
            if let Some((generation, stream)) = st.pending[peer].take() {
                st.taken[peer] += 1;
                let rejoin = st.taken[peer] > 1;
                return Ok((generation, stream, rejoin));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    format!(
                        "cluster rendezvous timed out: worker {} never heard from worker {peer}",
                        self.me
                    ),
                ));
            }
            st = self.inner.cond.wait_timeout(st, remaining).expect("acceptor lock").0;
        }
    }

    /// Stops the accept thread: sets the stop flag, then dials our own
    /// listener to unblock `accept()`.
    fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }
}

impl Drop for MeshAcceptor {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The [`MeshAcceptor`]'s thread: accept, validate the hello, gate on
/// generation, park the link for the next rendezvous to take.
fn accept_loop(listener: TcpListener, inner: Arc<AcceptorInner>, n: usize) {
    loop {
        let Ok((mut stream, _)) = listener.accept() else {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // A stalled peer must not hang the hello read forever.
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        match read_hello(&mut stream, n) {
            Ok((peer, generation)) => {
                stream.set_read_timeout(None).ok();
                let mut st = inner.state.lock().expect("acceptor lock");
                if generation < st.last_gen[peer] {
                    // A frame from a pre-crash incarnation's socket:
                    // close it before it can deliver anything.
                    inner.stale_rejections.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                st.last_gen[peer] = generation;
                // Newest wins: a respawned worker's fresh link replaces
                // whatever its dead predecessor left pending.
                st.pending[peer] = Some((generation, stream));
                inner.cond.notify_all();
            }
            Err(e) => {
                let mut st = inner.state.lock().expect("acceptor lock");
                st.error.get_or_insert(e.to_string());
                inner.cond.notify_all();
            }
        }
    }
}

/// One worker per OS process, talking real TCP to its peers. Holds an
/// [`Arc`] of its [`MeshAcceptor`] so the accept thread lives at least
/// as long as the mesh; callers that rendezvous repeatedly
/// ([`TcpTransport::connect_via`]) keep their own `Arc` across
/// attempts.
pub struct TcpTransport {
    n: usize,
    me: WorkerId,
    endpoint: Option<Box<dyn NetEndpoint>>,
    _acceptor: Arc<MeshAcceptor>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Joins the cluster rendezvous on a pre-bound `listener` (this
    /// worker's manifest address, or one of
    /// [`ClusterManifest::loopback`]'s): dial every peer, accept every
    /// peer, all within `timeout`. Builds a one-shot [`MeshAcceptor`]
    /// owned by the transport; generation 0.
    pub fn connect_on(
        manifest: &ClusterManifest,
        me: WorkerId,
        fault: FaultConfig,
        timeout: Duration,
        listener: TcpListener,
    ) -> io::Result<TcpTransport> {
        let acceptor = MeshAcceptor::new(listener, me, manifest.num_workers())?;
        TcpTransport::connect_via(&acceptor, manifest, me, fault, timeout, 0)
    }

    /// Joins (or re-joins) the cluster rendezvous through a persistent
    /// [`MeshAcceptor`]: dial every peer with `generation` in the
    /// hello, take every peer's newest pending inbound link, all within
    /// `timeout`. The cluster-recovery loop calls this once per
    /// attempt, holding the acceptor across attempts so links dialed by
    /// a respawned peer while this process was tearing down are not
    /// lost.
    pub fn connect_via(
        acceptor: &Arc<MeshAcceptor>,
        manifest: &ClusterManifest,
        me: WorkerId,
        fault: FaultConfig,
        timeout: Duration,
        generation: u32,
    ) -> io::Result<TcpTransport> {
        let n = manifest.num_workers();
        assert!(me.index() < n, "worker {} not in a {n}-worker manifest", me.index());
        assert_eq!(acceptor.me, me.index(), "acceptor belongs to another worker");
        assert_eq!(acceptor.n, n, "acceptor sized for a different cluster");
        let fault = FaultRuntime::new(n, fault).map(Arc::new);
        let stats = Arc::new(NetStats::for_cluster(n));
        let (inbox_tx, inbox) = unbounded();
        let deadline = Instant::now() + timeout;

        // The acceptor has been collecting inbound links since it was
        // created; dial every peer, retrying with backoff while a peer
        // is still starting (or restarting) up.
        let mut write_streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        for (w, slot) in write_streams.iter_mut().enumerate() {
            if w == me.index() {
                continue;
            }
            let salt = ((me.index() as u64) << 32) | w as u64;
            let mut stream = dial_with_retry(manifest.addr(WorkerId(w as u16)), deadline, salt)?;
            stream.set_nodelay(true).ok();
            frame::write_frame(&mut stream, &hello_payload(me.index(), n, generation))?;
            *slot = Some(stream);
        }

        // Take the n-1 inbound links.
        let mut read_streams: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut have = 0usize;
        for (peer, slot) in read_streams.iter_mut().enumerate() {
            if peer == me.index() {
                continue;
            }
            let (_gen, stream, rejoin) = acceptor.take_pending(peer, deadline).map_err(|e| {
                if e.kind() == ErrorKind::TimedOut {
                    io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "cluster rendezvous timed out: worker {} heard from {have} of {} \
                             peers within {timeout:?} (first missing: worker {peer})",
                            me.index(),
                            n - 1
                        ),
                    )
                } else {
                    e
                }
            })?;
            have += 1;
            if rejoin {
                stats.peer_reconnect(peer);
            }
            *slot = Some(stream);
        }

        // The single `tcp-io-*` loop owns every established socket from
        // here on.
        let endpoint = crate::evented::launch(
            me,
            n,
            write_streams,
            read_streams,
            stats,
            fault,
            inbox_tx,
            inbox,
        )?;
        Ok(TcpTransport {
            n,
            me,
            endpoint: Some(Box::new(endpoint)),
            _acceptor: Arc::clone(acceptor),
        })
    }
}

impl Transport for TcpTransport {
    fn num_workers(&self) -> usize {
        self.n
    }

    /// A TCP process hosts exactly one worker.
    fn hosted(&self) -> Vec<WorkerId> {
        vec![self.me]
    }

    fn take_endpoint(&mut self, w: WorkerId) -> Box<dyn NetEndpoint> {
        assert_eq!(w, self.me, "worker {} is not hosted by this process", w.index());
        self.endpoint.take().expect("endpoint already taken")
    }
}

/// Dials `addr` until it answers or `deadline` passes, sleeping an
/// exponentially growing, jittered backoff between attempts — a peer's
/// listener may not be up yet (slow start, or a crashed worker being
/// respawned), and hammering it in a tight loop from every survivor at
/// once is how thundering herds are made. `salt` decorrelates the
/// jitter across dialers deterministically (no RNG dependency).
fn dial_with_retry(addr: SocketAddr, deadline: Instant, salt: u64) -> io::Result<TcpStream> {
    let mut attempt: u64 = 0;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("no worker answered at {addr} before the rendezvous deadline"),
            ));
        }
        match TcpStream::connect_timeout(&addr, remaining.min(Duration::from_millis(250))) {
            Ok(s) => return Ok(s),
            Err(_) => {
                // 1ms, 2ms, 4ms, … capped at 320ms, plus up to 50%
                // jitter; always bounded by the overall rendezvous
                // deadline. The first steps are short because the usual
                // refusal is a peer a few milliseconds from binding.
                let base = (1u64 << attempt.min(9)).min(320);
                let jitter = splitmix64(salt ^ attempt) % (base / 2 + 1);
                let backoff = Duration::from_millis(base + jitter);
                std::thread::sleep(backoff.min(remaining));
                attempt += 1;
            }
        }
    }
}

/// This process is a crash schedule's victim and the mark was reached:
/// die the way a killed worker dies — abnormally, mid-everything.
pub(crate) fn crash_self(me: usize) -> ! {
    eprintln!("gthinker-net: worker {me} crash schedule fired; aborting process");
    std::process::abort();
}
