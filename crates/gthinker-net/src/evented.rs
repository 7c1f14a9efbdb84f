//! The TCP data plane: **one non-blocking I/O thread per worker
//! process** (`tcp-io-<worker>`), owning every peer socket of the mesh
//! [`tcp`](crate::tcp) established, driven by `poll(2)`:
//!
//! * **Sealed once, written everywhere.** `send` encodes the message
//!   straight into a pooled wire buffer ([`FramePool`]); a broadcast
//!   clones the [`SealedFrame`] handle into each peer's ring — the
//!   bytes are never copied per destination.
//! * **Per-peer bounded outbound rings.** Senders enqueue and return;
//!   when a ring is full (slow peer or wire) the sender waits on the
//!   ring's condvar, counted as a [`NetStats::backpressure_stalls`].
//!   The I/O loop is the only consumer, so its own inserts (due
//!   delayed frames, teardown flush) never block.
//! * **Vectored, coalesced writes.** When a socket is writable the
//!   loop gathers up to [`WRITEV_MAX_FRAMES`] queued frames into one
//!   `write_vectored` call — small control frames ride along with
//!   data frames instead of paying a syscall each
//!   ([`NetStats::writev_calls`] / [`NetStats::frames_coalesced`]).
//! * **Streaming reads.** Sockets are read in large chunks directly
//!   into a per-peer [`FrameDecoder`], which hands back every complete
//!   CRC-verified payload regardless of where the kernel split the
//!   byte stream; messages are decoded in place from the decoder's
//!   buffer.
//! * **Fault injection lives in the loop.** Send-side decisions come
//!   from the transport-agnostic [`FaultRuntime`], so a seed makes the
//!   same drop/dup/delay choices here as on the simulated router; the
//!   delay *heap* sits inside the loop (its deadline bounds the poll
//!   timeout), so injected delays cost no thread.
//! * **Crash schedules fire for real.** When this process is the
//!   victim, it calls `std::process::abort()` at the scheduled mark —
//!   the same logical trigger as the sim router's
//!   [`Message::Crash`], but the process actually dies mid-job, which
//!   is what the cluster recovery path and the process-chaos harness
//!   exercise. `after_messages` counts this endpoint's own sends and
//!   the frames its loop decodes — never a message requeued on the
//!   local inbox (no process has the router's global count); a wall-clock
//!   `after` bounds the loop's poll timeout, so it fires even while
//!   the endpoint is idle.
//! * **Peer death is an event, not a hang.** Read EOF/error or a
//!   failed write marks the link down, bumps the per-peer [`NetStats`]
//!   counter and injects [`Message::PeerDown`] into the local inbox;
//!   the master's failure detector reacts the moment the OS closes a
//!   dead process's sockets.
//!
//! A wake channel (a non-blocking `UnixStream` pair plus an
//! edge-triggered flag) gets the loop out of `poll` when a sender
//! enqueues; the flag collapses any number of concurrent sends into at
//! most one wake byte per poll iteration.

use crate::fault::FaultRuntime;
use crate::frame::{FrameDecoder, FRAME_OVERHEAD};
use crate::message::Message;
use crate::pool::{FramePool, SealedFrame};
use crate::tcp::crash_self;
use crate::transport::{NetEndpoint, NetStats};
use crossbeam::channel::{Receiver, Sender};
use gthinker_graph::adj::SharedAdj;
use gthinker_graph::ids::{VertexId, WorkerId};
use gthinker_task::codec::{self, Encode};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The [`FaultRuntime::roll`] of a message no fault touches: sent
/// now, once.
const CLEAN: Option<(Duration, Option<Duration>)> = Some((Duration::ZERO, None));

/// Cap on queued outbound bytes per peer; a sender hitting it waits
/// (backpressure) until the I/O loop drains the ring below it.
const RING_MAX_BYTES: usize = 8 * 1024 * 1024;

/// Most frames gathered into a single vectored write (Linux caps an
/// iovec at 1024 entries; 64 already amortizes the syscall to noise).
pub const WRITEV_MAX_FRAMES: usize = 64;

/// Socket read chunk: large enough that one syscall drains many small
/// frames, small enough not to bloat idle per-peer buffers.
const READ_CHUNK: usize = 64 * 1024;

/// Poll timeout when nothing is due: pure idle, woken early by the
/// wake channel on any send.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// One peer's outbound state. `frames` and `head_off` are consumed
/// only by the I/O loop; senders only push, which keeps the advance
/// logic single-writer.
struct OutRing {
    frames: VecDeque<SealedFrame>,
    /// Bytes of `frames[0]` already on the wire (partial write).
    head_off: usize,
    /// Total queued bytes (the backpressure gauge).
    bytes: usize,
    /// Peer's socket is dead or absent; sends are silently discarded
    /// (the [`NetEndpoint::send`] contract).
    gone: bool,
}

struct PeerOut {
    ring: Mutex<OutRing>,
    space: Condvar,
}

impl PeerOut {
    fn new(gone: bool) -> PeerOut {
        PeerOut {
            ring: Mutex::new(OutRing { frames: VecDeque::new(), head_off: 0, bytes: 0, gone }),
            space: Condvar::new(),
        }
    }
}

/// A fault-delayed frame waiting in the loop's deadline heap.
struct Delayed {
    deliver_at: Instant,
    seq: u64,
    to: usize,
    frame: SealedFrame,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// State shared between the endpoint (any worker thread may send) and
/// the I/O loop.
struct EventedShared {
    outbound: Vec<PeerOut>,
    delay: Mutex<BinaryHeap<Reverse<Delayed>>>,
    wake_tx: UnixStream,
    wake_flag: AtomicBool,
    stop: AtomicBool,
}

impl EventedShared {
    /// Gets the loop out of `poll`. The flag is cleared by the loop
    /// *before* it examines the rings, so a send landing between the
    /// clear and the examination re-arms the wake rather than being
    /// lost; any number of sends between two poll iterations cost one
    /// wake byte.
    fn wake(&self) {
        if !self.wake_flag.swap(true, Ordering::SeqCst) {
            // WouldBlock means wake bytes are already queued — the loop
            // is guaranteed to come around.
            let _ = (&self.wake_tx).write(&[1u8]);
        }
    }

    /// Sender-side enqueue with backpressure: waits while the ring is
    /// over [`RING_MAX_BYTES`], gives up silently once the peer is
    /// gone (trait contract: sends to a departed peer are discarded).
    fn enqueue(&self, to: usize, frame: SealedFrame, stats: &NetStats) {
        let peer = &self.outbound[to];
        let mut ring = peer.ring.lock().expect("outbound ring lock");
        if ring.gone {
            return;
        }
        if ring.bytes >= RING_MAX_BYTES {
            stats.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
            while ring.bytes >= RING_MAX_BYTES && !ring.gone {
                if self.stop.load(Ordering::SeqCst) {
                    return; // teardown: the flush path owns the ring now
                }
                // Re-wake on every lap: the loop may have gone idle
                // between our check and its last drain.
                self.wake();
                ring = peer
                    .space
                    .wait_timeout(ring, Duration::from_millis(20))
                    .expect("outbound ring lock")
                    .0;
            }
            if ring.gone {
                return;
            }
        }
        ring.bytes += frame.len();
        ring.frames.push_back(frame);
        drop(ring);
        self.wake();
    }

    /// Loop-side insert for frames whose injected delay expired. Never
    /// blocks (the loop is the only drainer — waiting on itself would
    /// deadlock); a dead peer's frame is dropped and counted.
    fn enqueue_unbounded(&self, to: usize, frame: SealedFrame, stats: &NetStats) {
        let mut ring = self.outbound[to].ring.lock().expect("outbound ring lock");
        if ring.gone {
            stats.delayed_write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ring.bytes += frame.len();
        ring.frames.push_back(frame);
    }
}

/// What a `pollfd` slot refers to.
#[derive(Clone, Copy)]
enum Slot {
    Wake,
    Read(usize),
    /// A peer socket registered for POLLOUT; the drain pass below
    /// covers every non-empty ring, so the slot needs no payload.
    Write,
}

/// The I/O loop's thread-local state: it owns every socket.
struct IoLoop {
    me: usize,
    shared: Arc<EventedShared>,
    stats: Arc<NetStats>,
    fault: Option<Arc<FaultRuntime>>,
    inbox_tx: Sender<Message>,
    wake_rx: UnixStream,
    reads: Vec<Option<ReadHalf>>,
    writes: Vec<Option<TcpStream>>,
    /// Wall-clock crash-schedule deadline for this process; bounds the
    /// poll timeout.
    crash_wall: Option<Instant>,
}

struct ReadHalf {
    stream: TcpStream,
    dec: FrameDecoder,
}

fn poll(fds: &mut [libc::pollfd], timeout: Duration) -> io::Result<usize> {
    // Round up so a 0.3ms deadline does not busy-spin at timeout 0.
    let ms = timeout.as_millis().min(i32::MAX as u128) as i64;
    let ms = if timeout > Duration::from_millis(ms as u64) { ms + 1 } else { ms };
    loop {
        let r = unsafe { libc::poll(fds.as_mut_ptr(), fds.len() as libc::nfds_t, ms as i32) };
        if r >= 0 {
            return Ok(r as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

impl IoLoop {
    fn run(mut self) {
        let mut fds: Vec<libc::pollfd> = Vec::new();
        let mut slots: Vec<Slot> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.shutdown_flush();
                return;
            }
            let mut timeout = IDLE_POLL;
            // Wall-clock crash schedule: the deadline bounds the poll
            // timeout; when it passes, the schedule gets its one check.
            if let Some(deadline) = self.crash_wall {
                let now = Instant::now();
                if now >= deadline {
                    self.crash_wall = None;
                    note_traffic(&self.fault, self.me);
                } else {
                    timeout = timeout.min(deadline - now);
                }
            }
            // Release fault-delayed frames whose time has come; the
            // next deadline, if any, also bounds the poll timeout.
            if let Some(next) = self.release_due_delays() {
                timeout = timeout.min(next.saturating_duration_since(Instant::now()));
            }

            fds.clear();
            slots.clear();
            fds.push(libc::pollfd {
                fd: self.wake_rx.as_raw_fd(),
                events: libc::POLLIN,
                revents: 0,
            });
            slots.push(Slot::Wake);
            for (p, r) in self.reads.iter().enumerate() {
                if let Some(rh) = r {
                    fds.push(libc::pollfd {
                        fd: rh.stream.as_raw_fd(),
                        events: libc::POLLIN,
                        revents: 0,
                    });
                    slots.push(Slot::Read(p));
                }
            }
            for (p, w) in self.writes.iter().enumerate() {
                if let Some(stream) = w {
                    let pending = {
                        let ring = self.shared.outbound[p].ring.lock().expect("ring lock");
                        !ring.frames.is_empty()
                    };
                    if pending {
                        fds.push(libc::pollfd {
                            fd: stream.as_raw_fd(),
                            events: libc::POLLOUT,
                            revents: 0,
                        });
                        slots.push(Slot::Write);
                    }
                }
            }

            if poll(&mut fds, timeout).is_err() {
                // EBADF etc. — transient teardown races; back off a
                // touch so a persistent error cannot spin the CPU.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            for i in 0..fds.len() {
                if fds[i].revents == 0 {
                    continue;
                }
                match slots[i] {
                    Slot::Wake => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                        self.shared.wake_flag.store(false, Ordering::SeqCst);
                    }
                    Slot::Read(p) => self.service_read(p),
                    // Write slots are serviced below for every
                    // non-empty ring; POLLOUT only wakes the poll.
                    Slot::Write => {}
                }
            }

            // Attempt a drain of every non-empty ring each iteration —
            // cheap when the socket says WouldBlock, and it catches
            // frames enqueued since the poll set was built.
            for p in 0..self.writes.len() {
                self.service_write(p);
            }
        }
    }

    /// Moves due delayed frames into their rings; returns the next
    /// deadline still waiting.
    fn release_due_delays(&mut self) -> Option<Instant> {
        let mut due = Vec::new();
        let next = {
            let mut delay = self.shared.delay.lock().expect("delay heap lock");
            let now = Instant::now();
            while delay.peek().is_some_and(|Reverse(d)| d.deliver_at <= now) {
                due.push(delay.pop().expect("peeked").0);
            }
            delay.peek().map(|Reverse(d)| d.deliver_at)
        };
        for d in due {
            self.shared.enqueue_unbounded(d.to, d.frame, &self.stats);
        }
        next
    }

    fn service_read(&mut self, p: usize) {
        let Some(mut rh) = self.reads[p].take() else { return };
        if self.pump_read(p, &mut rh) {
            self.reads[p] = Some(rh);
        }
    }

    /// Reads and decodes until the socket would block; returns false
    /// when the link died (EOF, error, or framing violation).
    fn pump_read(&mut self, p: usize, rh: &mut ReadHalf) -> bool {
        loop {
            let space = rh.dec.space(READ_CHUNK);
            let n = match rh.stream.read(space) {
                Ok(0) => {
                    self.link_down(p, None);
                    return false;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.link_down(p, Some(e));
                    return false;
                }
            };
            rh.dec.commit(n);
            loop {
                match rh.dec.next() {
                    Ok(Some(payload)) => {
                        match codec::from_bytes::<Message>(payload) {
                            Ok(msg) => {
                                self.stats.bytes_received.fetch_add(
                                    (payload.len() + FRAME_OVERHEAD) as u64,
                                    Ordering::Relaxed,
                                );
                                self.stats.msgs_received.fetch_add(1, Ordering::Relaxed);
                                note_traffic(&self.fault, self.me);
                                if self.inbox_tx.send(msg).is_err() {
                                    return false; // endpoint gone: job teardown
                                }
                            }
                            Err(e) => eprintln!(
                                "gthinker-net: undecodable frame from worker {p} dropped: {e}"
                            ),
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // A framing stream that lost sync cannot
                        // recover; the link is dead.
                        self.link_down(p, Some(e.into()));
                        return false;
                    }
                }
            }
            if n < READ_CHUNK {
                return true; // drained the socket; poll re-arms us
            }
        }
    }

    /// Writes as much of `p`'s ring as the socket will take, vectoring
    /// up to [`WRITEV_MAX_FRAMES`] frames per syscall.
    fn service_write(&mut self, p: usize) {
        let peer = &self.shared.outbound[p];
        let mut dead = false;
        if let Some(stream) = self.writes[p].as_mut() {
            let mut ring = peer.ring.lock().expect("ring lock");
            loop {
                if ring.frames.is_empty() {
                    break;
                }
                let mut bufs: Vec<IoSlice<'_>> =
                    Vec::with_capacity(ring.frames.len().min(WRITEV_MAX_FRAMES));
                for (i, f) in ring.frames.iter().take(WRITEV_MAX_FRAMES).enumerate() {
                    let b = f.bytes();
                    bufs.push(IoSlice::new(if i == 0 { &b[ring.head_off..] } else { b }));
                }
                match stream.write_vectored(&bufs) {
                    Ok(mut n) if n > 0 => {
                        self.stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                        if bufs.len() > 1 {
                            self.stats
                                .frames_coalesced
                                .fetch_add((bufs.len() - 1) as u64, Ordering::Relaxed);
                        }
                        while n > 0 {
                            let head_remaining = ring.frames[0].len() - ring.head_off;
                            if n >= head_remaining {
                                n -= head_remaining;
                                let f = ring.frames.pop_front().expect("nonempty");
                                ring.bytes -= f.len();
                                ring.head_off = 0;
                            } else {
                                ring.head_off += n;
                                n = 0;
                            }
                        }
                        peer.space.notify_all();
                    }
                    Ok(_) => break, // zero-length write: try again later
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Peer died: discard the ring, stop accepting,
                        // surface the event.
                        ring.gone = true;
                        ring.frames.clear();
                        ring.bytes = 0;
                        ring.head_off = 0;
                        peer.space.notify_all();
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.writes[p] = None;
            self.link_down(p, None);
        }
    }

    /// A link to `p` died: count it and surface a `PeerDown` event,
    /// whichever half noticed first. At normal job teardown the
    /// per-link FIFO guarantees the peer's final control messages were
    /// delivered before this fires, and the master's terminated guard
    /// ignores it. Resets are the normal end of a job; anything else
    /// (version mismatch, corruption) gets a line on stderr before the
    /// link goes dark.
    fn link_down(&mut self, p: usize, context: Option<io::Error>) {
        if let Some(e) = context {
            if !matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted) {
                eprintln!("gthinker-net: link from worker {p} failed: {e}");
            }
        }
        self.stats.peer_down(p);
        let _ = self.inbox_tx.send(Message::PeerDown { worker: WorkerId(p as u16) });
    }

    /// Endpoint teardown: deliver everything still pending — peers
    /// rely on the final control messages (terminate, final reports,
    /// acks) being on the wire once the endpoint has dropped. Delayed
    /// frames flush immediately, then every ring is written dry on a
    /// re-blocked socket with a bounded write timeout.
    fn shutdown_flush(&mut self) {
        let heap = std::mem::take(&mut *self.shared.delay.lock().expect("delay heap lock"));
        for Reverse(d) in heap.into_sorted_vec().into_iter().rev() {
            self.shared.enqueue_unbounded(d.to, d.frame, &self.stats);
        }
        for p in 0..self.writes.len() {
            let peer = &self.shared.outbound[p];
            let (frames, head_off) = {
                let mut ring = peer.ring.lock().expect("ring lock");
                ring.gone = true; // no new frames past this point
                ring.bytes = 0;
                let off = ring.head_off;
                ring.head_off = 0;
                (std::mem::take(&mut ring.frames), off)
            };
            peer.space.notify_all();
            let Some(stream) = self.writes[p].as_mut() else { continue };
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            let mut off = head_off;
            for f in frames {
                if stream.write_all(&f.bytes()[off..]).is_err() {
                    break; // peer already gone; nothing to deliver to
                }
                off = 0;
            }
        }
    }
}

/// Builds the endpoint over an established mesh: takes ownership of
/// every link, switches it non-blocking, and starts the single I/O
/// thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch(
    me: WorkerId,
    n: usize,
    write_streams: Vec<Option<TcpStream>>,
    read_streams: Vec<Option<TcpStream>>,
    stats: Arc<NetStats>,
    fault: Option<Arc<FaultRuntime>>,
    inbox_tx: Sender<Message>,
    inbox: Receiver<Message>,
) -> io::Result<EventedEndpoint> {
    for s in write_streams.iter().chain(read_streams.iter()).flatten() {
        s.set_nonblocking(true)?;
    }
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;

    let shared = Arc::new(EventedShared {
        outbound: (0..n).map(|p| PeerOut::new(write_streams[p].is_none())).collect(),
        delay: Mutex::new(BinaryHeap::new()),
        wake_tx,
        wake_flag: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    });

    let crash_wall = fault.as_ref().and_then(|f| {
        let cs = f.config().crash?;
        (cs.worker == me).then_some(cs.after).flatten().map(|after| Instant::now() + after)
    });

    let io_loop = IoLoop {
        me: me.index(),
        shared: Arc::clone(&shared),
        stats: Arc::clone(&stats),
        fault: fault.clone(),
        inbox_tx: inbox_tx.clone(),
        wake_rx,
        reads: read_streams
            .into_iter()
            .map(|s| s.map(|stream| ReadHalf { stream, dec: FrameDecoder::new() }))
            .collect(),
        writes: write_streams,
        crash_wall,
    };
    let io_thread = std::thread::Builder::new()
        .name(format!("tcp-io-{}", me.index()))
        .spawn(move || io_loop.run())
        .map_err(|e| io::Error::other(format!("spawn tcp-io thread: {e}")))?;

    Ok(EventedEndpoint {
        me: me.index(),
        n,
        shared,
        pool: FramePool::new(),
        stats,
        fault,
        inbox,
        inbox_tx,
        delay_seq: AtomicU64::new(0),
        io_thread: Some(io_thread),
    })
}

/// This process's endpoint on the TCP mesh. Senders seal into the
/// pool and enqueue; the I/O thread does every syscall. Byte counters
/// measure real wire bytes: payload plus [`FRAME_OVERHEAD`] per message
/// (self-sends are counted at the same rate for comparability).
pub struct EventedEndpoint {
    me: usize,
    n: usize,
    shared: Arc<EventedShared>,
    pool: Arc<FramePool>,
    stats: Arc<NetStats>,
    fault: Option<Arc<FaultRuntime>>,
    inbox: Receiver<Message>,
    inbox_tx: Sender<Message>,
    delay_seq: AtomicU64,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

/// Advances this process's crash schedule by one message — a send, or
/// a frame the I/O loop decoded; a message requeued on the inbox never
/// counts — and aborts the process if this worker is the victim and the
/// mark was reached: the TCP equivalent of the sim router delivering
/// `Message::Crash`.
fn note_traffic(fault: &Option<Arc<FaultRuntime>>, me: usize) {
    if fault.as_ref().and_then(|f| f.crash_due()) == Some(me) {
        crash_self(me);
    }
}

impl EventedEndpoint {
    /// Parks `frame` in the loop's delay heap until `extra` elapses.
    fn queue_delayed(&self, to: usize, frame: SealedFrame, extra: Duration) {
        self.shared.delay.lock().expect("delay heap lock").push(Reverse(Delayed {
            deliver_at: Instant::now() + extra,
            seq: self.delay_seq.fetch_add(1, Ordering::Relaxed),
            to,
            frame,
        }));
        self.shared.wake();
    }

    /// Routes one sealed frame: now (ring) or later (delay heap).
    fn dispatch(&self, to: usize, frame: SealedFrame, extra: Duration) {
        if extra.is_zero() {
            self.shared.enqueue(to, frame, &self.stats);
        } else {
            self.queue_delayed(to, frame, extra);
        }
    }

    fn count_send(&self, bytes: u64) {
        self.stats.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts, fault-rolls, seals and queues one message to peer `to`
    /// whose `len` payload bytes `encode` writes into the frame.
    fn send_frame(
        &self,
        to: usize,
        len: usize,
        data_plane: bool,
        encode: impl FnOnce(&mut Vec<u8>),
    ) {
        note_traffic(&self.fault, self.me);
        self.count_send((len + FRAME_OVERHEAD) as u64);
        // Only the data plane is faulted.
        let fault = self.fault.as_ref().filter(|_| data_plane);
        let Some((extra, dup_lag)) = fault.map_or(CLEAN, |f| f.roll(self.me, to)) else {
            return; // dropped by fault injection
        };
        let frame = self.pool.seal(encode);
        if let Some(lag) = dup_lag {
            // The copy trails the original by one jitter window.
            self.queue_delayed(to, frame.clone(), lag);
        }
        self.dispatch(to, frame, extra);
    }
}

impl NetEndpoint for EventedEndpoint {
    fn id(&self) -> WorkerId {
        WorkerId(self.me as u16)
    }

    fn num_workers(&self) -> usize {
        self.n
    }

    fn send(&self, to: WorkerId, msg: Message) {
        if to.index() != self.me {
            self.send_frame(to.index(), msg.encoded_len(), msg.is_data_plane(), |b| msg.encode(b));
            return;
        }
        note_traffic(&self.fault, self.me);
        let bytes = (msg.encoded_len() + FRAME_OVERHEAD) as u64;
        self.count_send(bytes);
        self.stats.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        self.stats.msgs_received.fetch_add(1, Ordering::Relaxed);
        let _ = self.inbox_tx.send(msg);
    }

    /// Encodes the shared lists straight into the pooled frame: no list
    /// is copied into a message first.
    fn send_response(&self, to: WorkerId, entries: &[(VertexId, SharedAdj)], req_nanos: u64) {
        debug_assert_ne!(to.index(), self.me, "a worker never pulls a vertex it owns");
        self.send_frame(to.index(), Message::response_len(entries), true, |b| {
            Message::encode_response(entries, req_nanos, b)
        });
    }

    /// Broadcast seals **once**: every destination ring (and any
    /// fault-delayed copy) shares the same pooled buffer. Counters and
    /// fault decisions stay per-link, identical to a send loop.
    fn broadcast(&self, msg: &Message) {
        let bytes = (msg.encoded_len() + FRAME_OVERHEAD) as u64;
        let mut frame: Option<SealedFrame> = None;
        for w in 0..self.n {
            if w == self.me {
                continue;
            }
            note_traffic(&self.fault, self.me);
            self.count_send(bytes);
            let fault = self.fault.as_ref().filter(|_| msg.is_data_plane());
            let Some((extra, dup_lag)) = fault.map_or(CLEAN, |f| f.roll(self.me, w)) else {
                continue;
            };
            let f = frame.get_or_insert_with(|| self.pool.seal(|b| msg.encode(b)));
            if let Some(lag) = dup_lag {
                self.queue_delayed(w, f.clone(), lag);
            }
            self.dispatch(w, f.clone(), extra);
        }
    }

    /// Re-injects a message into the local inbox, bypassing fault
    /// decisions, traffic accounting and the crash schedule: a stashed
    /// message paid all three on its original trip, and a local `Wake`
    /// never crosses the wire.
    fn requeue(&self, msg: Message) {
        let _ = self.inbox_tx.send(msg);
    }

    fn try_recv(&self) -> Option<Message> {
        self.inbox.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn fault_stats(&self) -> Option<&crate::fault::FaultStats> {
        self.fault.as_deref().map(|f| f.stats(self.me))
    }
}

impl Drop for EventedEndpoint {
    fn drop(&mut self) {
        // Stop the loop; it flushes every pending frame (rings and
        // delay heap) before exiting, then the sockets close.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
        if let Some(t) = self.io_thread.take() {
            let _ = t.join();
        }
    }
}
