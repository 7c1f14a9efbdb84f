//! Cluster networking for the G-thinker reproduction.
//!
//! The paper runs one worker process per machine over GigE. This crate
//! abstracts the interconnect behind a [`Transport`] / [`NetEndpoint`]
//! trait pair with two interchangeable backends:
//!
//! * [`Router`] / [`NetHandle`] — the **sim** backend: every worker in
//!   one process, with an optional latency + bandwidth model
//!   ([`LinkConfig`]) under which messages on a directed link serialize
//!   and arrive late, reproducing the communication costs of Table IV.
//! * [`TcpTransport`] — the **tcp** backend: one worker per OS
//!   process, messages carried as versioned, CRC-trailed [`frame`]s
//!   over a full mesh of sockets built from a [`ClusterManifest`].
//!   [`tcp`] is the rendezvous (manifest, hello, generations, the
//!   persistent [`tcp::MeshAcceptor`]); the data plane
//!   ([`EventedEndpoint`]) drives every socket from a single
//!   `poll(2)` I/O thread with pooled zero-copy frame buffers
//!   ([`pool`]) and vectored, coalesced writes.
//!
//! Shared across both: [`Message`] (batched vertex pulls, work-stealing
//! transfers, progress and aggregator traffic) with an exact binary
//! codec and [`Message::encoded_len`]; [`RequestBatcher`] (sender-side
//! batching, desirability 5 in §III); and [`FaultConfig`] /
//! [`FaultRuntime`](fault::FaultRuntime) — seeded, deterministic fault
//! injection (drops, duplicates, reorder jitter, latency spikes, and on
//! the sim backend scheduled crashes) used by the chaos tests.
//!
//! Byte and message counters make the communication volume observable,
//! which the benches report alongside wall-clock time.

pub mod batch;
pub mod evented;
pub mod fault;
pub mod frame;
pub mod message;
pub mod pool;
pub mod router;
pub mod tcp;
pub mod transport;

pub use batch::{RequestBatcher, DEFAULT_REQUEST_BATCH};
pub use evented::EventedEndpoint;
pub use fault::{CrashSchedule, FaultConfig, FaultStats};
pub use message::Message;
pub use pool::{FramePool, SealedFrame};
pub use router::{LinkConfig, NetHandle, Router};
pub use tcp::{ClusterManifest, TcpTransport};
pub use transport::{NetEndpoint, NetStats, Transport};
