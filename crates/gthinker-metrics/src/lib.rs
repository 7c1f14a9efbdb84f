//! Observability primitives for the G-thinker reproduction.
//!
//! This crate deliberately contains no framework logic — only the
//! measurement building blocks the engine crates wire into their hot
//! paths (see `DESIGN.md` §"Observability"):
//!
//! * [`LogHistogram`] — allocation-free latency histograms with
//!   power-of-2 (HDR-style) buckets over nanoseconds. Recording is one
//!   relaxed atomic add on the bucket plus one on the running sum;
//!   snapshots are plain loads, so per-comper histograms merge
//!   lock-free at snapshot time.
//! * [`EventRing`] — a bounded, overwrite-oldest ring of timestamped
//!   scheduler/cache [`Event`]s (steal, spill, park, GC pass,
//!   quiescence edges…), dumpable as Chrome `trace_event` JSON via
//!   [`trace::write_chrome_trace`] for chrome://tracing / Perfetto.
//! * [`now_nanos`] — a process-wide monotonic clock all workers of the
//!   simulated cluster share, so cross-worker event timestamps are
//!   directly comparable in one trace.

pub mod clock;
pub mod hist;
pub mod ring;
pub mod trace;

pub use clock::now_nanos;
pub use hist::{HistSnapshot, LogHistogram, NUM_BUCKETS};
pub use ring::{Event, EventKind, EventRing};

/// Synthetic `tid` used for a worker's receiver thread in traces.
pub const TID_RECEIVER: u32 = 1000;
/// Synthetic `tid` used for a worker's GC thread in traces.
pub const TID_GC: u32 = 1001;
/// Synthetic `tid` used for a worker's main (tick/master) thread.
pub const TID_MAIN: u32 = 1002;
/// Responder thread `r` appears as `TID_RESPONDER_BASE + r`.
pub const TID_RESPONDER_BASE: u32 = 1100;

/// Human-readable thread name for a trace `tid` (compers are their
/// index, service threads use the `TID_*` constants).
pub fn tid_name(tid: u32) -> String {
    match tid {
        TID_RECEIVER => "receiver".into(),
        TID_GC => "gc".into(),
        TID_MAIN => "main".into(),
        t if t >= TID_RESPONDER_BASE => format!("responder-{}", t - TID_RESPONDER_BASE),
        t => format!("comper-{t}"),
    }
}

/// The latency histograms one comper maintains. All three record
/// nanoseconds; merging across a worker's compers happens on the
/// snapshots, never on the live atomics.
#[derive(Default)]
pub struct ComperHists {
    /// Wall time per `compute()` call (the monotonic clock is a vDSO
    /// read; the thread-CPU clock is a system call and is read per
    /// window of calls, for the `compute_nanos` counter).
    pub compute: LogHistogram,
    /// End-to-end task latency: spawn (`Task::new`) → final iteration,
    /// including every pull wait and queue/spill residence in between.
    pub e2e: LogHistogram,
    /// Duration of each park on the scheduler event count.
    pub park: LogHistogram,
}

impl ComperHists {
    /// Fresh, empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock-free point-in-time copy.
    pub fn snapshot(&self) -> ComperHistSnapshot {
        ComperHistSnapshot {
            compute: self.compute.snapshot(),
            e2e: self.e2e.snapshot(),
            park: self.park.snapshot(),
        }
    }
}

/// Plain-data snapshot of a [`ComperHists`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComperHistSnapshot {
    /// Per-`compute()` wall latency.
    pub compute: HistSnapshot,
    /// Spawn→finish task latency.
    pub e2e: HistSnapshot,
    /// Park durations.
    pub park: HistSnapshot,
}

impl ComperHistSnapshot {
    /// Merges another comper's snapshot into this one (bucket-wise).
    pub fn merge(&mut self, other: &ComperHistSnapshot) {
        self.compute.merge(&other.compute);
        self.e2e.merge(&other.e2e);
        self.park.merge(&other.park);
    }
}

/// Worker-level instrumentation shared by the receiver, responder and
/// GC threads: request round-trip and responder-drain histograms plus
/// the event ring the whole worker appends to.
pub struct WorkerMetrics {
    /// Pull round-trip time, recorded once per `VertexResponse` batch
    /// at the requesting worker's receiver (send → install).
    pub pull_rtt: LogHistogram,
    /// Responder backlog drain time: receiver dispatch → response sent.
    pub responder_drain: LogHistogram,
    /// Bounded scheduler/cache event timeline (empty capacity = off).
    pub ring: EventRing,
}

impl WorkerMetrics {
    /// Creates worker metrics; `trace_capacity` is the event-ring size
    /// (0 disables event recording entirely).
    pub fn new(trace_capacity: usize) -> Self {
        WorkerMetrics {
            pull_rtt: LogHistogram::new(),
            responder_drain: LogHistogram::new(),
            ring: EventRing::new(trace_capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_names_are_distinct_and_stable() {
        assert_eq!(tid_name(0), "comper-0");
        assert_eq!(tid_name(7), "comper-7");
        assert_eq!(tid_name(TID_RECEIVER), "receiver");
        assert_eq!(tid_name(TID_GC), "gc");
        assert_eq!(tid_name(TID_MAIN), "main");
        assert_eq!(tid_name(TID_RESPONDER_BASE + 2), "responder-2");
    }

    #[test]
    fn comper_snapshot_merge_adds_counts() {
        let a = ComperHists::new();
        let b = ComperHists::new();
        a.compute.record(100);
        b.compute.record(1_000_000);
        b.e2e.record(5);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.compute.count(), 2);
        assert_eq!(s.e2e.count(), 1);
    }
}
