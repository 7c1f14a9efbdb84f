//! Observability primitives for the G-thinker reproduction.
//!
//! This crate deliberately contains no framework logic and names no
//! metric — only the measurement building blocks the engine crates wire
//! into their hot paths (see `DESIGN.md` §"Observability"). Which
//! histograms a job keeps, per comper or per worker, is declared in the
//! metrics table of `gthinker-core`, one row each.
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

/// Synthetic `tid` used for a worker's main thread: the inbox, the
/// tick and, on worker 0, the master.
pub const TID_MAIN: u32 = 1002;

/// Human-readable thread name for a trace `tid` (compers are their
/// index, service threads use the `TID_*` constants).
pub fn tid_name(tid: u32) -> String {
    match tid {
        TID_MAIN => "main".into(),
        t => format!("comper-{t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_names_are_distinct_and_stable() {
        assert_eq!(tid_name(0), "comper-0");
        assert_eq!(tid_name(7), "comper-7");
        assert_eq!(tid_name(TID_MAIN), "main");
    }
}
