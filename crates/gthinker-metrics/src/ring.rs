//! Bounded per-worker event timeline.
//!
//! [`EventRing`] is a fixed-capacity, overwrite-oldest buffer of
//! timestamped scheduler/cache [`Event`]s. Writers claim a slot with
//! one `fetch_add` on the head counter and then take that single
//! slot's mutex — writers on different slots never contend, and a full
//! ring silently recycles the oldest entries instead of growing or
//! blocking. Capacity 0 disables recording entirely; call sites guard
//! the timestamp computation with [`EventRing::enabled`] so a disabled
//! ring costs one branch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What happened. Span kinds carry a duration; instant kinds are
/// points in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A comper ran one `compute()` streak on a task (span).
    Compute,
    /// A comper parked on the scheduler event count (span).
    Park,
    /// A comper stole tasks from a sibling; `arg` = tasks taken.
    Steal,
    /// A comper spilled a batch to `L_file`; `arg` = tasks spilled.
    Spill,
    /// A comper refilled its queue; `arg` = tasks obtained.
    Refill,
    /// A cache GC pass that evicted something; `arg` = evictions (span).
    GcPass,
    /// The receiver answered one pull batch; `arg` = vertices (span).
    Respond,
    /// The worker's tick thread first observed local quiescence.
    QuiesceEnter,
    /// The worker left quiescence (new work arrived).
    QuiesceExit,
    /// A victim sealed and sent one cluster steal batch; `arg` is the
    /// `(victim, seq)` flow key (victim in the high 32 bits). Paired
    /// with the thief's [`EventKind::StealRecv`] as a Chrome flow
    /// event, so cross-process steals draw as arrows in the viewer.
    StealSend,
    /// A thief applied one cluster steal batch; `arg` is the same
    /// `(victim, seq)` flow key as the matching [`EventKind::StealSend`].
    StealRecv,
    /// A termination confirmation wave: the master sent the probe, or a
    /// worker's receiver answered it; `arg` = the wave's round number.
    Probe,
    /// The termination verdict: the master broadcast it, or a worker's
    /// receiver saw it arrive.
    Terminate,
}

impl EventKind {
    /// Short stable name used in trace output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::Park => "park",
            EventKind::Steal => "steal",
            EventKind::Spill => "spill",
            EventKind::Refill => "refill",
            EventKind::GcPass => "gc_pass",
            EventKind::Respond => "respond",
            EventKind::QuiesceEnter => "quiesce_enter",
            EventKind::QuiesceExit => "quiesce_exit",
            EventKind::StealSend => "steal_send",
            EventKind::StealRecv => "steal_recv",
            EventKind::Probe => "probe",
            EventKind::Terminate => "terminate",
        }
    }

    /// Stable one-byte code used by the metrics-report wire encoding.
    pub fn code(self) -> u8 {
        match self {
            EventKind::Compute => 0,
            EventKind::Park => 1,
            EventKind::Steal => 2,
            EventKind::Spill => 3,
            EventKind::Refill => 4,
            EventKind::GcPass => 5,
            EventKind::Respond => 6,
            EventKind::QuiesceEnter => 7,
            EventKind::QuiesceExit => 8,
            EventKind::StealSend => 9,
            EventKind::StealRecv => 10,
            EventKind::Probe => 11,
            EventKind::Terminate => 12,
        }
    }

    /// Inverse of [`EventKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            0 => EventKind::Compute,
            1 => EventKind::Park,
            2 => EventKind::Steal,
            3 => EventKind::Spill,
            4 => EventKind::Refill,
            5 => EventKind::GcPass,
            6 => EventKind::Respond,
            7 => EventKind::QuiesceEnter,
            8 => EventKind::QuiesceExit,
            9 => EventKind::StealSend,
            10 => EventKind::StealRecv,
            11 => EventKind::Probe,
            12 => EventKind::Terminate,
            _ => return None,
        })
    }

    /// Spans render as Chrome `ph:"X"` complete events; the rest as
    /// `ph:"i"` instants.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Compute | EventKind::Park | EventKind::GcPass | EventKind::Respond
        )
    }

    /// JSON key under which `arg` is reported (None = no payload).
    pub fn arg_key(self) -> Option<&'static str> {
        match self {
            EventKind::Steal | EventKind::Spill | EventKind::Refill => Some("tasks"),
            EventKind::GcPass => Some("evicted"),
            EventKind::Respond => Some("vertices"),
            EventKind::StealSend | EventKind::StealRecv => Some("flow"),
            EventKind::Probe => Some("round"),
            _ => None,
        }
    }
}

/// One timestamped event. `ts`/`dur` are nanoseconds on the
/// process-wide [`crate::now_nanos`] timeline; `tid` is the comper
/// index or a `TID_*` service-thread constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Start time (nanoseconds since the metrics epoch).
    pub ts: u64,
    /// Duration for span kinds, 0 for instants.
    pub dur: u64,
    /// Emitting thread (comper index or `TID_*`).
    pub tid: u32,
    /// Kind-specific payload (see [`EventKind::arg_key`]).
    pub arg: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Fixed-capacity, overwrite-oldest concurrent event buffer.
pub struct EventRing {
    slots: Box<[Mutex<Option<Event>>]>,
    head: AtomicUsize,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events (0 = off).
    pub fn new(capacity: usize) -> Self {
        EventRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
        }
    }

    /// Whether pushes will be kept. Call sites use this to skip
    /// clock reads when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Records an event, overwriting the oldest when full.
    #[inline]
    pub fn push(&self, ev: Event) {
        if self.slots.is_empty() {
            return;
        }
        let i = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[i].lock().unwrap() = Some(ev);
    }

    /// Events currently retained, sorted by start time.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.slots.iter().filter_map(|s| *s.lock().unwrap()).collect();
        out.sort_by_key(|e| e.ts);
        out
    }

    /// Events lost to overwrite-oldest recycling: total pushes
    /// beyond capacity. Nonzero means [`EventRing::snapshot`] is a
    /// truncated timeline.
    pub fn dropped(&self) -> u64 {
        let pushes = self.head.load(Ordering::Relaxed);
        pushes.saturating_sub(self.slots.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> Event {
        Event { ts, dur: 0, tid: 0, arg: 0, kind: EventKind::Steal }
    }

    #[test]
    fn ring_overwrites_oldest_and_sorts() {
        let r = EventRing::new(4);
        assert!(r.enabled());
        assert_eq!(r.dropped(), 0);
        for ts in [5u64, 1, 9, 3, 7, 2] {
            r.push(ev(ts));
        }
        let snap = r.snapshot();
        // 6 pushes into 4 slots: the first two (ts 5, 1) were recycled.
        assert_eq!(snap.len(), 4);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = snap.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 7, 9]);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            EventKind::Compute,
            EventKind::Park,
            EventKind::Steal,
            EventKind::Spill,
            EventKind::Refill,
            EventKind::GcPass,
            EventKind::Respond,
            EventKind::QuiesceEnter,
            EventKind::QuiesceExit,
            EventKind::StealSend,
            EventKind::StealRecv,
            EventKind::Probe,
            EventKind::Terminate,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EventKind::from_code(200), None);
    }

    #[test]
    fn zero_capacity_ring_is_disabled() {
        let r = EventRing::new(0);
        assert!(!r.enabled());
        r.push(ev(1));
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn span_and_arg_taxonomy() {
        assert!(EventKind::Compute.is_span());
        assert!(EventKind::Park.is_span());
        assert!(!EventKind::Steal.is_span());
        assert!(!EventKind::QuiesceEnter.is_span());
        assert_eq!(EventKind::Steal.arg_key(), Some("tasks"));
        assert_eq!(EventKind::GcPass.arg_key(), Some("evicted"));
        assert_eq!(EventKind::Park.arg_key(), None);
    }
}
