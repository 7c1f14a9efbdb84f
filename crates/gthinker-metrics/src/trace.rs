//! Chrome `trace_event` JSON export.
//!
//! Emits the JSON-array flavour of the Trace Event Format that
//! chrome://tracing and Perfetto load directly: span events as
//! `ph:"X"` (complete) with `ts`/`dur` in microseconds, instants as
//! `ph:"i"` with process scope, plus `ph:"M"` metadata records naming
//! each process (worker) and thread (comper / service thread). `pid`
//! is the worker index, `tid` the comper index or a `TID_*` constant.

use crate::ring::{Event, EventKind};
use crate::tid_name;
use std::collections::BTreeSet;
use std::io::{self, Write};

/// Shifts every event by a per-worker clock offset (nanoseconds,
/// saturating at zero), moving the events onto another worker's
/// timeline. Cluster trace stitching applies each remote worker's
/// estimated offset so all processes share the master's clock.
pub fn shift_events(events: &mut [Event], offset_nanos: i64) {
    if offset_nanos == 0 {
        return;
    }
    for e in events.iter_mut() {
        e.ts = e.ts.saturating_add_signed(offset_nanos);
    }
}

/// Writes all workers' event timelines as one Chrome trace JSON array.
/// `events` is indexed by worker; each worker's events become one
/// `pid` row group in the viewer.
pub fn write_chrome_trace<W: Write>(mut w: W, events: &[Vec<Event>]) -> io::Result<()> {
    writeln!(w, "[")?;
    let mut first = true;
    let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            writeln!(w, ",")
        }
    };

    for (pid, worker_events) in events.iter().enumerate() {
        // Metadata: name the process and every thread that appears.
        sep(&mut w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"worker-{pid}\"}}}}"
        )?;
        let tids: BTreeSet<u32> = worker_events.iter().map(|e| e.tid).collect();
        for tid in tids {
            sep(&mut w, &mut first)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid_name(tid)
            )?;
        }

        for e in worker_events {
            sep(&mut w, &mut first)?;
            // Chrome expects microseconds; keep fractional precision so
            // sub-µs spans stay visible.
            let ts = e.ts as f64 / 1e3;
            let args = match e.kind.arg_key() {
                Some(k) => format!("{{\"{k}\":{}}}", e.arg),
                None => "{}".to_string(),
            };
            if e.kind.is_span() {
                let dur = e.dur as f64 / 1e3;
                write!(
                    w,
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{},\
                     \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}",
                    e.kind.name(),
                    e.tid
                )?;
            } else {
                write!(
                    w,
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{},\
                     \"ts\":{ts:.3},\"s\":\"p\",\"args\":{args}}}",
                    e.kind.name(),
                    e.tid
                )?;
            }
            // Cluster steal halves additionally emit Chrome flow events
            // keyed by the (victim, seq) flow id: the viewer draws an
            // arrow from the victim's send to the thief's receive.
            if matches!(e.kind, EventKind::StealSend | EventKind::StealRecv) {
                sep(&mut w, &mut first)?;
                let (ph, bp) = match e.kind {
                    EventKind::StealSend => ("s", ""),
                    _ => ("f", "\"bp\":\"e\","),
                };
                write!(
                    w,
                    "{{\"ph\":\"{ph}\",{bp}\"cat\":\"steal\",\"name\":\"steal_flow\",\
                     \"id\":{},\"pid\":{pid},\"tid\":{},\"ts\":{ts:.3}}}",
                    e.arg, e.tid
                )?;
            }
        }
    }
    writeln!(w, "\n]")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    fn sample_events() -> Vec<Vec<Event>> {
        vec![
            vec![
                Event { ts: 1_000, dur: 500, tid: 0, arg: 0, kind: EventKind::Compute },
                Event { ts: 2_000, dur: 0, tid: 1, arg: 3, kind: EventKind::Steal },
            ],
            vec![Event { ts: 1_500, dur: 200, tid: 2, arg: 7, kind: EventKind::GcPass }],
        ]
    }

    #[test]
    fn trace_has_required_keys_and_balanced_json() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        for key in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // One X span, one i instant, one gc span on a comper's row, plus
        // metadata rows.
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"name\":\"compute\""));
        assert!(s.contains("\"name\":\"gc_pass\""));
        assert!(s.contains("\"args\":{\"tasks\":3}"));
        assert!(s.contains("\"args\":{\"evicted\":7}"));
        assert!(s.contains("\"name\":\"worker-0\""));
        assert!(s.contains("\"name\":\"worker-1\""));
        assert!(s.contains("\"name\":\"comper-2\""));
        // Braces and brackets balance (cheap well-formedness check —
        // CI additionally runs a real JSON parser over CLI output).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn steal_flow_events_pair_up_and_offsets_shift() {
        let flow = (2u64 << 32) | 7; // victim 2, seq 7
        let mut events = vec![
            vec![Event { ts: 1_000, dur: 0, tid: 3, arg: flow, kind: EventKind::StealSend }],
            vec![Event {
                ts: 500,
                dur: 0,
                tid: crate::TID_MAIN,
                arg: flow,
                kind: EventKind::StealRecv,
            }],
        ];
        // Worker 1's clock runs 2µs behind the master's.
        shift_events(&mut events[1], 2_000);
        assert_eq!(events[1][0].ts, 2_500);
        // Negative offsets saturate instead of wrapping.
        let mut early = [Event { ts: 100, dur: 0, tid: 0, arg: 0, kind: EventKind::Steal }];
        shift_events(&mut early, -500);
        assert_eq!(early[0].ts, 0);

        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &events).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("\"name\":\"steal_send\""), "{s}");
        assert!(s.contains("\"name\":\"steal_recv\""), "{s}");
        // One flow start and one flow finish, same id.
        assert!(
            s.contains(&format!(
                "\"ph\":\"s\",\"cat\":\"steal\",\"name\":\"steal_flow\",\"id\":{flow}"
            )),
            "{s}"
        );
        assert!(
            s.contains(&format!(
                "\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"steal\",\"name\":\"steal_flow\",\"id\":{flow}"
            )),
            "{s}"
        );
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn empty_trace_is_valid_array() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s.split_whitespace().collect::<String>(), "[]");
    }
}
