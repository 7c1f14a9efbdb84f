//! The benchmark's own span recorder.
//!
//! Spans are recorded by the driver around what it does to the program
//! — set-up steps, every process it spawns, every probe — never inside
//! the program. They stay in memory and are written once, as Chrome
//! `trace_event` JSON, when the benchmark ends. Untraced runs use a
//! disabled recorder, so end-to-end numbers carry no recording cost.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
    /// Trace row: 0 for the driver, otherwise the OS pid the span is about.
    pub row: u32,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn us_at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its id (0 when disabled — ids
    /// from a disabled recorder are only ever passed back to it).
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
        row: u32,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span { name: name.to_string(), parent, start_us, end_us, row });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_us();
        self.add(name, parent, now, now, 0)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_us();
        if let Some(s) = self.spans.get_mut(id).filter(|_| self.enabled) {
            s.end_us = now;
        }
    }

    /// A span's duration minus the part of it its children cover
    /// (children may overlap each other: the processes of one job run
    /// side by side).
    pub fn self_time_us(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        (s.end_us - s.start_us) - covered
    }

    /// Chrome `trace_event` JSON: one complete ("X") event per span,
    /// with its id, parent and self time in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(f64::from(s.row))),
                    ("tid", Json::Num(0.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", Json::num(s.parent.map(|p| p as f64))),
                            ("self_us", Json::Num(self.self_time_us(id))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let job = r.add("job", None, 0.0, 100.0, 0);
        // Two overlapping processes and one that sticks out of the parent.
        r.add("proc.run", Some(job), 10.0, 60.0, 1);
        r.add("proc.run", Some(job), 40.0, 80.0, 2);
        r.add("proc.exit", Some(job), 90.0, 120.0, 2);
        let leaf = r.add("leaf", None, 5.0, 7.5, 0);
        assert_eq!(r.self_time_us(job), 100.0 - 70.0 - 10.0);
        assert_eq!(r.self_time_us(leaf), 2.5);
        // A grandchild does not count against the grandparent.
        r.add("inner", Some(1), 0.0, 100.0, 1);
        assert_eq!(r.self_time_us(job), 20.0);
        assert_eq!(r.self_time_us(1), 0.0);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("x", None);
        r.end(id);
        r.add("y", Some(id), 0.0, 1.0, 0);
        assert!(r.chrome_trace().get("traceEvents").unwrap().as_arr().is_empty());
    }

    #[test]
    fn trace_events_carry_parent_and_self_time() {
        let mut r = Recorder::new(true);
        let a = r.add("a", None, 0.0, 10.0, 0);
        r.add("b", Some(a), 2.0, 6.0, 7);
        let t = r.chrome_trace();
        let ev = t.get("traceEvents").unwrap().as_arr();
        assert_eq!(ev[0].path("args.self_us").and_then(Json::as_f64), Some(6.0));
        assert_eq!(ev[0].path("args.parent"), Some(&Json::Null));
        assert_eq!(ev[1].path("args.parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(ev[1].get("pid").and_then(Json::as_f64), Some(7.0));
    }
}
