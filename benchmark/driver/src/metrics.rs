//! The `gthinker-core` layer, read from the program's own
//! `--metrics-json`. Every value is looked up by name; a name the file
//! no longer has gives `None` (reported as `null` with a warning), never
//! a crash, so renaming a counter in the program costs one metric, not
//! the benchmark.

use crate::json::Json;

/// Sum of a per-worker field (dotted path) over `workers[]`; `None` if
/// any worker lacks it or there are no workers.
fn sum(m: &Json, field: &str) -> Option<f64> {
    let workers = m.get("workers")?.as_arr();
    if workers.is_empty() {
        return None;
    }
    workers.iter().map(|w| w.path(field)?.as_f64()).sum()
}

/// Largest value of a per-worker field: the slowest worker's view.
fn max(m: &Json, field: &str) -> Option<f64> {
    let values: Option<Vec<f64>> =
        m.get("workers")?.as_arr().iter().map(|w| w.path(field)?.as_f64()).collect();
    values?.into_iter().reduce(f64::max)
}

/// CPU seconds the responder threads account for: samples × mean.
fn responder_s(m: &Json) -> Option<f64> {
    m.get("workers")?
        .as_arr()
        .iter()
        .map(|w| {
            let count = w.path("responder_drain.count")?.as_f64()?;
            let mean = w.path("responder_drain.mean_ns")?.as_f64()?;
            Some(count * mean / 1e9)
        })
        .sum()
}

/// The `core.*` metrics of one traced job. `cpu_s` is the job's CPU
/// time as `wait4` reported it, the base of the two shares.
pub fn core_metrics(m: &Json, cpu_s: f64) -> Vec<(&'static str, &'static str, Option<f64>)> {
    let compute_s = sum(m, "compute_ms").map(|ms| ms / 1e3);
    let share = |part: Option<f64>| part.filter(|_| cpu_s > 0.0).map(|p| p / cpu_s);
    let writev = sum(m, "net_writev_calls");
    vec![
        ("core.job_s", "s", m.get("elapsed_ms").and_then(Json::as_f64).map(|ms| ms / 1e3)),
        ("core.compute_s", "s", compute_s),
        ("core.idle_s", "s", sum(m, "idle_ms").map(|ms| ms / 1e3)),
        // The paper's CPU-bound claim as a number: the share of the CPU
        // the job burned that went into the application's compute().
        ("core.compute_share", "ratio", share(compute_s)),
        // CPU the program's own telemetry attributes to no histogram.
        (
            "core.unattributed_share",
            "ratio",
            share(compute_s.zip(responder_s(m)).map(|(c, r)| c + r)).map(|s| 1.0 - s),
        ),
        ("core.tasks", "count", sum(m, "tasks_finished")),
        ("core.cache_hits", "count", sum(m, "cache.hits")),
        ("core.cache_misses", "count", sum(m, "cache.misses")),
        ("core.net_bytes", "B", sum(m, "net_bytes_sent")),
        (
            "core.frames_per_writev",
            "ratio",
            // No writev at all (one process) is a ratio of 0, not a gap.
            sum(m, "net_frames_coalesced")
                .zip(writev)
                .map(|(f, w)| if w > 0.0 { f / w } else { 0.0 }),
        ),
        ("core.pull_rtt_p50_us", "us", max(m, "pull_rtt.p50_ns").map(|ns| ns / 1e3)),
        ("core.pull_rtt_p99_us", "us", max(m, "pull_rtt.p99_ns").map(|ns| ns / 1e3)),
        (
            "core.steal_tasks",
            "count",
            sum(m, "stolen_tasks").zip(sum(m, "remote_stolen_tasks")).map(|(a, b)| a + b),
        ),
        ("core.spill_bytes", "B", sum(m, "spill_bytes")),
        ("core.parks", "count", sum(m, "parks")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_WORKERS: &str = r#"{
      "elapsed_ms": 2000.0,
      "workers": [
        {"tasks_finished": 10, "compute_ms": 600.0, "idle_ms": 50.0,
         "cache": {"hits": 7, "misses": 3}, "net_bytes_sent": 100,
         "net_writev_calls": 4, "net_frames_coalesced": 10,
         "stolen_tasks": 1, "remote_stolen_tasks": 2, "spill_bytes": 0, "parks": 5,
         "pull_rtt": {"p50_ns": 2000, "p99_ns": 9000},
         "responder_drain": {"count": 100, "mean_ns": 1000000}},
        {"tasks_finished": 12, "compute_ms": 400.0, "idle_ms": 70.0,
         "cache": {"hits": 5, "misses": 1}, "net_bytes_sent": 60,
         "net_writev_calls": 1, "net_frames_coalesced": 5,
         "stolen_tasks": 0, "remote_stolen_tasks": 0, "spill_bytes": 8, "parks": 1,
         "pull_rtt": {"p50_ns": 4000, "p99_ns": 8000},
         "responder_drain": {"count": 100, "mean_ns": 1000000}}
      ]}"#;

    fn value(m: &[(&str, &str, Option<f64>)], name: &str) -> Option<f64> {
        m.iter().find(|(n, _, _)| *n == name).expect("metric listed").2
    }

    #[test]
    fn looks_every_metric_up_by_name() {
        let m = core_metrics(&Json::parse(TWO_WORKERS).unwrap(), 2.0);
        assert_eq!(value(&m, "core.job_s"), Some(2.0));
        assert_eq!(value(&m, "core.compute_s"), Some(1.0));
        assert_eq!(value(&m, "core.idle_s"), Some(0.12));
        assert_eq!(value(&m, "core.compute_share"), Some(0.5));
        assert_eq!(value(&m, "core.unattributed_share"), Some(1.0 - 1.2 / 2.0));
        assert_eq!(value(&m, "core.tasks"), Some(22.0));
        assert_eq!(value(&m, "core.cache_hits"), Some(12.0));
        assert_eq!(value(&m, "core.cache_misses"), Some(4.0));
        assert_eq!(value(&m, "core.net_bytes"), Some(160.0));
        assert_eq!(value(&m, "core.frames_per_writev"), Some(3.0));
        assert_eq!(value(&m, "core.pull_rtt_p50_us"), Some(4.0));
        assert_eq!(value(&m, "core.pull_rtt_p99_us"), Some(9.0));
        assert_eq!(value(&m, "core.steal_tasks"), Some(3.0));
        assert_eq!(value(&m, "core.spill_bytes"), Some(8.0));
        assert_eq!(value(&m, "core.parks"), Some(6.0));
    }

    #[test]
    fn a_missing_name_is_none_not_a_crash() {
        // One worker lost `cache.hits`; `pull_rtt` was renamed everywhere.
        let text = TWO_WORKERS.replacen("\"hits\": 7, ", "", 1).replace("pull_rtt", "pull_latency");
        let m = core_metrics(&Json::parse(&text).unwrap(), 2.0);
        assert_eq!(value(&m, "core.cache_hits"), None);
        assert_eq!(value(&m, "core.cache_misses"), Some(4.0));
        assert_eq!(value(&m, "core.pull_rtt_p50_us"), None);
        assert_eq!(value(&m, "core.tasks"), Some(22.0));

        let empty = core_metrics(&Json::parse("{}").unwrap(), 0.0);
        assert!(empty.iter().all(|(_, _, v)| v.is_none()));
        let no_workers = core_metrics(&Json::parse(r#"{"workers": []}"#).unwrap(), 1.0);
        assert_eq!(value(&no_workers, "core.tasks"), None);
    }
}
