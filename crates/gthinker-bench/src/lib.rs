//! The `paper` binary: every table and figure of the paper's
//! evaluation, and the repository's own side experiments, as one row
//! each of [`experiments::ROWS`].
//!
//! `paper --list` prints the rows, `paper <name> [--scale F]` runs one
//! (at the row's scale unless told otherwise) and `paper all` runs each
//! in a process of its own; see `EXPERIMENTS.md` at the workspace root
//! for the recorded paper-vs-measured comparison. This library holds
//! the rows, the experiment bodies and the formatting helpers they
//! share.
//!
//! **Host note.** The evaluation machine for this reproduction has two
//! vCPUs, where wall-clock time cannot keep falling with thread count.
//! The scalability experiments therefore report, next to
//! measured wall-clock, a **modeled parallel time**: the maximum over
//! workers of that worker's total `compute()` CPU time divided by its
//! comper count. On a host with at least as many cores as compers —
//! and given G-thinker's claim that communication hides inside
//! computation — modeled time converges to wall-clock; on a smaller
//! host it still measures the quantity the paper's speedup tables
//! demonstrate, namely how evenly the scheduler divides mining work.

pub mod experiments;

use gthinker_core::config::JobResult;
use std::time::Duration;

/// Formats a duration compactly (`1.23 s`, `45.6 ms`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    }
}

/// Formats a byte count (`3.5 GB`, `120 MB`, `4.2 KB`).
pub fn fmt_bytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

/// Modeled parallel wall-clock (see the crate docs): max over workers
/// of `compute_nanos / compers`.
pub fn modeled_parallel_time<G>(result: &JobResult<G>, compers_per_worker: usize) -> Duration {
    let busiest = result.metrics.workers.iter().map(|w| w.compute_nanos).max().unwrap_or(0);
    Duration::from_nanos(busiest) / compers_per_worker.max(1) as u32
}

/// Load-balance ratio: busiest worker's compute time over the mean
/// (1.0 = perfectly even).
pub fn load_balance<G>(result: &JobResult<G>) -> f64 {
    let times: Vec<f64> = result.metrics.workers.iter().map(|w| w.compute_nanos as f64).collect();
    let max = times.iter().cloned().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// The value of `--scale F` in `args`, `None` when the option is
/// absent (the row's own scale applies then).
pub fn scale_arg(args: &[String]) -> Result<Option<f64>, String> {
    let Some(i) = args.iter().position(|a| a == "--scale") else { return Ok(None) };
    match args.get(i + 1).map(|v| v.parse::<f64>()) {
        Some(Ok(f)) if f > 0.0 && f.is_finite() => Ok(Some(f)),
        _ => Err("--scale takes a positive number".to_string()),
    }
}

/// Prints a horizontal rule sized for our tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50 s");
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250 µs");
        assert_eq!(fmt_bytes(2048), "2.0 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.00 GB");
        assert_eq!(fmt_bytes(10), "10 B");
    }

    #[test]
    fn scale_default_when_unset() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(scale_arg(&args("")), Ok(None));
        assert_eq!(scale_arg(&args("--smoke")), Ok(None));
        assert_eq!(scale_arg(&args("--smoke --scale 0.25")), Ok(Some(0.25)));
        for bad in ["--scale", "--scale x", "--scale 0", "--scale -1", "--scale inf"] {
            assert!(scale_arg(&args(bad)).is_err(), "{bad}");
        }
    }
}
