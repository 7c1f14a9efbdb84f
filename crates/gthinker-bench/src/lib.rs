//! Shared harness utilities for the benchmark binaries that regenerate
//! the paper's tables and figures.
//!
//! Each table/figure has a dedicated binary under `src/bin/`; see
//! `EXPERIMENTS.md` at the workspace root for the experiment index and
//! the recorded paper-vs-measured comparison.
//!
//! **Host note.** The evaluation machine for this reproduction may have
//! a single CPU core, where wall-clock time cannot decrease with
//! thread count. The scalability harnesses therefore report, next to
//! measured wall-clock, a **modeled parallel time**: the maximum over
//! workers of that worker's total `compute()` CPU time divided by its
//! comper count. On a host with at least as many cores as compers —
//! and given G-thinker's claim that communication hides inside
//! computation — modeled time converges to wall-clock; on a smaller
//! host it still measures the quantity the paper's speedup tables
//! demonstrate, namely how evenly the scheduler divides mining work.

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

/// Reads the dataset scale factor from `--scale <f>` argv or the
/// `GTHINKER_SCALE` environment variable (falling back to `default`).
pub fn scale_from_args(default: f64) -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    std::env::var("GTHINKER_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
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
        std::env::remove_var("GTHINKER_SCALE");
        assert_eq!(scale_from_args(0.5), 0.5);
    }
}
