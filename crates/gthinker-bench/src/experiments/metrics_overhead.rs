//! Metrics overhead benchmark (DESIGN.md §"Observability").
//!
//! Measures what the observability layer costs on a pull-heavy workload
//! of many tiny tasks — the worst case for per-task instrumentation,
//! since every task adds a fixed number of histogram records and
//! timestamp reads on top of very little real work.
//!
//! Three runtime modes:
//! * **base** — histograms on, event tracing off (`trace_capacity =
//!   0`, the default);
//! * **traced** — a 65 536-event ring per worker, as `--trace-out`
//!   configures it;
//! * **reported** — tracing off but periodic cluster telemetry reports
//!   on at a 5 ms interval (far tighter than the 1 s default the CLI
//!   live views use), each report sealing and shipping a full counter/
//!   histogram snapshot to the master. Its delta vs base is the
//!   report-interval ablation written to `BENCH_telemetry.json` and
//!   held to a noise-widened 3% budget.
//!
//! Ring tracing is an opt-in deep-diagnostic mode (`--trace-out`); its
//! cost is measured and reported but only sanity-bounded, since a
//! 65 536-event timeline of µs-scale tasks is not meant to be free.
//!
//! `cargo run -p gthinker-bench --release -- metrics_overhead [--scale f]`

use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_net::router::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

/// Below this scale a run is tens of milliseconds and three repeats:
/// the percentages are host noise, so they are printed and written but
/// not held to their bounds (CI runs at 0.34).
const MIN_ASSERTED_SCALE: f64 = 0.3;

struct RunStats {
    /// Process CPU time (user + system) consumed by the run — the
    /// primary metric. Wall-clock on a shared/oversubscribed host
    /// swings by ±10% between identical runs, far above the 3% budget
    /// being measured; CPU time isolates the work this process did.
    cpu_ms: f64,
    wall_ms: f64,
    tasks: u64,
    triangles: u64,
    events: usize,
}

/// Cumulative process CPU time (all threads, user + system) in
/// milliseconds.
fn process_cpu_ms() -> f64 {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: timespec is plain data filled in by the kernel.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

fn run_once(g: &Graph, trace_capacity: usize, report_interval: Option<Duration>) -> RunStats {
    let mut cfg = JobConfig::cluster(2, 4);
    // Instant links and a tight sync interval keep the run CPU-bound
    // and minimize termination-detection quantization — both shrink the
    // baseline, making the overhead percentage *stricter*.
    cfg.link = LinkConfig::INSTANT;
    cfg.sync_interval = Duration::from_millis(2);
    cfg.trace_capacity = trace_capacity;
    cfg.report_interval = report_interval;
    let cpu0 = process_cpu_ms();
    let start = std::time::Instant::now();
    let r = run_job(Arc::new(TriangleApp), g, &cfg).expect("job runs");
    RunStats {
        cpu_ms: process_cpu_ms() - cpu0,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        tasks: r.total_tasks(),
        triangles: r.global,
        events: r.metrics.workers.iter().map(|w| w.events.len()).sum(),
    }
}

/// Min-by-CPU across runs. Scheduling noise (descheduling mid-spin,
/// cache pollution from neighbours) only *adds* CPU time, so the
/// minimum is the closest observable to the clean cost of each mode —
/// medians still carried several percent of host noise.
fn best(runs: &mut Vec<RunStats>) -> RunStats {
    runs.sort_by(|a, b| a.cpu_ms.total_cmp(&b.cpu_ms));
    runs.remove(0)
}

/// Within-invocation instability: how far the median repeat sits above
/// the minimum, as a percentage. On a quiet host this is well under a
/// percent; on an oversubscribed one it reaches double digits, and any
/// cross-build comparison inherits at least that much uncertainty.
fn noise_pct(sorted: &[RunStats], min: &RunStats) -> f64 {
    let mid = &sorted[sorted.len() / 2];
    (mid.cpu_ms - min.cpu_ms) / min.cpu_ms * 100.0
}

/// Interleaved A/B/C runs: one warmup, then alternating
/// base/traced/reported triples so thermal and cache drift hit every
/// mode alike. Returns the per-mode minima plus the base repeats'
/// noise estimate.
fn run_modes(g: &Graph, reps: usize) -> (RunStats, RunStats, RunStats, f64) {
    let _ = run_once(g, 0, None);
    let mut bases = Vec::with_capacity(reps);
    let mut traceds = Vec::with_capacity(reps);
    let mut reporteds = Vec::with_capacity(reps);
    for _ in 0..reps {
        bases.push(run_once(g, 0, None));
        traceds.push(run_once(g, 65_536, None));
        reporteds.push(run_once(g, 0, Some(Duration::from_millis(5))));
    }
    let base = best(&mut bases);
    let noise = noise_pct(&bases, &base);
    (base, best(&mut traceds), best(&mut reporteds), noise)
}

pub fn run(scale: f64) {
    let reps = ((7.0 * scale).round() as usize).clamp(3, 15);
    let n = ((60_000.0 * scale) as usize).max(5_000);

    println!("Metrics overhead — triangle counting, many tiny pull-heavy tasks\n");
    println!("ba({n}, 8), 2 workers x 4 compers, instant links; {reps} interleaved rep pair(s)\n");
    let g = gen::barabasi_albert(n, 8, 42);

    let (base, traced, reported, noise) = run_modes(&g, reps);
    assert_eq!(base.triangles, traced.triangles, "tracing changed the answer!");
    assert_eq!(base.tasks, traced.tasks, "tracing changed the task count!");
    assert_eq!(base.triangles, reported.triangles, "reporting changed the answer!");
    assert_eq!(base.tasks, reported.tasks, "reporting changed the task count!");

    let traced_pct = (traced.cpu_ms - base.cpu_ms) / base.cpu_ms * 100.0;
    let reported_pct = (reported.cpu_ms - base.cpu_ms) / base.cpu_ms * 100.0;
    println!("{:>8} | {:>10} {:>10} {:>9} {:>9}", "mode", "cpu ms", "wall ms", "tasks", "events");
    crate::rule(55);
    for (name, s) in [("base", &base), ("traced", &traced), ("reported", &reported)] {
        println!(
            "{:>8} | {:>10.1} {:>10.1} {:>9} {:>9}",
            name, s.cpu_ms, s.wall_ms, s.tasks, s.events
        );
    }
    println!(
        "\ntriangles = {}; opt-in ring tracing costs {traced_pct:+.2}% of CPU \
         ({} events kept across both workers)",
        base.triangles, traced.events
    );
    // Tracing is a deep-diagnostic mode, not part of the 3% budget;
    // the loose bound just catches pathological regressions (a
    // blocking push, an accidental allocation per event).
    let asserted = scale >= MIN_ASSERTED_SCALE;
    assert!(
        !asserted || traced_pct < 25.0,
        "ring tracing cost looks pathological (measured {traced_pct:+.2}%)"
    );
    // The 3% budget is widened by the invocation's own measured
    // instability: no comparison of two runs can be more precise than
    // the host's repeat-to-repeat spread. On a quiet machine `noise` ≈ 0
    // and this is a strict 3%.
    let threshold = 3.0 + noise;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"metrics_overhead\",\n",
            "  \"workload\": \"triangle counting on ba({}, 8), 2x4 compers, instant links\",\n",
            "  \"reps\": {},\n",
            "  \"base\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}, \"tasks\": {}, ",
            "\"triangles\": {}}},\n",
            "  \"traced\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}, \"tasks\": {}, ",
            "\"events\": {}}},\n",
            "  \"tracing_overhead_pct\": {:.2},\n",
            "  \"tracing_note\": \"opt-in --trace-out diagnostic mode, ",
            "outside the 3% budget\",\n",
            "  \"host_noise_pct\": {:.2},\n",
            "  \"budget\": {{\"pct\": 3.0, \"applies_to\": \"reporting_overhead_pct (BENCH_telemetry.json)\", ",
            "\"widened_by_host_noise_to\": {:.2}}}\n",
            "}}\n"
        ),
        n,
        reps,
        base.cpu_ms,
        base.wall_ms,
        base.tasks,
        base.triangles,
        traced.cpu_ms,
        traced.wall_ms,
        traced.tasks,
        traced.events,
        traced_pct,
        noise,
        threshold,
    );
    std::fs::write("BENCH_metrics.json", &json).expect("write BENCH_metrics.json");
    println!("\nwrote BENCH_metrics.json");

    // Report-interval ablation: periodic 5 ms telemetry reports vs no
    // reports, held to the noise-widened 3% budget. 5 ms is 200 snapshot
    // seals per worker per second — two orders of magnitude above the
    // CLI live views' 1 s default — so passing here bounds any real
    // deployment's reporting cost well under the budget.
    println!(
        "telemetry reports every 5ms vs none: {reported_pct:+.2}% CPU \
         (budget 3% + {noise:.2}% host noise)"
    );
    assert!(
        !asserted || reported_pct < threshold,
        "periodic telemetry reports must cost < 3% CPU vs no reports \
         (measured {reported_pct:+.2}%, host noise {noise:.2}%)"
    );
    let telemetry_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"telemetry_report_interval\",\n",
            "  \"workload\": \"triangle counting on ba({}, 8), 2x4 compers, instant links\",\n",
            // Always true since the `metrics` cargo feature went; the key
            // stays until this file's schema moves into `benchmark/`.
            "  \"compiled_with_metrics\": true,\n",
            "  \"reps\": {},\n",
            "  \"report_interval_ms\": 5,\n",
            "  \"base\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}, \"tasks\": {}}},\n",
            "  \"reported\": {{\"cpu_ms\": {:.1}, \"wall_ms\": {:.1}, \"tasks\": {}}},\n",
            "  \"reporting_overhead_pct\": {:.2},\n",
            "  \"host_noise_pct\": {:.2},\n",
            "  \"budget\": {{\"pct\": 3.0, \"applies_to\": \"reporting_overhead_pct\", ",
            "\"widened_by_host_noise_to\": {:.2}}},\n",
            "  \"note\": \"5ms is ~200x tighter than the CLI live views' 1s default; ",
            "each report seals a full counter+histogram snapshot\"\n",
            "}}\n"
        ),
        n,
        reps,
        base.cpu_ms,
        base.wall_ms,
        base.tasks,
        reported.cpu_ms,
        reported.wall_ms,
        reported.tasks,
        reported_pct,
        noise,
        threshold,
    );
    std::fs::write("BENCH_telemetry.json", &telemetry_json).expect("write BENCH_telemetry.json");
    println!("wrote BENCH_telemetry.json");
}
