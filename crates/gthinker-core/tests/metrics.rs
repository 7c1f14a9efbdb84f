//! Integration tests for the metrics registry: full snapshots from a
//! live job, lossless histogram merging, and the event timeline.

use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

/// Edge counter that pulls, so cache/network/responder paths all run.
struct EdgeCount;
impl App for EdgeCount {
    type Context = ();
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        let mut t = Task::new(());
        for u in adj.greater_than(v) {
            t.pull(*u);
        }
        if t.has_pulls() {
            env.add_task(t);
        }
    }
    fn compute(&self, _t: &mut Task<()>, f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
        env.aggregate(f.len() as u64);
        false
    }
}

/// At quiescence, merging every comper's e2e histogram loses nothing:
/// the summed bucket counts equal the number of finished tasks, and
/// per-worker histogram counts equal that worker's own counter.
#[test]
fn final_histograms_merge_losslessly() {
    let g = gen::barabasi_albert(2_000, 5, 11);
    let r = run_job(Arc::new(EdgeCount), &g, &JobConfig::cluster(2, 3)).unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let m = &r.metrics;
    for w in &m.workers {
        let merged = w.merged_hists();
        assert_eq!(
            merged.e2e.count(),
            w.tasks_finished,
            "per-worker e2e samples must equal tasks_finished"
        );
        // Per-comper counts sum to the merged count (no bucket lost).
        let per_comper: u64 = w.compers.iter().map(|c| c.e2e.count()).sum();
        assert_eq!(per_comper, merged.e2e.count());
        assert_eq!(merged.compute.count(), w.compute_calls);
    }
    assert_eq!(m.merged_hists().e2e.count(), r.total_tasks());
    // Quantiles of a populated histogram are usable.
    let e2e = m.merged_hists().e2e;
    assert!(e2e.quantile(0.5) <= e2e.quantile(0.99));
    assert!(e2e.quantile(0.99) <= e2e.max_estimate());
}

/// The metrics observer receives full snapshots whose derived progress
/// view is monotone, and mid-run merged histogram counts never exceed
/// the final count (histograms only grow).
#[test]
fn metrics_observer_sees_growing_snapshots() {
    let g = gen::barabasi_albert(3_000, 5, 13);
    let sink = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s = Arc::clone(&sink);
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.sync_interval = Duration::from_millis(5);
    let r = Job::new(Arc::new(EdgeCount), &g, &cfg)
        .observe(move |m| s.lock().push(m.clone()))
        .run()
        .unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let snaps = sink.lock();
    assert!(!snaps.is_empty(), "observer must fire at least once");
    for w in snaps.windows(2) {
        assert!(w[1].total_tasks() >= w[0].total_tasks());
        assert!(w[1].merged_hists().e2e.count() >= w[0].merged_hists().e2e.count());
        assert!(w[1].progress().cache_misses >= w[0].progress().cache_misses);
    }
    let final_count = r.metrics.merged_hists().e2e.count();
    for s in snaps.iter() {
        assert!(s.merged_hists().e2e.count() <= final_count);
        // Mid-run snapshots never include event dumps.
        assert!(s.workers.iter().all(|w| w.events.is_empty()));
    }
}

/// With a non-zero trace capacity the final snapshot carries events,
/// and the Chrome trace export renders them with the required keys.
#[test]
fn trace_capacity_yields_events_and_chrome_json() {
    let g = gen::barabasi_albert(2_000, 5, 17);
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.trace_capacity = 4_096;
    let r = run_job(Arc::new(EdgeCount), &g, &cfg).unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let total_events: usize = r.metrics.workers.iter().map(|w| w.events.len()).sum();
    assert!(total_events > 0, "tracing on but no events recorded");
    // Events within each worker come back time-sorted.
    for w in &r.metrics.workers {
        assert!(w.events.windows(2).all(|e| e[0].ts <= e[1].ts));
    }
    let mut buf = Vec::new();
    r.metrics.write_chrome_trace(&mut buf).unwrap();
    let json = String::from_utf8(buf).unwrap();
    for key in ["\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"", "process_name", "thread_name"] {
        assert!(json.contains(key), "trace JSON missing {key}");
    }
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
}

/// With trace capacity zero (the default) no events are kept, so the
/// hot paths skip all timestamping for spans.
#[test]
fn tracing_disabled_by_default() {
    let g = gen::gnp(300, 0.05, 3);
    let r = run_job(Arc::new(EdgeCount), &g, &JobConfig::single_machine(2)).unwrap();
    assert!(r.metrics.workers.iter().all(|w| w.events.is_empty()));
    // Exports still render (headers only).
    let mut buf = Vec::new();
    r.metrics.write_chrome_trace(&mut buf).unwrap();
    assert!(!r.metrics.to_json().is_empty());
    assert!(!r.metrics.tail_report().is_empty());
}

/// Reads one of the kernel's CPU-time clocks, in nanoseconds.
fn cpu_clock(id: libc::clockid_t) -> u64 {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and `id` one of the
    // two clock constants below.
    assert_eq!(unsafe { libc::clock_gettime(id, &mut ts) }, 0);
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One pull-free task per vertex whose `compute()` burns `spin` of its
/// thread's CPU time, and adds what it measured around itself to
/// `measured` — the per-call method `compute_nanos` used to use, kept
/// here as the reference.
struct Spin {
    spin: Duration,
    measured: std::sync::atomic::AtomicU64,
}

impl App for Spin {
    type Context = ();
    type Agg = SumAgg;
    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }
    fn task_spawn(&self, _v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        env.add_task(Task::new(()));
    }
    fn compute(&self, _t: &mut Task<()>, _f: &Frontier, _env: &mut ComputeEnv<'_, Self>) -> bool {
        let start = cpu_clock(libc::CLOCK_THREAD_CPUTIME_ID);
        let mut now = start;
        while now - start < self.spin.as_nanos() as u64 {
            now = cpu_clock(libc::CLOCK_THREAD_CPUTIME_ID);
        }
        self.measured.fetch_add(now - start, std::sync::atomic::Ordering::Relaxed);
        false
    }
}

fn spin_job(spin: Duration, tasks: usize, compers: usize) -> (u64, WorkerMetricsSnapshot) {
    let app = Arc::new(Spin { spin, measured: Default::default() });
    let r =
        run_job(Arc::clone(&app), &gen::gnp(tasks, 0.0, 1), &JobConfig::single_machine(compers))
            .unwrap();
    let totals = r.metrics.totals();
    assert_eq!(totals.compute_calls, tasks as u64);
    (app.measured.load(std::sync::atomic::Ordering::Relaxed), totals)
}

/// `compute_ms` is read off the CPU clock once per window of calls, not
/// around each call; on one comper it must still say what the per-call
/// readings say.
#[test]
fn windowed_compute_time_matches_per_call_thread_cpu() {
    let (measured, m) = spin_job(Duration::from_micros(200), 400, 1);
    let (got, want) = (m.compute_nanos as f64, measured as f64);
    assert!((got - want).abs() <= 0.15 * want, "compute_nanos {got} vs per-call sum {want}");
    assert!(m.compute_nanos <= m.comper_cpu_nanos);
}

/// Eight compers on this host's two cores: every `compute()` call's
/// wall time is mostly time spent preempted. `compute_nanos` stays a
/// CPU time — inside the compers' CPU, which is inside the process's —
/// where a wall-clock sum would be several times the process's CPU.
#[test]
fn cpu_rows_stay_cpu_times_when_compers_outnumber_cores() {
    let before = cpu_clock(libc::CLOCK_PROCESS_CPUTIME_ID);
    let (measured, m) = spin_job(Duration::from_micros(250), 1_600, 8);
    let process = cpu_clock(libc::CLOCK_PROCESS_CPUTIME_ID) - before;
    assert!(m.compute_nanos > 0);
    assert!(
        m.compute_nanos <= m.comper_cpu_nanos && m.comper_cpu_nanos <= process,
        "compute {} <= comper cpu {} <= process cpu {process}",
        m.compute_nanos,
        m.comper_cpu_nanos
    );
    // Windows are per comper, so the 15% of the one-comper test does
    // not carry over exactly; the estimate must still be of the
    // measured CPU's size, not of the wall time's.
    let (got, want) = (m.compute_nanos as f64, measured as f64);
    assert!((got - want).abs() <= 0.3 * want, "compute_nanos {got} vs per-call sum {want}");
}
