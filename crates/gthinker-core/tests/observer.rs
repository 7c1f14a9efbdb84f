//! Tests for the progress-observer API.

use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Edge counter that pulls (to generate observable cache traffic).
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

#[test]
fn observer_sees_monotonic_progress_and_final_result_is_unaffected() {
    let g = gen::barabasi_albert(3_000, 5, 5);
    let snapshots = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let mut cfg = JobConfig::cluster(2, 2);
    // Well below the job's few milliseconds of mining: the job ends as
    // soon as it is quiescent, so a longer interval may never elapse.
    cfg.sync_interval = Duration::from_millis(1);
    let r = Job::new(Arc::new(EdgeCount), &g, &cfg)
        .observe(move |m| sink.lock().push(m.progress()))
        .run()
        .unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let snaps = snapshots.lock();
    assert!(!snaps.is_empty(), "at least one snapshot per sync interval");
    // Monotonic counters.
    for w in snaps.windows(2) {
        assert!(w[1].tasks_finished >= w[0].tasks_finished);
        assert!(w[1].cache_misses >= w[0].cache_misses);
        assert!(w[1].net_bytes >= w[0].net_bytes);
        assert!(w[1].elapsed >= w[0].elapsed);
    }
    // The last snapshot is from a mostly-finished job.
    let last = snaps.last().unwrap();
    assert!(last.tasks_finished > 0);
}

#[test]
fn observer_callback_count_tracks_runtime() {
    let g = gen::gnp(300, 0.05, 7);
    let calls = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&calls);
    let mut cfg = JobConfig::single_machine(2);
    cfg.sync_interval = Duration::from_millis(5);
    let r = Job::new(Arc::new(EdgeCount), &g, &cfg)
        .observe(move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .run()
        .unwrap();
    assert_eq!(r.global, g.num_edges() as u64);
    let n = calls.load(Ordering::Relaxed);
    let expected_max = r.elapsed.as_millis() as u64 / 5 + 2;
    assert!(n <= expected_max, "observer fired {n} times in {:?}", r.elapsed);
}
