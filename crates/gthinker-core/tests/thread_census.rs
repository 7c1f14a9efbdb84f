//! A worker's thread census, counted for real from `/proc/self/task`
//! while a job is mining: `n` compers, one receiver (which also answers
//! every pull), one GC thread, plus the worker's main thread — and no
//! pool of responder threads. This file holds a single `#[test]` so no
//! concurrent job's threads pollute the count.
#![cfg(target_os = "linux")]

use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const COMPERS: usize = 3;

/// Live threads whose name starts with `prefix` (comm truncates names
/// to 15 bytes, so match on the prefix, never the full name).
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

/// Pulls each neighbor above the anchor, then holds its comper until
/// the test has taken the census.
struct HeldEdgeCount {
    release: Arc<AtomicBool>,
}

impl App for HeldEdgeCount {
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
        while !self.release.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        env.aggregate(f.len() as u64);
        false
    }
}

#[test]
fn a_worker_runs_its_compers_one_receiver_and_one_gc_thread() {
    let g = gen::barabasi_albert(400, 4, 3);
    let release = Arc::new(AtomicBool::new(false));
    let app = Arc::new(HeldEdgeCount { release: Arc::clone(&release) });
    let job = std::thread::spawn(move || {
        run_job(app, &g, &JobConfig::cluster(WORKERS, COMPERS)).unwrap().global
    });
    // Every comper holds a task once it has one, so the census settles.
    let deadline = Instant::now() + Duration::from_secs(30);
    while threads_named("comper-") < WORKERS * COMPERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let census = [
        ("comper-", threads_named("comper-")),
        ("recv-", threads_named("recv-")),
        ("gc-", threads_named("gc-")),
        ("respond", threads_named("respond")),
    ];
    release.store(true, Ordering::Release);
    let edges = job.join().expect("job thread");
    assert_eq!(edges, gen::barabasi_albert(400, 4, 3).num_edges() as u64);
    assert_eq!(
        census,
        [("comper-", WORKERS * COMPERS), ("recv-", WORKERS), ("gc-", WORKERS), ("respond", 0)]
    );
}
