//! A worker's thread census, counted for real from `/proc/self/task`
//! while a job is mining: `n` compers beside the worker's main thread,
//! which reads the inbox itself — no GC thread (the compers run the GC
//! passes), no receiver thread and no pool of responder threads — and,
//! on TCP, the process's one `tcp-io` thread. This file holds a single `#[test]` so no
//! concurrent job's threads pollute the count.
#![cfg(target_os = "linux")]

use gthinker_core::prelude::*;
use gthinker_core::ClusterRole;
use gthinker_graph::gen;
use gthinker_graph::ids::WorkerId;
use gthinker_net::tcp::ClusterManifest;
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

/// Runs `job` on its own thread, takes the census of `prefixes` once
/// every comper is up, releases the compers and checks that the job
/// counted `edges`.
fn census(
    edges: u64,
    prefixes: &[String],
    job: impl FnOnce(Arc<HeldEdgeCount>) -> u64 + Send + 'static,
) -> Vec<(String, usize)> {
    let release = Arc::new(AtomicBool::new(false));
    let app = Arc::new(HeldEdgeCount { release: Arc::clone(&release) });
    let job = std::thread::spawn(move || job(app));
    // Every comper holds a task once it has one, so the census settles.
    let deadline = Instant::now() + Duration::from_secs(30);
    while threads_named("comper-") < WORKERS * COMPERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let counts = prefixes.iter().map(|p| (p.clone(), threads_named(p))).collect();
    release.store(true, Ordering::Release);
    assert_eq!(job.join().expect("job thread"), edges);
    counts
}

#[test]
fn a_worker_runs_its_compers_and_no_gc_or_receiver_thread_on_sim_and_tcp() {
    let g = Arc::new(gen::barabasi_albert(400, 4, 3));
    let edges = g.num_edges() as u64;
    let cfg = JobConfig::cluster(WORKERS, COMPERS);

    let sim = {
        let (g, cfg) = (Arc::clone(&g), cfg.clone());
        census(edges, &["comper-", "gc-", "recv-", "respond"].map(String::from), move |app| {
            run_job(app, &*g, &cfg).unwrap().global
        })
    };
    let want = [("comper-", WORKERS * COMPERS), ("gc-", 0), ("recv-", 0), ("respond", 0)];
    assert_eq!(sim, want.map(|(p, n)| (p.to_string(), n)));

    // A loopback process pair, one thread per process.
    let per_worker =
        |w: usize| [format!("comper-w{w}-"), format!("tcp-io-{w}"), format!("gc-w{w}")];
    let mut prefixes: Vec<String> = (0..WORKERS).flat_map(per_worker).collect();
    prefixes.push("recv-".into());
    let tcp = census(edges, &prefixes, {
        let g = Arc::clone(&g);
        move |app| {
            let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
            let processes: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(w, listener)| {
                    let (g, cfg, manifest, app) =
                        (Arc::clone(&g), cfg.clone(), manifest.clone(), Arc::clone(&app));
                    std::thread::spawn(move || {
                        Job::new(app, &*g, &cfg)
                            .run_process(
                                &manifest,
                                WorkerId(w as u16),
                                listener,
                                Duration::from_secs(20),
                            )
                            .expect("process job")
                    })
                })
                .collect();
            let roles: Vec<_> = processes.into_iter().map(|p| p.join().expect("process")).collect();
            match &roles[0] {
                ClusterRole::Master(r) => r.global,
                ClusterRole::Worker(..) => panic!("worker 0 is the master"),
            }
        }
    });
    let mut want: Vec<(String, usize)> =
        (0..WORKERS).flat_map(|w| per_worker(w).into_iter().zip([COMPERS, 1, 0])).collect();
    want.push(("recv-".into(), 0));
    assert_eq!(tcp, want);
}
