//! Backend equivalence: every miner must produce the same answer on
//! the real TCP backend (one worker per "process", here one per
//! thread on a loopback mesh) as on the simulated router. This is the
//! contract that lets the sim backend stand in for a cluster in every
//! other test.

use gthinker_apps::{
    KPlexApp, MatchingApp, MaxCliqueApp, MaximalCliqueApp, Pattern, QuasiCliqueApp, TriangleApp,
};
use gthinker_core::prelude::*;
use gthinker_core::ClusterRole;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::WorkerId;
use gthinker_net::tcp::ClusterManifest;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 3;
const RENDEZVOUS: Duration = Duration::from_secs(20);

/// Runs `app` on a 3-worker loopback TCP cluster (each worker on its
/// own thread, exactly the code path of three OS processes) and
/// returns the master's result, which covers the whole cluster.
fn run_tcp_cluster<A: App + Send + Sync + 'static>(
    app: Arc<A>,
    graph: &Graph,
    compers: usize,
) -> JobResult<<<A as App>::Agg as Aggregator>::Global> {
    let mut cfg = JobConfig::cluster(WORKERS, compers);
    cfg.sync_interval = Duration::from_millis(5);
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
    let graph = Arc::new(graph.clone());
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let app = Arc::clone(&app);
            let graph = Arc::clone(&graph);
            let cfg = cfg.clone();
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                Job::new(app, &*graph, &cfg)
                    .run_process(&manifest, WorkerId(w as u16), listener, RENDEZVOUS)
                    .expect("cluster worker")
            })
        })
        .collect();
    gthinker_tests::join_cluster(handles)
}

/// Sim reference for the same topology.
fn sim_reference<A: App>(
    app: Arc<A>,
    graph: &Graph,
    compers: usize,
) -> JobResult<<<A as App>::Agg as Aggregator>::Global> {
    run_job(app, graph, &JobConfig::cluster(WORKERS, compers)).expect("sim job")
}

/// All workers together must have moved real traffic: the job cannot
/// have quietly degenerated into a single-process run.
fn assert_traffic<G>(r: &JobResult<G>) {
    let total = r.metrics.totals();
    assert!(total.net_bytes_sent > 0, "no bytes crossed the TCP mesh");
    assert!(total.net_bytes_received > 0, "no bytes were received off the TCP mesh");
}

#[test]
fn triangle_count_matches_sim() {
    let g = gen::barabasi_albert(600, 5, 17);
    let reference = sim_reference(Arc::new(TriangleApp), &g, 2).global;
    let r = run_tcp_cluster(Arc::new(TriangleApp), &g, 2);
    assert_eq!(r.global, reference);
    assert!(matches!(r.outcome, JobOutcome::Completed));
    assert_traffic(&r);
}

#[test]
fn max_clique_matches_sim() {
    let base = gen::barabasi_albert(400, 4, 23);
    let (g, planted) = gen::plant_clique(&base, 9, 27);
    let reference = sim_reference(Arc::new(MaxCliqueApp::default()), &g, 2).global;
    assert!(reference.len() >= planted.len());
    let r = run_tcp_cluster(Arc::new(MaxCliqueApp::default()), &g, 2);
    assert_eq!(r.global.len(), reference.len());
    assert_traffic(&r);
}

#[test]
fn maximal_cliques_match_sim() {
    let g = gen::gnp(150, 0.08, 41);
    let reference = sim_reference(Arc::new(MaximalCliqueApp), &g, 2).global;
    let r = run_tcp_cluster(Arc::new(MaximalCliqueApp), &g, 2);
    assert_eq!(r.global, reference);
    assert_traffic(&r);
}

#[test]
fn quasi_cliques_match_sim() {
    let g = gen::gnp(70, 0.1, 53);
    let app = || Arc::new(QuasiCliqueApp::new(0.6, 3, 4));
    let reference = sim_reference(app(), &g, 2).global;
    let r = run_tcp_cluster(app(), &g, 2);
    assert_eq!(r.global, reference);
    assert_traffic(&r);
}

#[test]
fn k_plexes_match_sim() {
    let g = gen::gnp(60, 0.12, 61);
    let app = || Arc::new(KPlexApp::new(2, 4, 5));
    let reference = sim_reference(app(), &g, 2).global;
    let r = run_tcp_cluster(app(), &g, 2);
    assert_eq!(r.global, reference);
    assert_traffic(&r);
}

#[test]
fn graph_matching_matches_sim() {
    let g = gen::random_labels(gen::gnp(120, 0.06, 71), 3, 0x1abe1);
    let labels = g.labels().expect("labeled").to_vec();
    let pattern = Pattern::triangle(
        gthinker_graph::ids::Label(0),
        gthinker_graph::ids::Label(1),
        gthinker_graph::ids::Label(2),
    );
    let app = || Arc::new(MatchingApp::new(pattern.clone(), labels.clone()));
    let reference = sim_reference(app(), &g, 2).global;
    let r = run_tcp_cluster(app(), &g, 2);
    assert_eq!(r.global, reference);
    assert_traffic(&r);
}

/// Lossless merge: the cluster-wide metrics the master assembles from
/// `MetricsReport`s must agree, worker by worker, with the snapshot
/// each worker kept for itself — for every counter that is stable by
/// the time the final report ships (work totals; byte counters keep
/// moving during the termination hand-shake and are excluded). So the
/// master's `JobResult` speaks for the whole cluster: its accessors
/// used to read a list holding only the master's own counters, and
/// "peak memory, max over machines" and every `total_*` silently
/// reported one machine.
#[test]
fn cluster_metrics_reports_merge_losslessly() {
    let g = gen::barabasi_albert(400, 5, 77);
    let mut cfg = JobConfig::cluster(WORKERS, 2);
    cfg.sync_interval = Duration::from_millis(5);
    cfg.report_interval = Some(Duration::from_millis(20));
    let (manifest, listeners) = ClusterManifest::loopback(WORKERS).expect("bind loopback");
    let graph = Arc::new(g);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(w, listener)| {
            let graph = Arc::clone(&graph);
            let cfg = cfg.clone();
            let manifest = manifest.clone();
            std::thread::spawn(move || {
                Job::new(Arc::new(TriangleApp), &*graph, &cfg)
                    .run_process(&manifest, WorkerId(w as u16), listener, RENDEZVOUS)
                    .expect("cluster worker")
            })
        })
        .collect();
    let mut master = None;
    let mut own: Vec<Option<MetricsSnapshot>> = vec![None; WORKERS];
    for (w, h) in handles.into_iter().enumerate() {
        match h.join().expect("worker thread") {
            ClusterRole::Master(r) => {
                assert_eq!(w, 0, "master is worker 0");
                master = Some(r);
            }
            ClusterRole::Worker(snap, _) => own[w] = Some(snap),
        }
    }
    let master = master.expect("worker 0 is the master");
    let merged = &master.metrics;
    assert_eq!(merged.workers.len(), WORKERS, "one merged entry per worker");

    let e2e_count =
        |s: &WorkerMetricsSnapshot| -> u64 { s.compers.iter().map(|c| c.e2e.count()).sum() };
    for (w, own_entry) in own.iter().enumerate().skip(1) {
        let own_snap = &own_entry.as_ref().expect("worker snapshot").workers[0];
        let m = &merged.workers[w];
        assert_eq!(m.tasks_finished, own_snap.tasks_finished, "worker {w}: tasks_finished");
        assert_eq!(m.compute_calls, own_snap.compute_calls, "worker {w}: compute_calls");
        assert_eq!(m.steals, own_snap.steals, "worker {w}: steals");
        assert_eq!(m.stolen_tasks, own_snap.stolen_tasks, "worker {w}: stolen_tasks");
        assert_eq!(m.split_tasks, own_snap.split_tasks, "worker {w}: split_tasks");
        assert_eq!(e2e_count(m), e2e_count(own_snap), "worker {w}: e2e samples");
    }
    // Every worker did real work that reached the master's view.
    for (w, m) in merged.workers.iter().enumerate() {
        assert!(m.compute_calls > 0, "worker {w} reported no compute");
        assert!(m.peak_mem_bytes > 0, "worker {w}: no memory sample reached the master");
    }
    let own_tasks =
        |w: &Option<MetricsSnapshot>| w.as_ref().map_or(0, MetricsSnapshot::total_tasks);
    let remote_tasks: u64 = own.iter().map(own_tasks).sum();
    assert!(remote_tasks > 0, "workers 1.. finished tasks of their own");
    assert_eq!(
        master.total_tasks(),
        merged.workers[0].tasks_finished + remote_tasks,
        "total_tasks() is the sum of what each process counted for itself"
    );
    let peak = merged.workers.iter().map(|w| w.peak_mem_bytes).max().unwrap();
    assert_eq!(master.peak_mem_bytes(), peak, "maximum over machines");
    assert!(master.total_net_bytes() > merged.workers[0].net_bytes_sent, "all traffic counted");
}

/// The manifest size must agree with the config; a mismatch is an
/// input error, not a hang.
#[test]
fn manifest_size_mismatch_is_rejected() {
    let g = gen::gnp(20, 0.2, 3);
    let (manifest, mut listeners) = ClusterManifest::loopback(2).expect("bind");
    let cfg = JobConfig::cluster(3, 1); // says 3, manifest says 2
    let err = Job::new(Arc::new(TriangleApp), &g, &cfg)
        .run_process(&manifest, WorkerId(0), listeners.remove(0), Duration::from_secs(1))
        .expect_err("mismatch must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
