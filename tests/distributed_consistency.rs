//! Determinism across topologies: every application must produce the
//! same answer no matter how many workers/compers run it, with or
//! without link latency and work stealing.

use gthinker_apps::{MaxCliqueApp, QuasiCliqueApp, TriangleApp};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_net::router::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

fn topologies() -> Vec<JobConfig> {
    let mut configs = vec![
        JobConfig::single_machine(1),
        JobConfig::single_machine(4),
        JobConfig::cluster(2, 2),
        JobConfig::cluster(5, 2),
    ];
    // High-latency links.
    let mut slow = JobConfig::cluster(3, 2);
    slow.link = LinkConfig { latency: Duration::from_millis(2), bytes_per_sec: Some(10_000_000) };
    configs.push(slow);
    // Work stealing disabled.
    let mut no_steal = JobConfig::cluster(4, 1);
    no_steal.work_stealing = false;
    configs.push(no_steal);
    configs
}

#[test]
fn triangle_count_invariant_across_topologies() {
    let g = gen::barabasi_albert(1_000, 5, 3);
    let reference = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(1))
        .unwrap()
        .global;
    for (i, cfg) in topologies().into_iter().enumerate() {
        let r = run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap();
        assert_eq!(r.global, reference, "topology {i}");
    }
}

#[test]
fn max_clique_size_invariant_across_topologies() {
    let base = gen::barabasi_albert(500, 4, 9);
    let (g, planted) = gen::plant_clique(&base, 10, 14);
    let reference = run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(1))
        .unwrap()
        .global;
    assert!(reference.len() >= planted.len());
    for (i, cfg) in topologies().into_iter().enumerate() {
        let r = run_job(Arc::new(MaxCliqueApp::default()), &g, &cfg).unwrap();
        assert_eq!(r.global.len(), reference.len(), "topology {i}");
    }
}

#[test]
fn quasi_clique_count_invariant_across_topologies() {
    let g = gen::gnp(80, 0.08, 31);
    let reference =
        run_job(Arc::new(QuasiCliqueApp::new(0.5, 3, 4)), &g, &JobConfig::single_machine(1))
            .unwrap()
            .global;
    for (i, cfg) in topologies().into_iter().enumerate() {
        let r = run_job(Arc::new(QuasiCliqueApp::new(0.5, 3, 4)), &g, &cfg).unwrap();
        assert_eq!(r.global, reference, "topology {i}");
    }
}

#[test]
fn repeated_runs_are_stable() {
    // The scheduler is nondeterministic; the answer must not be.
    let g = gen::barabasi_albert(600, 6, 17);
    let first =
        run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::cluster(3, 3)).unwrap().global;
    for _ in 0..3 {
        let r = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::cluster(3, 3)).unwrap();
        assert_eq!(r.global, first);
    }
}

#[test]
fn work_stealing_moves_tasks_to_idle_workers() {
    // Hash partitioning spreads vertices evenly, so force imbalance
    // with compers: worker count high relative to work, low-latency
    // links, and verify stealing does not corrupt results (the
    // detailed accounting is exercised in the unit layer).
    let g = gen::barabasi_albert(2_000, 8, 23);
    let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    let mut cfg = JobConfig::cluster(6, 1);
    cfg.task_batch = 4; // small batches → files exist → steals possible
    let r = run_job(Arc::new(TriangleApp::default()), &g, &cfg).unwrap();
    assert_eq!(r.global, expected);
}
