//! Torture tests: every adverse condition at once — tiny task batches
//! (constant spilling), a starved vertex cache (constant GC), slow
//! lossy-feeling links (high latency + low bandwidth), work stealing,
//! and repeated suspension — must never change an answer.

use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::{MaxCliqueApp, MaximalCliqueApp, TriangleApp};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use gthinker_net::router::LinkConfig;
use std::sync::Arc;
use std::time::Duration;

fn torture_config() -> JobConfig {
    let mut cfg = JobConfig::cluster(3, 2);
    cfg.task_batch = 3; // spill constantly
    cfg.cache.capacity = 32; // evict constantly
    cfg.cache.num_buckets = 8;
    cfg.cache.alpha = 0.02; // eager GC
    cfg.request_batch = 16;
    cfg.link = LinkConfig { latency: Duration::from_micros(500), bytes_per_sec: Some(2_000_000) };
    cfg
}

#[test]
fn triangle_count_survives_torture() {
    let g = gen::barabasi_albert(700, 5, 31);
    let expected = count_triangles(&g);
    let r = run_job(Arc::new(TriangleApp::default()), &g, &torture_config()).unwrap();
    assert_eq!(r.global, expected);
    let evictions: u64 = r.metrics.totals().cache.evictions;
    assert!(evictions > 0, "a 32-entry cache must evict");
}

#[test]
fn max_clique_survives_torture_with_decomposition() {
    let base = gen::gnp(250, 0.12, 41);
    let (g, planted) = gen::plant_clique(&base, 10, 42);
    let reference =
        run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(1)).unwrap();
    assert!(reference.global.len() >= planted.len());
    let mut cfg = torture_config();
    cfg.suspend_after = None;
    let r = run_job(Arc::new(MaxCliqueApp::with_tau(12)), &g, &cfg).unwrap();
    assert_eq!(r.global.len(), reference.global.len());
    // Decomposition bursts through C = 3 queues must have spilled.
    assert!(r.total_spill_bytes() > 0, "τ=12 decomposition with C=3 must spill");
}

#[test]
fn maximal_cliques_survive_torture() {
    let g = gen::gnp(150, 0.1, 51);
    let expected =
        run_job(Arc::new(MaximalCliqueApp), &g, &JobConfig::single_machine(1)).unwrap().global;
    let r = run_job(Arc::new(MaximalCliqueApp), &g, &torture_config()).unwrap();
    assert_eq!(r.global, expected);
}

#[test]
fn bundled_triangles_survive_torture_plus_suspension() {
    let g = gen::barabasi_albert(900, 4, 61);
    let expected = count_triangles(&g);
    let dir = std::env::temp_dir().join(format!("gthinker-stress-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = torture_config();
    cfg.suspend_after = Some(Duration::from_millis(200));
    cfg.checkpoint_dir = Some(dir);
    let app = TriangleApp { bundle: 8, list: false };
    let mut attempts = 0;
    let mut result = run_job(Arc::new(app), &g, &cfg).unwrap();
    loop {
        match result.outcome {
            JobOutcome::Completed => break,
            JobOutcome::Failed { worker } => {
                panic!("no faults are injected here, yet worker {worker:?} was declared dead")
            }
            JobOutcome::Suspended { checkpoint } => {
                attempts += 1;
                assert!(attempts < 30, "never converges");
                cfg.suspend_after = Some(Duration::from_millis(200 * (1 << attempts.min(4))));
                result = Job::new(Arc::new(app), &g, &cfg).resume_from(&checkpoint).run().unwrap();
            }
        }
    }
    assert_eq!(result.global, expected);
}
