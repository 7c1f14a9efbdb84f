//! Suspend/resume checkpointing: a job interrupted mid-flight must,
//! after resuming from its checkpoint, produce exactly the result of
//! an uninterrupted run.

use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

fn checkpoint_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("gthinker-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs with a suspension deadline; resumes (repeatedly, if a resumed
/// run suspends again) until completion; returns the final global.
fn run_with_interruptions<A: gthinker_core::App>(
    app: impl Fn() -> A,
    graph: &gthinker_graph::graph::Graph,
    mut cfg: JobConfig,
    tag: &str,
) -> (<A::Agg as gthinker_core::Aggregator>::Global, usize) {
    cfg.checkpoint_dir = Some(checkpoint_dir(tag));
    let mut suspensions = 0usize;
    let mut result = run_job(Arc::new(app()), graph, &cfg).unwrap();
    loop {
        match result.outcome {
            JobOutcome::Completed => return (result.global, suspensions),
            JobOutcome::Suspended { checkpoint } => {
                suspensions += 1;
                assert!(suspensions < 50, "job never finishes");
                // Allow more time per resumed attempt.
                let mut next = cfg.clone();
                next.suspend_after = cfg.suspend_after.map(|d| d * 2u32.pow(suspensions as u32));
                result =
                    Job::new(Arc::new(app()), graph, &next).resume_from(&checkpoint).run().unwrap();
            }
            JobOutcome::Failed { worker } => {
                panic!("no faults are injected here, yet worker {worker:?} was declared dead")
            }
        }
    }
}

#[test]
fn triangle_count_survives_suspension() {
    let g = gen::barabasi_albert(3_000, 6, 5);
    let expected =
        run_job(Arc::new(TriangleApp), &g, &JobConfig::single_machine(2)).unwrap().global;
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(120));
    let (global, suspensions) = run_with_interruptions(|| TriangleApp, &g, cfg, "tc");
    assert_eq!(global, expected);
    // The deadline is tuned to interrupt this workload at least once;
    // if the machine is so fast it finished first, the test still
    // validated the result (but log it).
    if suspensions == 0 {
        eprintln!("note: job completed before the suspension deadline");
    }
}

#[test]
fn max_clique_survives_suspension() {
    let base = gen::barabasi_albert(1_500, 6, 6);
    let (g, planted) = gen::plant_clique(&base, 12, 7);
    let expected = run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    assert!(expected.len() >= planted.len());
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(100));
    let (global, _suspensions) = run_with_interruptions(MaxCliqueApp::default, &g, cfg, "mcf");
    assert_eq!(global.len(), expected.len());
    for i in 0..global.len() {
        for j in (i + 1)..global.len() {
            assert!(g.has_edge(global[i], global[j]));
        }
    }
}

#[test]
fn immediate_suspension_checkpoints_everything() {
    // Suspend before any meaningful progress: the checkpoint carries
    // essentially the whole job.
    let g = gen::barabasi_albert(2_000, 5, 8);
    let expected =
        run_job(Arc::new(TriangleApp), &g, &JobConfig::single_machine(2)).unwrap().global;
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(1));
    let (global, _) = run_with_interruptions(|| TriangleApp, &g, cfg, "early");
    assert_eq!(global, expected);
}

#[test]
fn resume_with_wrong_topology_is_rejected() {
    let g = gen::gnp(200, 0.05, 9);
    let mut cfg = JobConfig::cluster(2, 1);
    cfg.suspend_after = Some(Duration::from_millis(1));
    cfg.checkpoint_dir = Some(checkpoint_dir("wrong-topo"));
    let result = run_job(Arc::new(TriangleApp), &g, &cfg).unwrap();
    let JobOutcome::Suspended { checkpoint } = result.outcome else {
        eprintln!("note: job finished before suspension; skipping");
        return;
    };
    let bad = JobConfig::cluster(3, 1);
    let err = Job::new(Arc::new(TriangleApp), &g, &bad)
        .resume_from(&checkpoint)
        .run()
        .expect_err("mismatched worker count must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let msg = err.to_string();
    assert!(msg.contains("2 workers") && msg.contains("3"), "error should name both counts: {msg}");
}
