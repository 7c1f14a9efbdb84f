//! Fault tolerance: suspend a running job into a checkpoint, then
//! resume it and finish — the paper's §V-B checkpointing, where task
//! containers and the spawn pointer are committed and pending tasks
//! re-pull their vertices on restart (the cache starts cold).
//!
//! Run with: `cargo run --release --example checkpoint_resume`

use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let base = gen::barabasi_albert(30_000, 8, 3);
    let (graph, planted) = gen::plant_clique(&base, 14, 4);
    println!(
        "MCF on {} vertices / {} edges (planted clique: {})",
        graph.num_vertices(),
        graph.num_edges(),
        planted.len()
    );

    // Run with an aggressive suspension deadline.
    let ckpt_dir = std::env::temp_dir().join("gthinker-example-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut cfg = JobConfig::cluster(2, 2);
    cfg.suspend_after = Some(Duration::from_millis(60));
    cfg.checkpoint_dir = Some(ckpt_dir);

    let mut attempt = 1;
    let mut result = run_job(Arc::new(MaxCliqueApp::default()), &graph, &cfg).expect("job runs");
    loop {
        match result.outcome {
            JobOutcome::Completed => break,
            JobOutcome::Failed { worker } => {
                panic!("no faults are injected here, yet worker {worker:?} was declared dead")
            }
            JobOutcome::Suspended { checkpoint } => {
                println!(
                    "attempt {attempt}: suspended after {:.2?} — checkpoint at {}",
                    result.elapsed,
                    checkpoint.display()
                );
                attempt += 1;
                cfg.suspend_after = Some(Duration::from_millis(60 * (1 << attempt)));
                result = Job::new(Arc::new(MaxCliqueApp::default()), &graph, &cfg)
                    .resume_from(&checkpoint)
                    .run()
                    .expect("resume runs");
            }
        }
    }
    println!(
        "attempt {attempt}: completed — maximum clique of {} in {:.2?}",
        result.global.len(),
        result.elapsed
    );
    assert!(result.global.len() >= planted.len());
    // The clique is a genuine witness.
    for i in 0..result.global.len() {
        for j in (i + 1)..result.global.len() {
            assert!(graph.has_edge(result.global[i], result.global[j]));
        }
    }
    println!("witness verified across {} suspension(s) ✓", attempt - 1);
}
