//! Live progress monitoring — the paper's periodic job-status
//! synchronization surfaced through `Job::observe`: watch the
//! triangle count's task throughput, cache behaviour and network
//! volume evolve while the job runs.
//!
//! Run with: `cargo run --release --example progress_monitoring`

use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let graph = gen::barabasi_albert(30_000, 8, 7);
    println!(
        "counting triangles of {} vertices / {} edges on a simulated 4-machine cluster\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "t", "done", "remaining", "hits", "misses", "net KiB"
    );
    let mut cfg = JobConfig::cluster(4, 2);
    cfg.sync_interval = Duration::from_millis(100);
    let result = Job::new(Arc::new(TriangleApp::default()), &graph, &cfg)
        .observe(|m| {
            let s = m.totals();
            println!(
                "{:>7.1}s {:>10} {:>10} {:>10} {:>10} {:>10}",
                m.elapsed.as_secs_f64(),
                s.tasks_finished,
                s.remaining,
                s.cache.hits,
                s.cache.misses,
                s.net_bytes_sent / 1024
            );
        })
        .run()
        .expect("job runs");
    println!(
        "\nfinal count: {} in {:.2?} ({} tasks)",
        result.global,
        result.elapsed,
        result.total_tasks()
    );
}
