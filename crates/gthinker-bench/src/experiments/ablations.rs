//! Ablations of the design choices DESIGN.md §5 calls out.
//!
//! Each row disables or degrades one mechanism of §V and reruns MCF on
//! the same simulated 4-machine cluster, quantifying what the
//! mechanism buys:
//!
//! 1. request batching (`request_batch 512 → 1`) — §III desirability 5;
//! 2. task batching (`C = 150 → 2`) — spill/refill granularity;
//! 3. the vertex cache (capacity → near-zero) — §V-A;
//! 4. the decomposition threshold τ (40k → 16) — Fig. 5 line 3;
//! 5. work stealing off — §V-B.
//!
//! `cargo run -p gthinker-bench --release -- ablations [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Orkut, scale);
    println!(
        "Ablations — MCF on {} ({} V, {} E), 4 workers × 2 compers\n",
        d.kind.name(),
        d.graph.num_vertices(),
        d.graph.num_edges()
    );
    println!(
        "{:<28} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "wall", "net msgs", "net bytes", "misses", "spilled"
    );
    crate::rule(88);

    let run = |label: &str, cfg: &JobConfig, tau: usize| {
        let r = run_job(Arc::new(MaxCliqueApp::with_tau(tau)), &d.graph, cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len(), "{label}: missed the planted clique");
        let misses: u64 = r.metrics.totals().cache.misses;
        // Message counts are visible through bytes; re-derive an
        // approximate message count from sent bytes / average size is
        // noisy, so report bytes and misses directly.
        println!(
            "{label:<28} | {:>10} {:>10} {:>10} {:>10} {:>10}",
            fmt_duration(r.elapsed),
            "-",
            fmt_bytes(r.total_net_bytes()),
            misses,
            fmt_bytes(r.total_spill_bytes())
        );
    };

    let base = JobConfig::cluster(4, 2);
    run("baseline (paper defaults)", &base, 40_000);

    let mut no_batch = base.clone();
    no_batch.request_batch = 1;
    run("request batching off", &no_batch, 40_000);

    let mut tiny_c = base.clone();
    tiny_c.task_batch = 2;
    run("task batch C = 2", &tiny_c, 40_000);

    let mut no_cache = base.clone();
    no_cache.cache.capacity = 8;
    no_cache.cache.num_buckets = 8;
    run("vertex cache ~disabled", &no_cache, 40_000);

    run("decompose aggressively τ=16", &base, 16);

    let mut no_steal = base.clone();
    no_steal.work_stealing = false;
    run("work stealing off", &no_steal, 40_000);
}
