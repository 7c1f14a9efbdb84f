//! Table V(b) — effect of the GC overflow-tolerance parameter α.
//!
//! The paper sweeps α over 0.002 / 0.02 / 0.2 / 2: a lazier GC (larger
//! α) lets `T_cache` overshoot to `(1+α)·c_cache` before evicting,
//! buying a small speedup for proportionally more memory; α = 0.2 is
//! the chosen tradeoff.
//!
//! `cargo run -p gthinker-bench --release -- table5b_alpha [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Friendster, scale);
    let n = d.graph.num_vertices();
    println!(
        "Table V(b) — effect of α, MCF on {} ({} vertices), 4 workers × 2 compers\n",
        d.kind.name(),
        n
    );
    // A constraining capacity so GC actually runs (the default would
    // hold the whole remote set).
    let cap = (n / 10).max(64);
    println!(
        "{:>8} | {:>10} {:>10} {:>10} {:>12} {:>12}",
        "alpha", "wall", "peak mem", "misses", "evictions", "gc passes"
    );
    crate::rule(70);
    for alpha in [0.002f64, 0.02, 0.2, 2.0] {
        let mut cfg = JobConfig::cluster(4, 2);
        cfg.cache.capacity = cap;
        cfg.cache.alpha = alpha;
        cfg.cache.num_buckets = 1024;
        let r = run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        let cache = r.metrics.totals().cache;
        let (misses, evictions, gc) = (cache.misses, cache.evictions, cache.gc_passes);
        println!(
            "{alpha:>8} | {:>10} {:>10} {:>10} {:>12} {:>12}",
            fmt_duration(r.elapsed),
            fmt_bytes(r.peak_mem_bytes()),
            misses,
            evictions,
            gc
        );
    }
    println!("\nlarger α → lazier GC → fewer passes and slightly more memory, as in the paper");
}
