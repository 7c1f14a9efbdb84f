//! Table V(a) — effect of the vertex-cache capacity `c_cache`.
//!
//! The paper sweeps c_cache over 0.02M / 0.2M / 2M / 20M on Friendster
//! and finds: small caches slow the job markedly (constant re-pulling),
//! while growing past the default buys little speed for a doubling of
//! memory. The stand-in graph is ~1000× smaller, so the sweep scales
//! the capacities to the remote working set of the simulated cluster.
//!
//! `cargo run -p gthinker-bench --release -- table5a_cache [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Friendster, scale);
    let n = d.graph.num_vertices();
    println!(
        "Table V(a) — effect of c_cache, MCF on {} ({} vertices), 4 workers × 2 compers\n",
        d.kind.name(),
        n
    );
    // Paper ratios: 0.01×, 0.1×, 1×, 10× of the default; our default is
    // sized to the per-worker remote working set (~3/4 of |V|).
    let default_cap = (n * 3 / 4).max(64);
    println!(
        "{:>10} | {:>10} {:>10} {:>10} {:>12} {:>12}",
        "c_cache", "wall", "peak mem", "misses", "evictions", "gc passes"
    );
    crate::rule(74);
    for factor in [0.01f64, 0.1, 1.0, 10.0] {
        let cap = ((default_cap as f64 * factor) as usize).max(16);
        let mut cfg = JobConfig::cluster(4, 2);
        cfg.cache.capacity = cap;
        cfg.cache.num_buckets = 1024;
        let r = run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        let cache = r.metrics.totals().cache;
        let (misses, evictions, gc) = (cache.misses, cache.evictions, cache.gc_passes);
        println!(
            "{cap:>10} | {:>10} {:>10} {:>10} {:>12} {:>12}",
            fmt_duration(r.elapsed),
            fmt_bytes(r.peak_mem_bytes()),
            misses,
            evictions,
            gc
        );
    }
    println!("\nsmaller caches re-pull evicted vertices (more misses) and trade time for memory");
}
