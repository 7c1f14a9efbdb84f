//! Table IV(a) — horizontal scalability: MCF on the Friendster
//! stand-in as the number of simulated machines grows 1 → 16 (4
//! compers each, GigE-like links).
//!
//! Expected shape (paper): more machines generally improve runtime;
//! the lone exception is 1 → 2, because a single machine never waits
//! for remote vertices. Peak per-machine memory falls as the graph
//! partition shrinks.
//!
//! `cargo run -p gthinker-bench --release -- table4a_horizontal [--scale f]`

use crate::{fmt_bytes, fmt_duration, load_balance, modeled_parallel_time};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Friendster, scale);
    println!(
        "Table IV(a) — horizontal scalability, MCF on {} ({} V, {} E)\n",
        d.kind.name(),
        d.graph.num_vertices(),
        d.graph.num_edges()
    );
    println!(
        "{:>5} | {:>10} {:>12} {:>10} {:>10} {:>8} | clique",
        "VMs", "wall", "modeled ∥", "peak mem", "net sent", "balance"
    );
    crate::rule(80);
    let compers = 4;
    for workers in [1usize, 2, 4, 8, 16] {
        let cfg = JobConfig::cluster(workers, compers);
        let r = run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        println!(
            "{workers:>5} | {:>10} {:>12} {:>10} {:>10} {:>8.2} | {}",
            fmt_duration(r.elapsed),
            fmt_duration(modeled_parallel_time(&r, compers)),
            fmt_bytes(r.peak_mem_bytes()),
            fmt_bytes(r.total_net_bytes()),
            load_balance(&r),
            r.global.len()
        );
    }
    println!(
        "\nmodeled ∥ = max-worker compute CPU time / compers (see gthinker-bench docs);\n\
         on a multi-core host wall-clock follows it when communication hides in computation"
    );
}
