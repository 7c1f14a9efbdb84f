//! Table IV(c) — single-machine scalability: MCF on the Friendster
//! stand-in with one machine as comper count grows 1 → 16.
//!
//! Expected shape (paper): almost linear speedup — with no remote
//! vertices to wait for, computation divides perfectly across compers.
//! The modeled-∥ column shows exactly that division; on a multi-core
//! host the wall column tracks it.
//!
//! `cargo run -p gthinker-bench --release -- table4c_single [--scale f]`

use crate::{fmt_bytes, fmt_duration, modeled_parallel_time};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Friendster, scale);
    println!("Table IV(c) — single-machine scalability, MCF on {}\n", d.kind.name());
    println!(
        "{:>8} | {:>10} {:>12} {:>12} {:>10} {:>12} | clique",
        "compers", "wall", "modeled ∥", "speedup ∥", "peak mem", "cache misses"
    );
    crate::rule(86);
    let mut base: Option<f64> = None;
    for compers in [1usize, 2, 4, 8, 16] {
        let cfg = JobConfig::single_machine(compers);
        let r = run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        let modeled = modeled_parallel_time(&r, compers);
        let b = *base.get_or_insert(modeled.as_secs_f64());
        let misses: u64 = r.metrics.totals().cache.misses;
        println!(
            "{compers:>8} | {:>10} {:>12} {:>11.2}× {:>10} {:>12} | {}",
            fmt_duration(r.elapsed),
            fmt_duration(modeled),
            b / modeled.as_secs_f64().max(1e-9),
            fmt_bytes(r.peak_mem_bytes()),
            misses,
            r.global.len()
        );
        assert_eq!(misses, 0, "single machine must never pull remote vertices");
    }
}
