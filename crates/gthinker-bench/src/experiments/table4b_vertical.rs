//! Table IV(b) — vertical scalability: MCF on the Friendster stand-in
//! with 16 simulated machines as compers per machine grow 1 → 16.
//!
//! Expected shape (paper): more compers improve performance, with
//! diminishing returns from 8 → 16 (small tasks cannot hide IO).
//!
//! `cargo run -p gthinker-bench --release -- table4b_vertical [--scale f]`

use crate::{fmt_bytes, fmt_duration, modeled_parallel_time};
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Friendster, scale);
    println!("Table IV(b) — vertical scalability, MCF on {} with 16 machines\n", d.kind.name());
    println!(
        "{:>8} | {:>10} {:>12} {:>12} {:>10} | clique",
        "compers", "wall", "modeled ∥", "speedup ∥", "peak mem"
    );
    crate::rule(72);
    let mut base_modeled: Option<f64> = None;
    for compers in [1usize, 2, 4, 8, 16] {
        let cfg = JobConfig::cluster(16, compers);
        let r = run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &cfg).unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        let modeled = modeled_parallel_time(&r, compers);
        let base = *base_modeled.get_or_insert(modeled.as_secs_f64());
        println!(
            "{compers:>8} | {:>10} {:>12} {:>11.2}× {:>10} | {}",
            fmt_duration(r.elapsed),
            fmt_duration(modeled),
            base / modeled.as_secs_f64().max(1e-9),
            fmt_bytes(r.peak_mem_bytes()),
            r.global.len()
        );
    }
}
