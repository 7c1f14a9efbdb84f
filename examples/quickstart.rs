//! Quickstart: count triangles of a synthetic social network with
//! G-thinker, first on one simulated machine, then on a simulated
//! 4-machine cluster, and check both against the serial algorithm.
//!
//! Run with: `cargo run --release --example quickstart`

use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;

fn main() {
    // A scale-free graph like the paper's social-network datasets.
    let graph = gen::barabasi_albert(20_000, 6, 42);
    println!("graph: {} vertices, {} edges", graph.num_vertices(), graph.num_edges());

    // Reference: the serial intersection-based counter.
    let serial_start = std::time::Instant::now();
    let expected = count_triangles(&graph);
    println!("serial count:      {expected:>12}   ({:.2?})", serial_start.elapsed());

    // One simulated machine, all local — pure CPU-bound mining.
    let single = run_job(Arc::new(TriangleApp::default()), &graph, &JobConfig::single_machine(4))
        .expect("job runs");
    println!(
        "1 machine  × 4 compers: {:>8}   ({:.2?}, {} tasks)",
        single.global,
        single.elapsed,
        single.total_tasks()
    );
    assert_eq!(single.global, expected);

    // Four simulated machines over a GigE-like interconnect: tasks
    // pull remote adjacency lists through the vertex cache.
    let multi = run_job(Arc::new(TriangleApp::default()), &graph, &JobConfig::cluster(4, 2))
        .expect("job runs");
    println!(
        "4 machines × 2 compers: {:>8}   ({:.2?}, {} KiB over the wire)",
        multi.global,
        multi.elapsed,
        multi.total_net_bytes() / 1024
    );
    assert_eq!(multi.global, expected);

    println!("all counts agree ✓");
}
