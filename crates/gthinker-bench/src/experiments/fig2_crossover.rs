//! Fig. 2 — the IO-vs-CPU crossover that motivates G-thinker.
//!
//! The paper argues: the IO cost of materializing a task's subgraph
//! `g` is linear in `|g|`, while the CPU cost of mining `g` grows much
//! faster, so beyond a modest `|g|` the mining cost dominates and IO
//! can hide inside computation. This experiment measures both costs for
//! ego-network tasks of growing size and reports the crossover.
//!
//! IO cost = time to collect + copy the adjacency lists (as a pull
//! response would) + modeled GigE transfer time of those bytes.
//! CPU cost = time for the serial maximum-clique solver on `g`.
//!
//! `cargo run -p gthinker-bench --release -- fig2_crossover`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::serial::clique::max_clique_above;
use gthinker_graph::adj::AdjList;
use gthinker_graph::gen;
use gthinker_graph::subgraph::Subgraph;
use std::time::{Duration, Instant};

/// GigE payload bandwidth.
const BYTES_PER_SEC: f64 = 125_000_000.0;

pub fn run(_scale: f64) {
    println!("Fig. 2 — cost of constructing g (IO) vs mining g (CPU)\n");
    println!(
        "{:>6} {:>10} | {:>12} {:>14} | {:>12} | dominant",
        "|g|", "edges", "construct", "+GigE transfer", "mine (MCF)"
    );
    crate::rule(84);
    let mut crossover: Option<usize> = None;
    for &size in &[16usize, 32, 64, 128, 256, 512, 1024] {
        // A fixed-density candidate subgraph (p tuned so cliques grow
        // with size, like the dense cores real tasks encounter).
        let g = gen::gnp(size, 0.2, size as u64);

        // "IO": gather (v, Γ(v)) pairs and copy them into the task's
        // subgraph — what a pull response + Subgraph construction does.
        let t0 = Instant::now();
        let mut bytes = 0usize;
        let mut sg = Subgraph::new();
        for v in g.vertices() {
            let adj: AdjList = g.neighbors(v).clone();
            bytes += 8 + 4 * adj.degree();
            sg.add_vertex(v, adj);
        }
        let construct = t0.elapsed();
        let transfer = Duration::from_secs_f64(bytes as f64 / BYTES_PER_SEC);
        let io_total = construct + transfer;

        // "CPU": serial mining on the materialized subgraph.
        let local = sg.to_local();
        let t1 = Instant::now();
        let found = max_clique_above(&local, 0).expect("non-empty graph");
        let mine = t1.elapsed();
        let _ = found;

        let dominant = if mine > io_total { "CPU" } else { "IO" };
        if dominant == "CPU" && crossover.is_none() {
            crossover = Some(size);
        }
        println!(
            "{size:>6} {:>10} | {:>12} {:>14} | {:>12} | {dominant}",
            g.num_edges(),
            fmt_duration(construct),
            fmt_duration(transfer),
            fmt_duration(mine),
        );
        let _ = fmt_bytes(bytes as u64);
    }
    match crossover {
        Some(s) => println!(
            "\nCPU cost overtakes IO at |g| ≈ {s}: tasks above this size hide their own IO \
             (the paper's Fig. 2 argument)"
        ),
        None => println!("\nno crossover in the measured range — increase sizes"),
    }
}
