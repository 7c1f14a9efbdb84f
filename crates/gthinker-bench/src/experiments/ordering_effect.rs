//! Vertex-ordering effect on MCF — §VI's discussion of the Skitter
//! anomaly: "this is irrelevant to system design and really depends on
//! how vertices are ordered in the input file (and hence in `T_local`
//! after graph loading)".
//!
//! The set-enumeration tree is anchored on vertex IDs, so the input
//! ordering decides the size distribution of top-level tasks. This
//! experiment runs MCF on the same graph under three orderings — natural
//! (generator order), degeneracy, and reverse-degeneracy — and reports
//! max |Γ_>| (the top-level task size bound) next to runtime.
//!
//! `cargo run -p gthinker-bench --release -- ordering_effect [--scale f]`

use crate::fmt_duration;
use gthinker_apps::MaxCliqueApp;
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use gthinker_graph::order::{degeneracy_order, max_forward_degree, relabel_by};
use std::sync::Arc;

pub fn run(scale: f64) {
    let d = generate(DatasetKind::Skitter, scale);
    let g = &d.graph;
    println!(
        "Ordering effect — MCF on {} ({} V, {} E), 1 machine × 4 compers\n",
        d.kind.name(),
        g.num_vertices(),
        g.num_edges()
    );
    let (order, degeneracy) = degeneracy_order(g);
    let reversed: Vec<_> = order.iter().rev().copied().collect();
    let degeneracy_graph = relabel_by(g, &order);
    let reversed_graph = relabel_by(g, &reversed);
    println!("graph degeneracy: {degeneracy}\n");
    println!(
        "{:<22} | {:>12} {:>14} | {:>10} {:>10}",
        "ordering", "max |Γ_>|", "Σ|Γ_>|² (work)", "wall", "tasks"
    );
    crate::rule(80);
    for (name, graph) in [
        ("natural (generator)", g),
        ("degeneracy", &degeneracy_graph),
        ("reverse degeneracy", &reversed_graph),
    ] {
        let work: u128 = graph
            .vertices()
            .map(|v| {
                let f = graph.neighbors(v).greater_than(v).len() as u128;
                f * f
            })
            .sum();
        let r = run_job(Arc::new(MaxCliqueApp::default()), graph, &JobConfig::single_machine(4))
            .unwrap();
        assert!(r.global.len() >= d.planted_clique.len());
        println!(
            "{name:<22} | {:>12} {:>14} | {:>10} {:>10}",
            max_forward_degree(graph),
            work,
            fmt_duration(r.elapsed),
            r.total_tasks()
        );
    }
    println!(
        "\ndegeneracy ordering bounds every top-level candidate set by the degeneracy,\n\
         flattening the task-size distribution the paper's Skitter anomaly hinges on"
    );
}
