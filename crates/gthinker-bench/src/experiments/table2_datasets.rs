//! Table II — dataset statistics.
//!
//! The paper lists the five real graphs' `|V|` and `|E|`. This experiment
//! generates the synthetic stand-ins at the chosen scale and prints
//! their statistics next to the real datasets' published sizes, plus
//! the degree-skew columns that justify the BTC stand-in's hub overlay.
//!
//! `cargo run -p gthinker-bench --release -- table2_datasets [--scale f]`

use gthinker_graph::datasets::{generate, DatasetKind};
use gthinker_graph::stats::GraphStats;

pub fn run(scale: f64) {
    println!("Table II — datasets (stand-ins at scale {scale})\n");
    println!(
        "{:<14} {:>12} {:>14} | {:>8} {:>10} {:>8} {:>9} {:>8}",
        "dataset", "paper |V|", "paper |E|", "|V|", "|E|", "max deg", "avg deg", "p99 deg"
    );
    crate::rule(92);
    for &kind in &DatasetKind::ALL {
        let d = generate(kind, scale);
        let s = GraphStats::of(&d.graph);
        let (pv, pe) = kind.paper_size();
        println!(
            "{:<14} {:>12} {:>14} | {:>8} {:>10} {:>8} {:>9.1} {:>8}",
            kind.name(),
            pv,
            pe,
            s.num_vertices,
            s.num_edges,
            s.max_degree,
            s.avg_degree,
            s.degree_p99
        );
    }
    println!(
        "\nplanted cliques: {}",
        DatasetKind::ALL
            .iter()
            .map(|&k| format!("{}={}", k.name(), generate(k, scale).planted_clique.len()))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
