//! Kernel crossover — where the word-parallel bitset miners overtake
//! the sorted-list miners (DESIGN.md §"Kernel selection").
//!
//! For growing task-subgraph sizes at fixed density, times the serial
//! maximum-clique solve with both kernels on the same snapshot and
//! reports the speedup. The dense adjacency matrix costs n²/8 bytes,
//! so the interesting question is not *whether* bits win on dense
//! cores but how early — which justifies the default threshold in
//! `LocalGraph` being far above typical task sizes. The other two
//! kernels with a bitset path — maximal-clique enumeration and local
//! triangle counting — are timed the same way at one dense size each.
//!
//! `cargo run -p gthinker-bench --release -- kernel_crossover [--scale f]`

use crate::fmt_duration;
use gthinker_apps::serial::clique::{max_clique_above_bitset, max_clique_above_lists};
use gthinker_apps::serial::maximal::count_maximal_cliques;
use gthinker_apps::serial::triangle::count_triangles_local;
use gthinker_graph::gen;
use gthinker_graph::subgraph::{LocalGraph, Subgraph};
use std::time::{Duration, Instant};

fn time_it(mut f: impl FnMut() -> usize) -> (Duration, usize) {
    // One warm-up, then best of three (serial solves are deterministic;
    // min filters scheduler noise).
    let mut out = f();
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        out = std::hint::black_box(f());
        best = best.min(t.elapsed());
    }
    (best, out)
}

/// G(n, p) as a task subgraph, with the bit matrix forced on and off.
fn dense_and_sparse(n: usize, p: f64, seed: u64) -> (LocalGraph, LocalGraph) {
    let sg = Subgraph::from_graph(&gen::gnp(n, p, seed));
    (sg.to_local_with_threshold(usize::MAX), sg.to_local_with_threshold(0))
}

pub fn run(scale: f64) {
    println!("Kernel crossover — sorted-list vs bitset maximum clique, G(n, 0.5)\n");
    println!("{:>6} | {:>12} {:>12} | {:>8} | ω", "n", "lists", "bitset", "speedup");
    crate::rule(58);
    let sizes = [32usize, 64, 96, 128, 192, 256];
    let take = ((sizes.len() as f64 * scale).round() as usize).clamp(1, sizes.len());
    for &n in sizes.iter().take(take) {
        let (dense, sparse) = dense_and_sparse(n, 0.5, n as u64);
        let (t_lists, w1) = time_it(|| max_clique_above_lists(&sparse, 0).map_or(0, |c| c.len()));
        let (t_bits, w2) = time_it(|| max_clique_above_bitset(&dense, 0).map_or(0, |c| c.len()));
        assert_eq!(w1, w2, "kernels disagree on ω at n = {n}");
        println!(
            "{:>6} | {:>12} {:>12} | {:>7.2}x | {}",
            n,
            fmt_duration(t_lists),
            fmt_duration(t_bits),
            t_lists.as_secs_f64() / t_bits.as_secs_f64().max(1e-12),
            w1
        );
    }
    println!();
    let maximal: fn(&LocalGraph) -> u64 = count_maximal_cliques;
    for (what, kernel, (dense, sparse)) in [
        ("maximal cliques, G(120, 0.3)", maximal, dense_and_sparse(120, 0.3, 11)),
        ("local triangles, G(400, 0.2)", count_triangles_local, dense_and_sparse(400, 0.2, 5)),
    ] {
        let (t_lists, c1) = time_it(|| kernel(&sparse) as usize);
        let (t_bits, c2) = time_it(|| kernel(&dense) as usize);
        assert_eq!(c1, c2, "kernels disagree on {what}");
        println!(
            "{what}: lists {}, bitset {}, {:.2}x",
            fmt_duration(t_lists),
            fmt_duration(t_bits),
            t_lists.as_secs_f64() / t_bits.as_secs_f64().max(1e-12)
        );
    }
    println!("\nspeedup = lists / bitset; > 1 means the word-parallel kernel wins");
}
