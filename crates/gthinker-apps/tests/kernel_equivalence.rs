//! Differential tests: the word-parallel bitset kernels and the
//! sorted-list kernels must be observationally identical.
//!
//! Every serial miner dispatches on [`LocalGraph::is_dense`], so the
//! same graph snapshotted with `to_local()` (dense) and with
//! `to_local_with_threshold(0)` (forced sparse) drives both code paths;
//! the results must match bit for bit. Sizes straddle a small explicit
//! threshold — below, exactly at, and just above — plus the n = 0 and
//! n = 1 degenerate snapshots, so the dispatch boundary itself is
//! exercised, not just the two extremes.

use gthinker_apps::serial::clique::{max_clique_above, max_clique_brute};
use gthinker_apps::serial::maximal::{count_maximal_cliques, list_maximal_cliques};
use gthinker_apps::serial::triangle::count_triangles_local;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::subgraph::{LocalGraph, Subgraph};

/// The straddle threshold: small enough that gnp graphs around it stay
/// cheap, large enough that rows span more than one 64-bit word.
const THRESHOLD: usize = 80;

/// Both representations of the same graph: `(dense, sparse)`.
fn both(g: &Graph) -> (LocalGraph, LocalGraph) {
    let sg = Subgraph::from_graph(g);
    let dense = sg.to_local_with_threshold(usize::MAX);
    let sparse = sg.to_local_with_threshold(0);
    assert!(dense.is_dense() && !sparse.is_dense());
    (dense, sparse)
}

/// Sizes straddling `THRESHOLD`, plus the degenerate snapshots.
fn straddle_sizes() -> [usize; 5] {
    [0, 1, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1]
}

#[test]
fn dispatch_flips_exactly_at_threshold() {
    for n in straddle_sizes() {
        let sg = Subgraph::from_graph(&gen::gnp(n, 0.3, 7));
        let l = sg.to_local_with_threshold(THRESHOLD);
        assert_eq!(l.is_dense(), n <= THRESHOLD, "n = {n}");
    }
}

#[test]
fn max_clique_agrees_across_kernels() {
    for n in straddle_sizes() {
        for seed in 0..3 {
            let g = gen::gnp(n, 0.4, seed);
            let (dense, sparse) = both(&g);
            for lb in [0usize, 2, 4] {
                let a = max_clique_above(&dense, lb).map(|c| c.len());
                let b = max_clique_above(&sparse, lb).map(|c| c.len());
                assert_eq!(a, b, "n {n} seed {seed} lb {lb}");
            }
        }
    }
}

#[test]
fn max_clique_result_is_a_clique_of_reported_size() {
    // Agreement alone could hide two kernels that are wrong the same
    // way; check the dense kernel's witness against the graph.
    for seed in 0..3 {
        let g = gen::gnp(THRESHOLD, 0.4, seed + 50);
        let (dense, _) = both(&g);
        let c = max_clique_above(&dense, 0).expect("nonempty graph has a clique");
        for (i, &u) in c.iter().enumerate() {
            for &v in &c[i + 1..] {
                assert!(dense.has_edge(u, v), "witness not a clique");
            }
        }
    }
    // Exponential brute force anchors both kernels on a small graph.
    for seed in 0..4 {
        let g = gen::gnp(18, 0.5, seed + 90);
        let (dense, sparse) = both(&g);
        let best = max_clique_brute(&dense).len();
        assert_eq!(max_clique_above(&dense, 0).map(|c| c.len()), Some(best));
        assert_eq!(max_clique_above(&sparse, 0).map(|c| c.len()), Some(best));
    }
}

#[test]
fn triangle_counts_agree_across_kernels() {
    for n in straddle_sizes() {
        for seed in 0..3 {
            let g = gen::gnp(n, 0.3, seed + 10);
            let (dense, sparse) = both(&g);
            assert_eq!(
                count_triangles_local(&dense),
                count_triangles_local(&sparse),
                "n {n} seed {seed}"
            );
        }
    }
}

#[test]
fn maximal_clique_enumeration_agrees_across_kernels() {
    for n in straddle_sizes() {
        // Keep density moderate: maximal-clique output grows quickly.
        let g = gen::gnp(n, 0.2, n as u64 + 3);
        let (dense, sparse) = both(&g);
        assert_eq!(count_maximal_cliques(&dense), count_maximal_cliques(&sparse), "n {n}");
        let mut a = list_maximal_cliques(&dense);
        let mut b = list_maximal_cliques(&sparse);
        a.sort();
        b.sort();
        assert_eq!(a, b, "n {n}");
    }
}

#[test]
fn default_threshold_path_matches_forced_sparse_on_real_sizes() {
    // End-to-end over the public entry points exactly as an app task
    // would call them: `to_local()` (dense at these sizes by default)
    // versus the forced-sparse snapshot.
    for seed in 0..2 {
        let g = gen::barabasi_albert(150, 4, seed);
        let sg = Subgraph::from_graph(&g);
        let default = sg.to_local();
        let sparse = sg.to_local_with_threshold(0);
        assert!(default.is_dense());
        assert_eq!(
            max_clique_above(&default, 0).map(|c| c.len()),
            max_clique_above(&sparse, 0).map(|c| c.len())
        );
        assert_eq!(count_triangles_local(&default), count_triangles_local(&sparse));
        assert_eq!(count_maximal_cliques(&default), count_maximal_cliques(&sparse));
    }
}
