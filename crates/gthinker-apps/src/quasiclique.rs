//! Distributed γ-quasi-clique mining (QC).
//!
//! This is the motivating example of §III: a task spawned from `v`
//! mines `v`'s 2-hop ego network — for γ ≥ 0.5 any two members of a
//! γ-quasi-clique are within 2 hops (\[17\]) — and counts the
//! quasi-cliques whose minimum vertex is `v` (set-enumeration rule).
//! No trimmer: members need not be adjacent to the anchor, and 2-hop
//! paths may pass through vertices with *smaller* IDs.

use crate::egonet::EgoNetApp;
pub use crate::serial::quasi::QuasiClique;

/// The quasi-clique counting application.
pub type QuasiCliqueApp = EgoNetApp<QuasiClique>;

impl QuasiCliqueApp {
    /// Creates the app ([`QuasiClique::new`]).
    pub fn new(gamma: f64, min_size: usize, max_size: usize) -> Self {
        EgoNetApp(QuasiClique::new(gamma, min_size, max_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::quasi::count_quasi_cliques_brute;
    use gthinker_core::prelude::*;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn to_local(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    fn run(g: &Graph, gamma: f64, min: usize, max: usize, cfg: &JobConfig) -> u64 {
        run_job(Arc::new(QuasiCliqueApp::new(gamma, min, max)), g, cfg).unwrap().global
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        for seed in 0..5 {
            let g = gen::gnp(12, 0.35, seed);
            let expected = count_quasi_cliques_brute(&to_local(&g), 0.6, 3, 5);
            let got = run(&g, 0.6, 3, 5, &JobConfig::single_machine(2));
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = gen::gnp(60, 0.12, 44);
        let single = run(&g, 0.5, 3, 4, &JobConfig::single_machine(2));
        let multi = run(&g, 0.5, 3, 4, &JobConfig::cluster(3, 2));
        assert_eq!(single, multi);
    }

    #[test]
    fn compute_budget_split_matches_unbudgeted_run() {
        for seed in 0..3 {
            let g = gen::gnp(30, 0.2, seed + 100);
            let expected = run(&g, 0.6, 3, 5, &JobConfig::single_machine(2));
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(2);
            let r = run_job(Arc::new(QuasiCliqueApp::new(0.6, 3, 5)), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "seed {seed}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "seed {seed}: budget should have split some node");
        }
    }

    #[test]
    fn full_cliques_counted_at_gamma_one() {
        // K4: quasi-cliques at γ=1 are exactly its cliques of each size:
        // C(4,3)=4 triangles + 1 four-clique for sizes 3..4.
        let g = gen::complete(4);
        assert_eq!(run(&g, 1.0, 3, 4, &JobConfig::single_machine(1)), 5);
    }

    #[test]
    fn edgeless_graph_counts_zero() {
        let g = Graph::with_vertices(6);
        assert_eq!(run(&g, 0.6, 2, 4, &JobConfig::single_machine(1)), 0);
    }
}
