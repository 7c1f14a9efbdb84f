//! Distributed connected k-plex counting — an extension workload from
//! the T-thinker line the paper opens (§VII).
//!
//! No trimming (2-hop paths may pass through smaller IDs) and a 2-hop
//! ego network, sound because connected k-plexes of size ≥ 2k − 1 have
//! diameter ≤ 2, under the serial hereditary enumerator.

use crate::egonet::{first_level, EgoMiner, EgoNetApp, SetNode};
use crate::serial::kplex::{count_kplexes_state, is_kplex, kplex_candidates};
use gthinker_graph::subgraph::LocalGraph;

/// The k-plex miner: hereditary enumeration over the 2-hop ego network.
pub struct KPlex {
    /// Relaxation parameter k (1 = cliques).
    pub k: usize,
    /// Smallest k-plex size to count (must be ≥ 2k − 1).
    pub min_size: usize,
    /// Largest k-plex size to count.
    pub max_size: usize,
}

/// The k-plex counting application.
pub type KPlexApp = EgoNetApp<KPlex>;

impl KPlexApp {
    /// Creates the app, checking the diameter-2 soundness floor.
    pub fn new(k: usize, min_size: usize, max_size: usize) -> Self {
        assert!(k >= 1);
        assert!(min_size >= 2 * k - 1 && min_size >= 2, "need min_size ≥ 2k−1");
        assert!(max_size >= min_size);
        EgoNetApp(KPlex { k, min_size, max_size })
    }
}

impl EgoMiner for KPlex {
    type Node = SetNode;

    fn radius(&self) -> usize {
        2
    }

    /// Only the viable branches, as in the serial recursion's root
    /// expansion: a `{anchor, u}` that is no k-plex has none above it.
    fn branches(&self, g: &LocalGraph, anchor: u32) -> Vec<SetNode> {
        let mut viable = kplex_candidates(g, anchor);
        viable.retain(|&u| is_kplex(g, &[anchor, u], self.k));
        first_level(g, anchor, &viable)
    }

    fn mine(&self, g: &LocalGraph, anchor: u32, node: Option<&SetNode>) -> u64 {
        let (s, cand) = match node {
            Some((s, cand)) => (g.to_local_ids(s), g.to_local_ids(cand)),
            None => (vec![anchor], kplex_candidates(g, anchor)),
        };
        count_kplexes_state(g, &s, &cand, self.k, self.min_size, self.max_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::kplex::count_kplexes_brute;
    use gthinker_core::prelude::*;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn to_local(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    fn run(g: &Graph, k: usize, min: usize, max: usize, cfg: &JobConfig) -> u64 {
        run_job(Arc::new(KPlexApp::new(k, min, max)), g, cfg).unwrap().global
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..4 {
            let g = gen::gnp(12, 0.35, seed);
            let expected = count_kplexes_brute(&to_local(&g), 2, 3, 5);
            assert_eq!(run(&g, 2, 3, 5, &JobConfig::single_machine(2)), expected, "seed {seed}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = gen::gnp(70, 0.1, 9);
        let single = run(&g, 2, 3, 4, &JobConfig::single_machine(2));
        let multi = run(&g, 2, 3, 4, &JobConfig::cluster(3, 2));
        assert_eq!(single, multi);
    }

    #[test]
    fn compute_budget_split_matches_unbudgeted_run() {
        for seed in 0..3 {
            let g = gen::gnp(30, 0.18, seed + 200);
            let expected = run(&g, 2, 3, 4, &JobConfig::single_machine(2));
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(2);
            let r = run_job(Arc::new(KPlexApp::new(2, 3, 4)), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "seed {seed}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "seed {seed}: budget should have split some node");
        }
    }

    #[test]
    fn one_plex_counts_equal_clique_counts() {
        // k = 1 reduces to connected cliques = cliques.
        let g = gen::gnp(14, 0.4, 21);
        let expected = count_kplexes_brute(&to_local(&g), 1, 3, 4);
        assert_eq!(run(&g, 1, 3, 4, &JobConfig::single_machine(2)), expected);
    }

    #[test]
    #[should_panic(expected = "2k−1")]
    fn unsound_sizes_rejected() {
        let _ = KPlexApp::new(3, 4, 6);
    }
}
