//! Distributed connected k-plex counting — an extension workload from
//! the T-thinker line the paper opens (§VII).
//!
//! No trimming (2-hop paths may pass through smaller IDs) and a 2-hop
//! ego network, sound because connected k-plexes of size ≥ 2k − 1 have
//! diameter ≤ 2, under the hereditary k-plex rule.

use crate::egonet::EgoNetApp;
pub use crate::serial::kplex::KPlex;

/// The k-plex counting application.
pub type KPlexApp = EgoNetApp<KPlex>;

impl KPlexApp {
    /// Creates the app ([`KPlex::new`]).
    pub fn new(k: usize, min_size: usize, max_size: usize) -> Self {
        EgoNetApp(KPlex::new(k, min_size, max_size))
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
