//! Distributed maximal clique enumeration (MC), the other clique workload.
//!
//! Deduplication follows degeneracy-style Bron–Kerbosch: the task
//! spawned from `v` enumerates exactly the maximal cliques whose
//! **minimum vertex** is `v`, by seeding `R = {v}`, `P = Γ_>(v)`,
//! `X = Γ_<(v)`, over `v`'s full 1-hop ego network (untrimmed lists:
//! `X` needs the smaller neighbors too).

use crate::egonet::{EgoMiner, EgoNetApp};
use crate::serial::maximal::bron_kerbosch;
use gthinker_core::prelude::*;
use gthinker_graph::subgraph::LocalGraph;

/// The maximal-clique miner: Bron–Kerbosch over the 1-hop ego network.
pub struct MaximalClique;

/// Counts maximal cliques, partitioned by minimum vertex.
pub type MaximalCliqueApp = EgoNetApp<MaximalClique>;

/// The app as a value, as a unit struct of that name would be.
#[allow(non_upper_case_globals)]
pub const MaximalCliqueApp: MaximalCliqueApp = EgoNetApp(MaximalClique);

impl EgoMiner for MaximalClique {
    /// The branch vertex `v` of the root's child node `R = {anchor, v}`.
    type Node = VertexId;

    fn radius(&self) -> usize {
        1
    }

    fn answer_at_spawn(&self, adj: &AdjList, _label: Option<Label>) -> Option<u64> {
        adj.is_empty().then_some(1) // an isolated vertex is itself a maximal clique
    }

    /// Expands the root once *without* pivoting: every `P` vertex (every
    /// larger neighbor of the anchor) branches. Each maximal clique is
    /// still reported by exactly one child, and none by the root.
    fn branches(&self, g: &LocalGraph, anchor: u32) -> Vec<VertexId> {
        let nbrs = g.neighbors(anchor);
        g.to_global(&nbrs[nbrs.partition_point(|&u| u < anchor)..])
    }

    /// `P` and `X` are the common neighbors of `R` above and below its
    /// last vertex (local index order is global ID order): `Γ_>` and
    /// `Γ_<` of the anchor for the root; for branch `v`, what the serial
    /// recursion holds there — `P` less, `X` plus, every smaller branch.
    fn mine(&self, g: &LocalGraph, anchor: u32, node: Option<&VertexId>) -> u64 {
        let mut r = vec![anchor];
        let mut common = g.neighbors(anchor).to_vec();
        if let Some(&v) = node {
            r.push(g.local_id(v).expect("the branch vertex is a member"));
            common.retain(|&u| g.has_edge(r[1], u));
        }
        let (x, p) = common.split_at(common.partition_point(|&u| u < r[r.len() - 1]));
        let mut count = 0u64;
        bron_kerbosch(g, &mut r, p.to_vec(), x.to_vec(), &mut |_| count += 1);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::maximal::count_maximal_cliques;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn serial_count(g: &Graph) -> u64 {
        count_maximal_cliques(&Subgraph::from_graph(g).to_local())
    }

    fn run(g: &Graph, cfg: &JobConfig) -> u64 {
        run_job(Arc::new(MaximalCliqueApp), g, cfg).unwrap().global
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::gnp(40, 0.2, seed);
            assert_eq!(run(&g, &JobConfig::single_machine(2)), serial_count(&g), "seed {seed}");
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let g = gen::barabasi_albert(300, 4, 6);
        assert_eq!(run(&g, &JobConfig::cluster(3, 2)), serial_count(&g));
    }

    #[test]
    fn compute_budget_split_matches_serial() {
        for seed in 0..3 {
            let g = gen::gnp(40, 0.25, seed);
            let expected = serial_count(&g);
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(2);
            let r = run_job(Arc::new(MaximalCliqueApp), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "seed {seed}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "seed {seed}: budget should have split some BK root");
        }
    }

    #[test]
    fn known_counts() {
        assert_eq!(run(&gen::complete(6), &JobConfig::single_machine(1)), 1);
        assert_eq!(run(&gen::cycle(6), &JobConfig::single_machine(1)), 6);
        assert_eq!(run(&Graph::with_vertices(4), &JobConfig::single_machine(1)), 4);
    }
}
