//! Distributed subgraph matching (GM).
//!
//! Given a small connected labeled query [`Pattern`], counts its
//! embeddings in the data graph. Redundancy is avoided by partitioning
//! the search space over *instances of the anchor label* (the strategy
//! the paper attributes to its preprint \[34\]): each task counts only
//! the embeddings that map query vertex 0 to its spawn vertex, over the
//! anchor's ego network out to the query's anchor radius — of query
//! labels only: the [`LabelSetTrimmer`] removed the rest from every list.

use crate::egonet::{EgoMiner, EgoNetApp};
use crate::serial::matching::{count_embeddings_from, count_embeddings_from_pair, Pattern};
use gthinker_core::prelude::*;
use gthinker_graph::subgraph::LocalGraph;
use gthinker_graph::trim::{LabelSetTrimmer, Trimmer};

/// The matching miner: serial backtracking from the anchor.
pub struct Matching {
    pattern: Pattern,
    /// The data graph's label table (needed by the trimmer).
    labels: Vec<Label>,
}

/// The subgraph matching application.
pub type MatchingApp = EgoNetApp<Matching>;

impl MatchingApp {
    /// Creates a matching job for `pattern` over a data graph with the
    /// given label table.
    pub fn new(pattern: Pattern, labels: Vec<Label>) -> Self {
        EgoNetApp(Matching { pattern, labels })
    }

    /// The query pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.0.pattern
    }
}

impl EgoMiner for Matching {
    /// The data vertex assigned to the second matching-order vertex.
    type Node = VertexId;
    const LABELED: bool = true;

    fn radius(&self) -> usize {
        self.pattern.anchor_radius()
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(LabelSetTrimmer::new(&self.pattern.label_set(), self.labels.clone())))
    }

    /// Only an anchor-label vertex with an eligible neighbor anchors a task.
    fn answer_at_spawn(&self, adj: &AdjList, label: Option<Label>) -> Option<u64> {
        match (label == Some(self.pattern.label(0)), self.pattern.num_vertices()) {
            (false, _) => Some(0),
            (true, 1) => Some(1), // the pattern is a single labeled vertex
            (true, _) => adj.is_empty().then_some(0),
        }
    }

    /// One branch per candidate for the second matching-order vertex
    /// (at depth 1 exactly `Γ(anchor)`); they partition the count.
    fn branches(&self, g: &LocalGraph, anchor: u32) -> Vec<VertexId> {
        let second = Some(self.pattern.label(self.pattern.matching_order()[1]));
        let seconds = g.neighbors(anchor).iter().filter(|&&c| g.label(c) == second);
        seconds.map(|&c| g.global_id(c)).collect()
    }

    fn mine(&self, g: &LocalGraph, anchor: u32, node: Option<&VertexId>) -> u64 {
        match node.map(|&v| g.local_id(v).expect("the pre-assigned vertex is a member")) {
            Some(second) => count_embeddings_from_pair(g, &self.pattern, anchor, second),
            None => count_embeddings_from(g, &self.pattern, anchor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::matching::count_embeddings_brute;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn to_local(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    fn run(g: &Graph, pattern: Pattern, cfg: &JobConfig) -> u64 {
        let app = MatchingApp::new(pattern, g.labels().unwrap().to_vec());
        run_job(Arc::new(app), g, cfg).unwrap().global
    }

    #[test]
    fn triangle_pattern_matches_brute_force() {
        for seed in 0..4 {
            let g = gen::random_labels(gen::gnp(30, 0.2, seed), 2, seed + 9);
            let p = Pattern::triangle(Label(0), Label(1), Label(1));
            let expected = count_embeddings_brute(&to_local(&g), &p);
            assert_eq!(run(&g, p, &JobConfig::single_machine(2)), expected, "seed {seed}");
        }
    }

    #[test]
    fn path_pattern_radius_two_matches_brute_force() {
        for seed in 0..3 {
            let g = gen::random_labels(gen::gnp(24, 0.18, seed + 20), 3, seed + 31);
            let p = Pattern::path3(Label(0), Label(1), Label(2));
            let expected = count_embeddings_brute(&to_local(&g), &p);
            assert_eq!(run(&g, p, &JobConfig::single_machine(2)), expected, "seed {seed}");
        }
    }

    #[test]
    fn distributed_matches_single_machine() {
        let g = gen::random_labels(gen::barabasi_albert(300, 4, 8), 3, 77);
        let p = Pattern::triangle(Label(0), Label(1), Label(2));
        let single = run(&g, p.clone(), &JobConfig::single_machine(2));
        let multi = run(&g, p, &JobConfig::cluster(3, 2));
        assert_eq!(single, multi);
    }

    #[test]
    fn compute_budget_split_matches_unbudgeted_run() {
        for seed in 0..3 {
            let g = gen::random_labels(gen::gnp(30, 0.2, seed + 50), 2, seed + 61);
            let p = Pattern::triangle(Label(0), Label(1), Label(1));
            let expected = run(&g, p.clone(), &JobConfig::single_machine(2));
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(2);
            let app = MatchingApp::new(p, g.labels().unwrap().to_vec());
            let r = run_job(Arc::new(app), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "seed {seed}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "seed {seed}: budget should have split some anchor");
        }
    }

    #[test]
    fn single_vertex_pattern_counts_label_instances() {
        let g = gen::random_labels(gen::cycle(12), 2, 5);
        let expected = g.vertices().filter(|&v| g.label(v) == Some(Label(1))).count() as u64;
        let p = Pattern::new(vec![Label(1)], &[]);
        assert_eq!(run(&g, p, &JobConfig::single_machine(1)), expected);
    }
}
