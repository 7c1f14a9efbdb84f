//! Distributed γ-quasi-clique mining (QC).
//!
//! This is the motivating example of §III: a task spawned from `v`
//! pulls `Γ(v)` in iteration 1 and the second-hop neighborhood in
//! iteration 2 — for γ ≥ 0.5 any two members of a γ-quasi-clique are
//! within 2 hops (\[17\]) — then mines the 2-hop ego network serially.
//! Deduplication follows the set-enumeration rule: a quasi-clique is
//! counted by the task of its minimum vertex.
//!
//! No trimmer is used: unlike cliques, quasi-clique members need not be
//! adjacent to the anchor, and 2-hop paths may pass through vertices
//! with *smaller* IDs, so full adjacency lists are required.

use crate::serial::quasi::{count_quasi_cliques_state, quasi_candidates};
use crate::triangle::SumAgg;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::subgraph::LocalGraph;

/// The quasi-clique counting application.
pub struct QuasiCliqueApp {
    /// Density threshold γ ∈ [0.5, 1].
    pub gamma: f64,
    /// Smallest quasi-clique size to count.
    pub min_size: usize,
    /// Largest quasi-clique size to count (bounds the enumeration).
    pub max_size: usize,
}

impl QuasiCliqueApp {
    /// Creates the app; `gamma` must be in `[0.5, 1]` for the 2-hop
    /// candidate rule to be sound.
    pub fn new(gamma: f64, min_size: usize, max_size: usize) -> Self {
        assert!((0.5..=1.0).contains(&gamma), "2-hop rule requires γ ≥ 0.5");
        assert!(min_size >= 2 && max_size >= min_size);
        QuasiCliqueApp { gamma, min_size, max_size }
    }
}

/// Maps global IDs to local indices (local index order equals global ID
/// order, so the sorted global-ID table supports binary search).
fn to_locals(local: &LocalGraph, ids: &[VertexId]) -> Vec<u32> {
    let globals: Vec<VertexId> =
        (0..local.num_vertices() as u32).map(|i| local.global_id(i)).collect();
    debug_assert!(globals.windows(2).all(|w| w[0] < w[1]));
    ids.iter()
        .map(|v| globals.binary_search(v).expect("vertex is in the subgraph") as u32)
        .collect()
}

impl App for QuasiCliqueApp {
    /// `(hop, s, cand)`: the hop counter (1 after the first pull round,
    /// 2 after the second), plus — for a subtask split off a straggler —
    /// the set-enumeration node `(S, cand)` as global IDs (`s` empty
    /// for a root task).
    type Context = (u64, Vec<VertexId>, Vec<VertexId>);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.is_empty() {
            return; // min_size ≥ 2 needs at least one neighbor
        }
        let mut t = Task::new((0u64, Vec::new(), Vec::new()));
        t.subgraph.add_vertex(v, adj.clone());
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<(u64, Vec<VertexId>, Vec<VertexId>)>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        if !task.context.1.is_empty() {
            // A split-off enumeration node: the 2-hop ego net is
            // already materialized, the context pins (S, cand).
            let local = task.subgraph.to_local();
            let s = to_locals(&local, &task.context.1);
            let cand = to_locals(&local, &task.context.2);
            let count = count_quasi_cliques_state(
                &local,
                &s,
                &cand,
                self.gamma,
                self.min_size,
                self.max_size,
            );
            if count > 0 {
                env.aggregate(count);
            }
            return false;
        }
        task.context.0 += 1;
        let hop = task.context.0;
        let mut second_hop: Vec<VertexId> = Vec::new();
        for (u, adj) in frontier.iter() {
            if task.subgraph.add_vertex(u, (**adj).clone()) && hop == 1 {
                for w in adj.iter() {
                    if !task.subgraph.contains(w) {
                        second_hop.push(w);
                    }
                }
            }
        }
        if hop == 1 && !second_hop.is_empty() {
            for w in second_hop {
                task.pull(w);
            }
            return true;
        }
        // 2-hop ego network complete.
        let local = task.subgraph.to_local();
        let anchor_global = *task.subgraph.vertex_ids().first().expect("anchor present");
        let anchor = (0..local.num_vertices() as u32)
            .find(|&i| local.global_id(i) == anchor_global)
            .expect("anchor is in its own ego net");
        let cand = quasi_candidates(&local, anchor);
        // Straggler splitting: when the anchor's first-level branching
        // exceeds the compute budget, ship each branch — enumeration
        // node `(S = {anchor, cand[i]}, cand[i+1..])` — as its own
        // task. The root node itself contributes nothing (|S| = 1 <
        // min_size), so the branches partition the anchored count.
        if env.compute_budget().is_some_and(|b| cand.len() as u64 > b) {
            for i in 0..cand.len() {
                let mut sub = Task::new((
                    2u64,
                    local.to_global(&[anchor, cand[i]]),
                    local.to_global(&cand[i + 1..]),
                ));
                sub.subgraph = task.subgraph.clone();
                env.add_task(sub);
            }
            env.note_split(cand.len() as u64);
            return false;
        }
        let count = count_quasi_cliques_state(
            &local,
            &[anchor],
            &cand,
            self.gamma,
            self.min_size,
            self.max_size,
        );
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::quasi::count_quasi_cliques_brute;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn to_local(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        let mut sg = Subgraph::new();
        for v in g.vertices() {
            sg.add_vertex(v, g.neighbors(v).clone());
        }
        sg.to_local()
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
