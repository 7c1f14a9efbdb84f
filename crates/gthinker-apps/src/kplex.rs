//! Distributed connected k-plex counting — an extension workload from
//! the T-thinker line the paper opens (§VII).
//!
//! Structure mirrors the quasi-clique app: no trimming (2-hop paths
//! may pass through smaller IDs), two pull rounds to build the anchor's
//! 2-hop ego network (sound because connected k-plexes of size
//! ≥ 2k − 1 have diameter ≤ 2), then the serial hereditary enumerator.

use crate::serial::kplex::{count_kplexes_state, is_kplex, kplex_candidates};
use crate::triangle::SumAgg;
use gthinker_core::prelude::*;
use gthinker_graph::subgraph::LocalGraph;

/// The k-plex counting application.
pub struct KPlexApp {
    /// Relaxation parameter k (1 = cliques).
    pub k: usize,
    /// Smallest k-plex size to count (must be ≥ 2k − 1).
    pub min_size: usize,
    /// Largest k-plex size to count.
    pub max_size: usize,
}

impl KPlexApp {
    /// Creates the app, checking the diameter-2 soundness floor.
    pub fn new(k: usize, min_size: usize, max_size: usize) -> Self {
        assert!(k >= 1);
        assert!(min_size >= 2 * k - 1 && min_size >= 2, "need min_size ≥ 2k−1");
        assert!(max_size >= min_size);
        KPlexApp { k, min_size, max_size }
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

impl App for KPlexApp {
    /// `(hop, s, cand)`: the hop counter, plus — for a subtask split
    /// off a straggler — the enumeration node `(S, cand)` as global IDs
    /// (`s` empty for a root task).
    type Context = (u64, Vec<VertexId>, Vec<VertexId>);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.is_empty() {
            return; // connected k-plexes of size ≥ 2 need a neighbor
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
            let count =
                count_kplexes_state(&local, &s, &cand, self.k, self.min_size, self.max_size);
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
        let local = task.subgraph.to_local();
        let anchor_global = *task.subgraph.vertex_ids().first().expect("anchor present");
        let anchor = (0..local.num_vertices() as u32)
            .find(|&i| local.global_id(i) == anchor_global)
            .expect("anchor in its ego net");
        // Straggler splitting: ship each viable first-level branch —
        // `(S = {anchor, b}, later viable branches)`, mirroring the
        // serial recursion's root expansion — as its own task when the
        // branching exceeds the compute budget. The root node itself
        // contributes nothing (|S| = 1 < min_size).
        if let Some(budget) = env.compute_budget() {
            let branches: Vec<u32> = kplex_candidates(&local, anchor)
                .into_iter()
                .filter(|&u| is_kplex(&local, &[anchor, u], self.k))
                .collect();
            if branches.len() as u64 > budget {
                for i in 0..branches.len() {
                    let mut sub = Task::new((
                        2u64,
                        local.to_global(&[anchor, branches[i]]),
                        local.to_global(&branches[i + 1..]),
                    ));
                    sub.subgraph = task.subgraph.clone();
                    env.add_task(sub);
                }
                env.note_split(branches.len() as u64);
                return false;
            }
        }
        let cand = kplex_candidates(&local, anchor);
        let count =
            count_kplexes_state(&local, &[anchor], &cand, self.k, self.min_size, self.max_size);
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::kplex::count_kplexes_brute;
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
