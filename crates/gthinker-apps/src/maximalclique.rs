//! Distributed maximal clique enumeration (the G-thinker repository's
//! other clique workload).
//!
//! Deduplication follows degeneracy-style Bron–Kerbosch: the task
//! spawned from `v` enumerates exactly the maximal cliques whose
//! **minimum vertex** is `v`, by seeding `R = {v}`, `P = Γ_>(v)`,
//! `X = Γ_<(v)`. That requires the edges among *all* of `v`'s
//! neighbors, so the task pulls `Γ(u)` for every `u ∈ Γ(v)` (untrimmed
//! lists — `X` needs the smaller neighbors too) and builds the full
//! ego network before running BK serially.

use crate::serial::maximal::bron_kerbosch;
use crate::triangle::SumAgg;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::subgraph::LocalGraph;

/// Counts maximal cliques, partitioned by minimum vertex.
#[derive(Default)]
pub struct MaximalCliqueApp;

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

impl App for MaximalCliqueApp {
    /// `(R, P, X)` as global IDs for a Bron–Kerbosch node carved out of
    /// a straggler task; all-empty for a root task (seeded from the
    /// anchor's ego net).
    type Context = (Vec<VertexId>, Vec<VertexId>, Vec<VertexId>);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.is_empty() {
            // An isolated vertex is itself a maximal clique.
            env.aggregate(1);
            return;
        }
        let mut t = Task::new((Vec::new(), Vec::new(), Vec::new()));
        t.subgraph.add_vertex(v, adj.clone());
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<(Vec<VertexId>, Vec<VertexId>, Vec<VertexId>)>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        if !task.context.0.is_empty() {
            // A split-off BK node: the ego net is already materialized
            // in the subgraph, the context pins the node's R/P/X.
            let local = task.subgraph.to_local();
            let (r, p, x) = &task.context;
            let mut r = to_locals(&local, r);
            let p = to_locals(&local, p);
            let x = to_locals(&local, x);
            let mut count = 0u64;
            bron_kerbosch(&local, &mut r, p, x, &mut |_| count += 1);
            if count > 0 {
                env.aggregate(count);
            }
            return false;
        }
        // Build the closed neighborhood ego net: keep each neighbor's
        // adjacency filtered to the ego-net members (edges to vertices
        // outside N[v] are irrelevant to cliques containing v).
        let anchor = *task.subgraph.vertex_ids().first().expect("anchor present");
        let mut members: Vec<VertexId> = frontier.vertex_ids().collect();
        members.push(anchor);
        members.sort_unstable();
        for (u, adj) in frontier.iter() {
            task.subgraph.add_vertex(u, AdjList::from_sorted(adj.intersect_slice(&members)));
        }
        let local = task.subgraph.to_local();
        let anchor_local = (0..local.num_vertices() as u32)
            .find(|&i| local.global_id(i) == anchor)
            .expect("anchor in its ego net");
        // P = neighbors with larger global ID; X = smaller. Local
        // index order equals global ID order.
        let mut p = Vec::new();
        let mut x = Vec::new();
        for &u in local.neighbors(anchor_local) {
            if u > anchor_local {
                p.push(u);
            } else {
                x.push(u);
            }
        }
        // Straggler splitting: when the top-level branch set exceeds
        // the compute budget, expand the root BK node once *without*
        // pivoting (every P vertex branches) and ship each child node
        // as its own task. P/X evolve across children exactly as in the
        // serial recursion, so each maximal clique is still reported by
        // exactly one child; the root itself reports nothing because P
        // is non-empty.
        if env.compute_budget().is_some_and(|b| p.len() as u64 > b) {
            let mut p_work = p.clone();
            let mut x_work = x;
            for &v in &p {
                let np: Vec<u32> =
                    p_work.iter().copied().filter(|&u| local.has_edge(v, u)).collect();
                let nx: Vec<u32> =
                    x_work.iter().copied().filter(|&u| local.has_edge(v, u)).collect();
                let mut sub = Task::new((
                    local.to_global(&[anchor_local, v]),
                    local.to_global(&np),
                    local.to_global(&nx),
                ));
                sub.subgraph = task.subgraph.clone();
                env.add_task(sub);
                p_work.retain(|&u| u != v);
                x_work.push(v);
            }
            env.note_split(p.len() as u64);
            return false;
        }
        let mut count = 0u64;
        let mut r = vec![anchor_local];
        bron_kerbosch(&local, &mut r, p, x, &mut |_| count += 1);
        if count > 0 {
            env.aggregate(count);
        }
        false
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
        let mut sg = Subgraph::new();
        for v in g.vertices() {
            sg.add_vertex(v, g.neighbors(v).clone());
        }
        count_maximal_cliques(&sg.to_local())
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
