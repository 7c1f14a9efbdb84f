//! Distributed triangle counting (TC).
//!
//! With adjacency lists trimmed to `Γ_>`, every triangle `v < u < w`
//! is counted exactly once by the task spawned from its minimum vertex
//! `v`: the task pulls `Γ_>(u)` for every `u ∈ Γ_>(v)` and sums
//! `|Γ_>(v) ∩ Γ_>(u)|` — merging `Γ_>(u)` with the part of `Γ_>(v)`
//! above `u` only, since nothing in `Γ_>(u)` is `≤ u` (on average half
//! of each merge). Counts stream into a summing aggregator whose
//! periodically broadcast global value gives the "current total count
//! for reporting" the paper describes.

use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};

/// The triangle counting application.
#[derive(Default)]
pub struct TriangleApp;

impl App for TriangleApp {
    /// Empty for a root task (its candidate set *is* the pulled set);
    /// a split chunk instead carries the root's full `Γ_>(v)` here and
    /// pulls only its own slice of rows.
    type Context = Vec<VertexId>;
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(GreaterIdTrimmer))
    }

    fn task_spawn(&self, _v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if adj.degree() < 2 {
            return; // a triangle needs two larger neighbors
        }
        let mut t = Task::new(Vec::new());
        for u in adj.iter() {
            t.pull(u);
        }
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<Vec<VertexId>>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        let root = task.context.is_empty();
        // Γ_>(v): for a root task it is exactly the pulled set, in
        // ascending pull order; a chunk re-reads it from its context.
        let gv: Vec<VertexId> =
            if root { frontier.vertex_ids().collect() } else { task.context.clone() };
        debug_assert!(!root || gv.windows(2).all(|w| w[0] < w[1]));
        // Straggler splitting: under a compute budget a high-degree
        // root keeps only its first `budget` adjacency rows and spins
        // the rest off as fresh subtasks of `budget` rows each — every
        // chunk re-pulls its own rows, so a stolen chunk resolves them
        // wherever it lands.
        let mut take = gv.len();
        if root {
            if let Some(budget) = env.compute_budget() {
                let budget = (budget as usize).max(1);
                if gv.len() > budget {
                    let chunks = gv[budget..].chunks(budget);
                    let mut spawned = 0u64;
                    for chunk in chunks {
                        let mut sub = Task::new(gv.clone());
                        for &u in chunk {
                            sub.pull(u);
                        }
                        env.add_task(sub);
                        spawned += 1;
                    }
                    env.note_split(spawned);
                    take = budget;
                }
            }
        }
        let mut count = 0u64;
        for (u, adj) in frontier.iter().take(take) {
            count += adj.intersection_count(above(&gv, u)) as u64;
        }
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

/// The suffix of the ascending `gv` strictly above `u`: all of
/// `Γ_>(v)` that `Γ_>(u)` can share with it.
pub(crate) fn above(gv: &[VertexId], u: VertexId) -> &[VertexId] {
    &gv[gv.partition_point(|&w| w <= u)..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::triangle::count_triangles;
    use gthinker_graph::gen;
    use std::sync::Arc;

    fn run(g: &gthinker_graph::graph::Graph, cfg: &JobConfig) -> u64 {
        run_job(Arc::new(TriangleApp), g, cfg).unwrap().global
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::gnp(120, 0.08, seed);
            assert_eq!(run(&g, &JobConfig::single_machine(2)), count_triangles(&g));
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let g = gen::barabasi_albert(600, 5, 3);
        let expected = count_triangles(&g);
        assert_eq!(run(&g, &JobConfig::cluster(4, 2)), expected);
    }

    #[test]
    fn compute_budget_chunking_gives_same_count() {
        let g = gen::barabasi_albert(300, 5, 7);
        let expected = count_triangles(&g);
        for budget in [1u64, 2, 7] {
            let mut cfg = JobConfig::single_machine(2);
            cfg.compute_budget = Some(budget);
            let r = run_job(Arc::new(TriangleApp), &g, &cfg).unwrap();
            assert_eq!(r.global, expected, "budget {budget}");
            let splits: u64 = r.metrics.totals().split_tasks;
            assert!(splits > 0, "budget {budget} should have chunked some task");
        }
    }

    /// The suffix merge against the serial count, on root tasks and on
    /// the chunks a compute budget splits off (which find `Γ_>(v)` in
    /// their context, not in their frontier), on vertex IDs as
    /// generated and degeneracy-ordered.
    #[test]
    fn suffix_merge_matches_serial_with_and_without_chunks() {
        let ba = gen::barabasi_albert(400, 6, 19);
        let (ordered, _) = gthinker_graph::order::degeneracy_relabel(&ba);
        for g in [gen::gnp(150, 0.1, 23), ba, ordered] {
            let expected = count_triangles(&g);
            for budget in [None, Some(1), Some(3)] {
                let mut cfg = JobConfig::cluster(2, 2);
                cfg.compute_budget = budget;
                assert_eq!(run(&g, &cfg), expected, "budget {budget:?}");
            }
        }
    }

    #[test]
    fn above_is_the_strict_suffix() {
        let gv: Vec<VertexId> = [2, 5, 9].map(VertexId).to_vec();
        assert_eq!(above(&gv, VertexId(1)), &gv[..]);
        assert_eq!(above(&gv, VertexId(5)), &gv[2..]);
        assert_eq!(above(&gv, VertexId(6)), &gv[2..]);
        assert!(above(&gv, VertexId(9)).is_empty());
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        assert_eq!(run(&gen::cycle(10), &JobConfig::single_machine(1)), 0);
        assert_eq!(run(&gen::star(20), &JobConfig::single_machine(1)), 0);
    }

    #[test]
    fn complete_graph_count() {
        // K7 has C(7,3) = 35 triangles.
        assert_eq!(run(&gen::complete(7), &JobConfig::single_machine(2)), 35);
    }
}
