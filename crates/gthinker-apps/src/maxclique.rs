//! Maximum clique finding (MCF) — the paper's flagship application
//! (Fig. 5).
//!
//! A task is `⟨S, ext(S)⟩`: `S` is the vertex set already assumed in
//! the clique (the task context) and `ext(S) = Γ_>(S)` is the candidate
//! set, materialized as the task's subgraph `g` (induced by the
//! candidates, stored in oriented `Γ_>` form thanks to the
//! [`GreaterIdTrimmer`]).
//!
//! * `task_spawn(v)` prunes if `1 + |Γ_>(v)|` cannot beat the best
//!   known clique, else creates `⟨{v}, Γ_>(v)⟩` and pulls the
//!   candidates (Fig. 5 lines 1–5).
//! * `compute` constructs `g` on the first iteration, then either
//!   **decomposes** (when `|V(g)| > τ`) into one subtask per candidate
//!   (lines 3–9) or runs the serial branch-and-bound solver with the
//!   aggregator-broadcast bound (lines 10–14).
//!
//! The aggregator keeps the best clique's **vertex set**, so the final
//! global value is a verifiable witness, not just a size.

use crate::serial::clique::max_clique_above;
use gthinker_core::prelude::*;
use gthinker_graph::adj::AdjList;
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};

/// Keeps the largest clique seen (by vertex count).
pub struct BestCliqueAgg;

/// The clique witness: sorted member IDs.
pub type Clique = Vec<VertexId>;

impl Aggregator for BestCliqueAgg {
    type Item = Clique;
    type Partial = Clique;
    type Global = Clique;

    fn init_partial(&self) -> Clique {
        Vec::new()
    }
    fn init_global(&self) -> Clique {
        Vec::new()
    }
    fn aggregate(&self, partial: &mut Clique, item: Clique) {
        if item.len() > partial.len() {
            *partial = item;
        }
    }
    fn merge(&self, global: &mut Clique, partial: &Clique) {
        if partial.len() > global.len() {
            *global = partial.clone();
        }
    }
}

/// The maximum clique application.
pub struct MaxCliqueApp {
    /// Decomposition threshold `τ`: tasks whose candidate subgraph has
    /// more vertices split into subtasks (paper default 40,000).
    pub tau: usize,
}

impl Default for MaxCliqueApp {
    fn default() -> Self {
        MaxCliqueApp { tau: 40_000 }
    }
}

impl MaxCliqueApp {
    /// Creates the app with a custom decomposition threshold τ.
    pub fn with_tau(tau: usize) -> Self {
        assert!(tau >= 1);
        MaxCliqueApp { tau }
    }
}

/// Best clique size visible on this worker right now (local partial or
/// broadcast global, whichever is larger); for `env.read_agg`.
fn best_size(partial: &Clique, global: &Clique) -> usize {
    partial.len().max(global.len())
}

impl App for MaxCliqueApp {
    /// `S`: the vertices already assumed in the clique.
    type Context = Vec<VertexId>;
    type Agg = BestCliqueAgg;

    fn make_aggregator(&self) -> BestCliqueAgg {
        BestCliqueAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        Some(Box::new(GreaterIdTrimmer))
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        // Fig. 5 line 1: prune if even all of Γ_>(v) cannot beat S_max.
        if env.read_agg(best_size) > adj.degree() {
            return;
        }
        let mut t = Task::new(vec![v]);
        for u in adj.iter() {
            t.pull(u);
        }
        if t.has_pulls() {
            env.add_task(t);
        } else {
            // Isolated (after trimming) vertex: it is itself a clique
            // candidate of size 1.
            env.aggregate(vec![v]);
        }
    }

    fn compute(
        &self,
        task: &mut Task<Vec<VertexId>>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        // First iteration of a top-level task: construct g induced by
        // the pulled candidate set (Fig. 5 lines 1–2). Adjacency is
        // filtered to candidates — anything else is ≥ 2 hops from v or
        // below it in the enumeration order.
        if task.subgraph.is_empty() && !frontier.is_empty() {
            let candidates: Vec<VertexId> = frontier.vertex_ids().collect();
            let mut sorted = candidates.clone();
            sorted.sort_unstable();
            for (u, adj) in frontier.iter() {
                let filtered = adj.intersect_slice(&sorted);
                task.subgraph.add_vertex(u, AdjList::from_sorted(filtered));
            }
        }
        let s = task.context.clone();
        let g = &task.subgraph;
        let best = env.read_agg(best_size);

        // Straggler splitting: a compute budget tightens the
        // decomposition threshold, so candidate sets that would run
        // serially for a long time decompose into stealable subtasks
        // instead.
        let tau_eff = env.compute_budget().map_or(self.tau, |b| self.tau.min(b as usize));
        if g.num_vertices() > tau_eff {
            let budget_split = g.num_vertices() <= self.tau;
            let mut spawned = 0u64;
            // Decompose (lines 3–9): one subtask per candidate u, with
            // subgraph induced by u's candidates (its oriented
            // adjacency within g).
            for &u in g.vertex_ids() {
                let ext: Vec<VertexId> =
                    g.neighbors(u).expect("member of its own subgraph").iter().collect();
                if s.len() + 1 + ext.len() <= best {
                    continue; // line 9: even ext(S ∪ u) cannot win
                }
                let mut sub = Task::new({
                    let mut s2 = s.clone();
                    s2.push(u);
                    s2
                });
                // Induce on ext: keep only edges among candidates.
                for &w in &ext {
                    let wadj = g.neighbors(w).expect("candidate is in g");
                    sub.subgraph.add_vertex(w, AdjList::from_sorted(wadj.intersect_slice(&ext)));
                }
                // A candidate with an empty ext still extends S by one.
                env.add_task(sub);
                spawned += 1;
            }
            if budget_split && spawned > 0 {
                env.note_split(spawned);
            }
            return false;
        }

        // Serial mining (lines 10–14).
        if s.len() + g.num_vertices() <= best {
            return false; // line 11
        }
        let local = g.to_local();
        let delta = best.saturating_sub(s.len());
        if let Some(found) = max_clique_above(&local, delta) {
            let mut clique = s;
            clique.extend(local.to_global(&found));
            clique.sort_unstable();
            env.aggregate(clique);
        } else if g.num_vertices() == 0 && s.len() > best {
            // Decomposed leaf with no candidates: S itself is a clique.
            env.aggregate(s);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::clique::max_clique_brute;
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_graph::subgraph::Subgraph;
    use std::sync::Arc;

    fn local_of(g: &Graph) -> gthinker_graph::subgraph::LocalGraph {
        Subgraph::from_graph(g).to_local()
    }

    fn run(g: &Graph, cfg: &JobConfig, tau: usize) -> Clique {
        run_job(Arc::new(MaxCliqueApp::with_tau(tau)), g, cfg).unwrap().global
    }

    fn assert_is_clique(g: &Graph, c: &[VertexId]) {
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert!(g.has_edge(c[i], c[j]), "{:?} not a clique", c);
            }
        }
    }

    #[test]
    fn finds_max_clique_on_small_random_graphs() {
        for seed in 0..6 {
            let g = gen::gnp(16, 0.45, seed);
            let expected = max_clique_brute(&local_of(&g)).len();
            let found = run(&g, &JobConfig::single_machine(2), 40_000);
            assert_is_clique(&g, &found);
            assert_eq!(found.len(), expected, "seed {seed}");
        }
    }

    #[test]
    fn decomposition_path_gives_same_answer() {
        let g = gen::gnp(40, 0.4, 9);
        let expected = run(&g, &JobConfig::single_machine(2), 40_000);
        // τ = 2 forces deep decomposition.
        let decomposed = run(&g, &JobConfig::single_machine(2), 2);
        assert_eq!(decomposed.len(), expected.len());
        assert_is_clique(&g, &decomposed);
    }

    #[test]
    fn compute_budget_split_gives_same_answer() {
        let g = gen::gnp(40, 0.4, 9);
        let expected = run(&g, &JobConfig::single_machine(2), 40_000);
        let mut cfg = JobConfig::single_machine(2);
        cfg.compute_budget = Some(3);
        let r = run_job(Arc::new(MaxCliqueApp::with_tau(40_000)), &g, &cfg).unwrap();
        assert_eq!(r.global.len(), expected.len());
        assert_is_clique(&g, &r.global);
        let splits: u64 = r.metrics.totals().split_tasks;
        assert!(splits > 0, "budget τ should have forced decomposition");
    }

    #[test]
    fn finds_planted_clique_distributed() {
        let base = gen::barabasi_albert(400, 3, 5);
        let (g, members) = gen::plant_clique(&base, 12, 6);
        let found = run(&g, &JobConfig::cluster(3, 2), 40_000);
        assert_is_clique(&g, &found);
        assert!(found.len() >= 12);
        assert_eq!(found, members, "planted clique should be the maximum");
    }

    #[test]
    fn complete_graph_and_edgeless_graph() {
        let k = gen::complete(9);
        assert_eq!(run(&k, &JobConfig::single_machine(2), 40_000).len(), 9);
        let e = Graph::with_vertices(5);
        let c = run(&e, &JobConfig::single_machine(1), 40_000);
        assert_eq!(c.len(), 1, "isolated vertices are 1-cliques");
    }
}
