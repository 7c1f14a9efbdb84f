//! Maximum clique finding (MCF) — the paper's flagship application
//! (Fig. 5).
//!
//! A task is `⟨S, ext(S)⟩`: `S` is the vertex set already assumed in
//! the clique (the task context) and `ext(S) = Γ_>(S)` is the candidate
//! set, materialized as the task's subgraph `g` (induced by the
//! candidates, stored in oriented `Γ_>` form thanks to the
//! [`GreaterIdTrimmer`]).
//!
//! Fig. 5 is written once, as three functions over [`Subgraph`], and
//! every engine that runs the task calls them: [`MaxCliqueApp`] here
//! and the G-Miner-, Nuri-, NScale- and Giraph-like baselines, which
//! differ from it only in scheduling and storage.
//!
//! * [`candidate_graph`] — lines 1–2: `g` of `⟨{v}, Γ_>(v)⟩`, built
//!   from the candidates' `Γ_>` lists.
//! * [`branches`] — lines 3–9: the subtasks `⟨S ∪ {u}, g[Γ_>(u) ∩
//!   V(g)]⟩` that can still beat the best clique.
//! * [`solve`] — lines 10–14: the bounded serial search.
//!
//! The app adds the G-thinker policy around them: `task_spawn(v)`
//! prunes on `1 + |Γ_>(v)|` and pulls the candidates; `compute` builds
//! `g` on the first iteration, then decomposes when `|V(g)| > τ` and
//! solves otherwise, with the bound the aggregator broadcasts; under a
//! compute budget a task with more children than the budget solves the
//! first ones and hands the rest out (`ComputeEnv::split`).
//!
//! The aggregator keeps the best clique's **vertex set**, so the final
//! global value is a verifiable witness, not just a size.

use crate::serial::clique::max_clique_above;
use gthinker_core::prelude::*;
use gthinker_graph::adj::{intersect_sorted_into, AdjList};
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};

/// Fig. 5 lines 1–2: the candidate graph `g` of `⟨{v}, ext(v)⟩`.
/// `ext` is `Γ_>(v)`, sorted; `rows` gives each member `u` of `ext`,
/// in the same ascending order, with its `Γ_>(u)`, which is cut down
/// to `ext` — an edge to anything else leaves the candidate set — and
/// written straight into `g`'s rows.
pub fn candidate_graph<'a>(
    ext: &[VertexId],
    rows: impl IntoIterator<Item = (VertexId, &'a [VertexId])>,
) -> Subgraph {
    let mut g = Subgraph::new();
    let mut row = Vec::new();
    for (u, list) in rows {
        intersect_sorted_into(list, ext, &mut row);
        g.add_vertex(u, &row);
    }
    g
}

/// Fig. 5 lines 3–9: the subtasks of `⟨S, g⟩`, one per candidate `u`
/// whose `ext(S ∪ {u}) = Γ_>(u) ∩ V(g)` can still beat a clique of
/// `best` vertices. None when the whole task cannot (line 11's test):
/// a row is cut down to `V(g)`, so then every child fails line 9.
pub fn branches<'a>(
    s: &'a [VertexId],
    g: &'a Subgraph,
    best: usize,
) -> impl Iterator<Item = Task<Clique>> + 'a {
    g.rows().filter_map(move |(u, ext, _)| {
        if s.len() + 1 + ext.len() <= best {
            return None; // line 9: even ext(S ∪ u) cannot win
        }
        let rows = ext.iter().map(|&w| (w, g.neighbors(w).expect("candidate is in g")));
        let mut child = Task::new([s, &[u]].concat());
        child.subgraph = candidate_graph(ext, rows);
        Some(child)
    })
}

/// Fig. 5 lines 10–14: the largest clique of `⟨S, g⟩`, sorted, if it
/// has more than `best` vertices. A task with no candidates left — a
/// decomposed leaf or an isolated anchor — answers `S` itself.
pub fn solve(s: &[VertexId], g: &Subgraph, best: usize) -> Option<Clique> {
    if s.len() + g.num_vertices() <= best {
        return None; // line 11
    }
    let mut clique = s.to_vec();
    if !g.is_empty() {
        let local = g.to_local();
        let found = max_clique_above(&local, best.saturating_sub(s.len()))?;
        clique.extend(local.to_global(&found));
    }
    clique.sort_unstable();
    Some(clique)
}

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
        // First iteration of a top-level task: construct g from the
        // pulled candidates.
        if task.subgraph.is_empty() && !frontier.is_empty() {
            // Pulled in `Γ_>(v)`'s order: ascending.
            let ext: Vec<VertexId> = frontier.vertex_ids().collect();
            task.subgraph =
                candidate_graph(&ext, frontier.iter().map(|(u, adj)| (u, adj.as_slice())));
        }
        let (s, g) = (&task.context, &task.subgraph);
        let best = env.read_agg(best_size);

        if g.num_vertices() > self.tau {
            branches(s, g, best).for_each(|child| env.add_task(child));
            return false;
        }
        let Some((kept, groups)) = env.split(|| branches(s, g, best).collect()) else {
            if let Some(clique) = solve(s, g, best) {
                env.aggregate(clique);
            }
            return false;
        };
        groups.into_iter().flatten().for_each(|child| env.add_task(child));
        for child in kept {
            if let Some(clique) = solve(&child.context, &child.subgraph, env.read_agg(best_size)) {
                env.aggregate(clique);
            }
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
