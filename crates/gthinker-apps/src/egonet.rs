//! The k-hop ego-network task of §III, written once under `mc`, `qc`, `kp`, `gm`.
//!
//! The four miners are one task shape around different serial kernels:
//! spawn from an anchor `v` and pull `Γ(v)`, grow the subgraph hop by
//! hop to a radius, snapshot it with `to_local()`, run the kernel on
//! the anchor. [`EgoNetApp`] owns that shape — pulls, hop counter,
//! global ↔ local ID mapping and the straggler split (`split` below
//! and nothing else: ROADMAP's change of policy is an edit of that one
//! function) — and an [`EgoMiner`] supplies what differs; its kernel
//! sees a [`LocalGraph`] and local indices, never a task or the budget.

use gthinker_core::prelude::*;
use gthinker_graph::subgraph::LocalGraph;
use gthinker_graph::trim::Trimmer;
use gthinker_task::codec::{Decode, Encode};

/// What one miner adds to the ego-network task.
pub trait EgoMiner: Send + Sync + 'static {
    /// A node of the kernel's search tree below the anchor's root, in
    /// **global** IDs: it travels as the context of a split-off subtask.
    type Node: Encode + Decode + Send + 'static;

    /// Whether the kernel reads vertex labels (the subgraph keeps them).
    const LABELED: bool = false;

    /// Hops of neighbourhood around the anchor that the kernel needs.
    fn radius(&self) -> usize;

    /// The adjacency trimmer applied once after loading, if any.
    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        None
    }

    /// The spawn rule. `Some(n)`: the vertex is answered without a
    /// task and adds `n` to the count; `None`: it anchors a task. By
    /// default a vertex with no neighbor is skipped.
    fn answer_at_spawn(&self, adj: &AdjList, _label: Option<Label>) -> Option<u64> {
        adj.is_empty().then_some(0)
    }

    /// The anchor's first-level branches: nodes whose [`EgoMiner::mine`]
    /// counts add up to `mine(g, anchor, None)`.
    fn branches(&self, g: &LocalGraph, anchor: u32) -> Vec<Self::Node>;

    /// Runs the serial kernel on the anchor's ego network: its whole
    /// search tree, or only the subtree under `node`.
    fn mine(&self, g: &LocalGraph, anchor: u32, node: Option<&Self::Node>) -> u64;
}

/// The application of miner `M`; a task's context is `(hops pulled, the
/// node of a subtask split off a straggler)`.
pub struct EgoNetApp<M>(pub M);

/// A set-enumeration node `(S, cand)`: members so far, candidates left.
pub(crate) type SetNode = (Vec<VertexId>, Vec<VertexId>);

/// The first level under the root `S = {anchor}`: `({anchor, cand[i]},
/// cand[i+1..])` for each `i`; with `min_size ≥ 2` they partition its count.
pub(crate) fn first_level(g: &LocalGraph, anchor: u32, cand: &[u32]) -> Vec<SetNode> {
    let node = |i| (g.to_global(&[anchor, cand[i]]), g.to_global(&cand[i + 1..]));
    (0..cand.len()).map(node).collect()
}

/// Saves one hop's frontier into the subgraph and pulls the next hop
/// (`true` while there is one); the last keeps only edges among members.
fn grow<M: EgoMiner>(
    radius: usize,
    task: &mut Task<(u64, Option<M::Node>)>,
    frontier: &Frontier,
    env: &ComputeEnv<'_, EgoNetApp<M>>,
) -> bool {
    task.context.0 += 1;
    let label = |u| M::LABELED.then(|| env.label_of(u).expect("the miner needs a labeled graph"));
    let sg = &mut task.subgraph;
    if task.context.0 >= radius as u64 {
        let mut members: Vec<VertexId> = sg.vertex_ids().to_vec();
        members.extend(frontier.vertex_ids());
        members.sort_unstable();
        for (u, adj) in frontier.iter() {
            sg.insert(u, label(u), AdjList::from_sorted(adj.intersect_slice(&members)));
        }
        return false;
    }
    for (u, adj) in frontier.iter() {
        sg.insert(u, label(u), (**adj).clone());
    }
    let mut next: Vec<VertexId> =
        frontier.iter().flat_map(|(_, adj)| adj.iter()).filter(|&w| !sg.contains(w)).collect();
    next.sort_unstable();
    next.dedup();
    next.into_iter().for_each(|w| task.pull(w));
    task.has_pulls()
}

/// The straggler split, decided here and nowhere else: under a compute
/// budget, an anchor with more first-level branches than the budget is
/// not mined by its task — each branch becomes a task of its own, with
/// a copy of the ego network. `true` when the task was split.
fn split<M: EgoMiner>(
    miner: &M,
    task: &Task<(u64, Option<M::Node>)>,
    g: &LocalGraph,
    anchor: u32,
    env: &mut ComputeEnv<'_, EgoNetApp<M>>,
) -> bool {
    let Some(budget) = env.compute_budget() else { return false };
    let branches = miner.branches(g, anchor);
    if branches.len() as u64 <= budget {
        return false;
    }
    env.note_split(branches.len() as u64);
    for node in branches {
        let mut sub = Task::new((task.context.0, Some(node)));
        sub.subgraph = task.subgraph.clone();
        env.add_task(sub);
    }
    true
}

impl<M: EgoMiner> App for EgoNetApp<M> {
    type Context = (u64, Option<M::Node>);
    type Agg = SumAgg;

    fn make_aggregator(&self) -> SumAgg {
        SumAgg
    }

    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        self.0.trimmer()
    }

    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
        if let Some(n) = self.0.answer_at_spawn(adj, env.label()) {
            if n > 0 {
                env.aggregate(n);
            }
            return;
        }
        let mut t = Task::new((0, None));
        t.subgraph.insert(v, env.label().filter(|_| M::LABELED), adj.clone());
        adj.iter().for_each(|u| t.pull(u));
        env.add_task(t);
    }

    fn compute(
        &self,
        task: &mut Task<Self::Context>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool {
        // A split-off node arrives with its ego network materialized.
        if task.context.1.is_none() && grow(self.0.radius(), task, frontier, env) {
            return true;
        }
        let g = task.subgraph.to_local();
        let anchor = g.local_id(task.subgraph.vertex_ids()[0]).expect("the anchor is a member");
        let node = task.context.1.as_ref();
        if node.is_none() && split(&self.0, task, &g, anchor, env) {
            return false;
        }
        let count = self.0.mine(&g, anchor, node);
        if count > 0 {
            env.aggregate(count);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KPlexApp, MatchingApp, MaximalCliqueApp, Pattern, QuasiCliqueApp};
    use gthinker_graph::gen;
    use gthinker_graph::graph::Graph;
    use gthinker_task::codec::{from_bytes, to_bytes};
    use std::sync::Arc;

    fn matching(g: &Graph) -> MatchingApp {
        let pattern = Pattern::triangle(Label(0), Label(1), Label(1));
        MatchingApp::new(pattern, g.labels().unwrap().to_vec())
    }

    /// One unbudgeted single-machine run against a run that splits every
    /// anchor with two branches or more, on three workers whose queues
    /// hold two tasks before they spill: the split-off nodes go through
    /// the task codec, the spill files and (stealing is on) the wire.
    fn split_run_matches_plain_run<M: EgoMiner>(app: impl Fn() -> EgoNetApp<M>, g: &Graph) -> u64 {
        let plain = run_job(Arc::new(app()), g, &JobConfig::single_machine(2)).unwrap();
        let mut cfg = JobConfig::cluster(3, 2);
        cfg.task_batch = 2;
        cfg.compute_budget = Some(1);
        let split = run_job(Arc::new(app()), g, &cfg).unwrap();
        assert_eq!(split.global, plain.global);
        assert_eq!(plain.metrics.totals().split_tasks, 0);
        let totals = split.metrics.totals();
        assert!(totals.split_tasks > 0, "a budget of 1 must split some anchor");
        assert!(totals.spill_bytes > 0, "split-off nodes must overflow a queue of C = 2");
        plain.global
    }

    #[test]
    fn every_miner_counts_the_same_split_across_a_cluster() {
        let g = gen::gnp(40, 0.2, 5);
        let lg = gen::random_labels(gen::gnp(40, 0.2, 5), 2, 6);
        let counts = [
            ("mc", split_run_matches_plain_run(|| MaximalCliqueApp, &g)),
            ("qc", split_run_matches_plain_run(|| QuasiCliqueApp::new(0.6, 3, 5), &g)),
            ("kp", split_run_matches_plain_run(|| KPlexApp::new(2, 3, 4), &g)),
            ("gm", split_run_matches_plain_run(|| matching(&lg), &lg)),
        ];
        for (miner, count) in counts {
            assert!(count > 0, "{miner}: the graph must hold something to count");
        }
    }

    /// Every first-level node of every anchor, as the context of a task
    /// that carries the anchor's ego network, survives the task codec:
    /// same bytes again, and the same count when mined from the copy.
    fn nodes_round_trip_in_a_task<M: EgoMiner>(miner: &M, g: &Graph) -> usize {
        let whole = Subgraph::from_graph(g);
        let local = whole.to_local();
        let mut nodes = 0;
        for anchor in 0..local.num_vertices() as u32 {
            let branches = miner.branches(&local, anchor);
            if branches.is_empty() {
                continue; // a root with nothing below it may count itself
            }
            let mut from_nodes = 0;
            for node in branches {
                let mut task: Task<(u64, Option<M::Node>)> = Task::new((2, Some(node)));
                task.subgraph = whole.clone();
                let bytes = to_bytes(&task);
                let back: Task<(u64, Option<M::Node>)> = from_bytes(&bytes).unwrap();
                assert_eq!(to_bytes(&back), bytes);
                assert_eq!(back.context.0, 2);
                let copy = back.subgraph.to_local();
                from_nodes += miner.mine(&copy, anchor, back.context.1.as_ref());
                nodes += 1;
            }
            assert_eq!(from_nodes, miner.mine(&local, anchor, None), "anchor {anchor}");
        }
        nodes
    }

    #[test]
    fn every_miners_node_round_trips_inside_a_task_context() {
        let g = gen::gnp(24, 0.25, 11);
        let lg = gen::random_labels(gen::gnp(24, 0.25, 11), 2, 12);
        assert!(nodes_round_trip_in_a_task(&MaximalCliqueApp.0, &g) > 0);
        assert!(nodes_round_trip_in_a_task(&QuasiCliqueApp::new(0.6, 3, 5).0, &g) > 0);
        assert!(nodes_round_trip_in_a_task(&KPlexApp::new(2, 3, 4).0, &g) > 0);
        assert!(nodes_round_trip_in_a_task(&matching(&lg).0, &lg) > 0);
    }
}
