//! The k-hop ego-network task of §III, written once under `mc`, `qc`, `kp`, `gm`.
//!
//! The four miners are one task shape around different serial kernels:
//! spawn from an anchor `v` and pull `Γ(v)`, grow the subgraph hop by
//! hop to a radius, build the ego network straight from the members'
//! lists ([`LocalGraph::induced`]), run the kernel on the anchor.
//! [`EgoNetApp`] owns that shape — pulls, hop counter,
//! global ↔ local ID mapping and what a straggler split hands out (the
//! rule itself is `ComputeEnv::split`'s) — and an [`EgoMiner`] supplies
//! what differs; its kernel sees a [`LocalGraph`] and local indices,
//! never a task or the budget.

use crate::serial::setenum::{self, Rule};
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

    /// The adjacency trimmer applied once after loading, if any. The
    /// ego network is built from trimmed lists by symmetry, so for any
    /// two vertices that can share an ego network it must keep
    /// `w ∈ Γ(u) ⇔ u ∈ Γ(w)`: a label filter does, `GreaterIdTrimmer`
    /// would not.
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

/// The application of miner `M`; a task's context is `(anchor, hops
/// pulled, the node of a subtask split off a straggler)`.
pub struct EgoNetApp<M>(pub M);

/// `qc` and `kp`: the set-enumeration search under a [`Rule`] on the 2-hop
/// ego network; a node is `(S, cand)`.
impl<R: Rule + Send + Sync + 'static> EgoMiner for R {
    type Node = (Vec<VertexId>, Vec<VertexId>);

    fn radius(&self) -> usize {
        2
    }

    fn branches(&self, g: &LocalGraph, anchor: u32) -> Vec<Self::Node> {
        let cand = setenum::first_level(g, self, anchor);
        let node = |i| (g.to_global(&[anchor, cand[i]]), g.to_global(&cand[i + 1..]));
        (0..cand.len()).map(node).collect()
    }

    fn mine(&self, g: &LocalGraph, anchor: u32, node: Option<&Self::Node>) -> u64 {
        match node {
            Some((s, cand)) => setenum::count(g, self, &g.to_local_ids(s), &g.to_local_ids(cand)),
            None => setenum::count_anchored(g, self, anchor),
        }
    }
}

/// The label a labeled miner keeps for `u`.
fn label_of<M: EgoMiner>(env: &ComputeEnv<'_, EgoNetApp<M>>, u: VertexId) -> Option<Label> {
    M::LABELED.then(|| env.label_of(u).expect("the miner needs a labeled graph"))
}

/// Saves one hop's frontier into the subgraph and pulls the next hop
/// (`true` while there is one); the last hop's lists stay in the
/// frontier, for [`ego_network`].
fn grow<N>(
    radius: usize,
    task: &mut Task<(VertexId, u64, Option<N>)>,
    frontier: &Frontier,
    label: impl Fn(VertexId) -> Option<Label>,
) -> bool {
    task.context.1 += 1;
    if task.context.1 >= radius as u64 {
        return false;
    }
    let pulled = frontier.iter().map(|(u, adj)| (u, adj.as_slice(), label(u)));
    let sg = Subgraph::from_rows(task.subgraph.rows().chain(pulled));
    // The next hop: what the frontier's lists name, less the members,
    // which a walk down both sorted sequences drops.
    let mut next: Vec<VertexId> = frontier.iter().flat_map(|(_, adj)| adj.iter()).collect();
    next.sort_unstable();
    next.dedup();
    let mut members = sg.vertex_ids().iter().peekable();
    next.retain(|w| {
        while members.next_if(|&v| v < w).is_some() {}
        members.peek() != Some(&w)
    });
    task.subgraph = sg;
    next.into_iter().for_each(|w| task.pull(w));
    task.has_pulls()
}

/// The ego network as its kernel mines it, in one [`LocalGraph::induced`]
/// call over every member: the rows the task stored and the frontier's
/// lists, borrowed. A split-off node has no frontier, and its rows are
/// those of the parent's ego network ([`Subgraph::from_local`]).
fn ego_network(
    sg: &Subgraph,
    frontier: &Frontier,
    label: impl Fn(VertexId) -> Option<Label>,
) -> LocalGraph {
    let pulled = frontier.iter().map(|(u, adj)| (u, adj.as_slice(), label(u)));
    let mut members: Vec<_> = sg.rows().chain(pulled).collect();
    members.sort_by_key(|m| m.0);
    // An ego network that ended before its radius (no next hop) stored
    // its frontier too: the same list twice.
    members.dedup_by_key(|m| m.0);
    let lists: Vec<&[VertexId]> = members.iter().map(|m| m.1).collect();
    // `Some` for a labeled miner, whose every member has a label.
    let labels = members.iter().map(|m| m.2).collect();
    LocalGraph::induced(members.iter().map(|m| m.0).collect(), &lists, labels)
}

/// The anchor's count. Under a compute budget an anchor with more
/// first-level branches than the budget mines only the first ones; each
/// other branch becomes a task of its own, carrying the ego network's
/// rows, and is never split again.
fn mine_root<M: EgoMiner>(
    miner: &M,
    hops: u64,
    g: &LocalGraph,
    anchor: u32,
    env: &mut ComputeEnv<'_, EgoNetApp<M>>,
) -> u64 {
    let Some((kept, groups)) = env.split(|| miner.branches(g, anchor)) else {
        return miner.mine(g, anchor, None);
    };
    let ego = Subgraph::from_local(g);
    for node in groups.into_iter().flatten() {
        let mut sub = Task::new((g.global_id(anchor), hops, Some(node)));
        sub.subgraph = ego.clone();
        env.add_task(sub);
    }
    kept.iter().map(|node| miner.mine(g, anchor, Some(node))).sum()
}

impl<M: EgoMiner> App for EgoNetApp<M> {
    type Context = (VertexId, u64, Option<M::Node>);
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
        let mut t = Task::new((v, 0, None));
        let label = env.label().filter(|_| M::LABELED);
        t.subgraph = Subgraph::from_rows([(v, adj.as_slice(), label)]);
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
        if task.context.2.is_none() && grow(self.0.radius(), task, frontier, |u| label_of(env, u)) {
            return true;
        }
        let g = ego_network(&task.subgraph, frontier, |u| label_of(env, u));
        let (anchor, hops, node) = &task.context;
        let anchor = g.local_id(*anchor).expect("the anchor is a member");
        let count = match node {
            Some(node) => self.0.mine(&g, anchor, Some(node)),
            None => mine_root(&self.0, *hops, &g, anchor, env),
        };
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
    use gthinker_graph::trim::trim_graph;
    use gthinker_task::codec::{from_bytes, to_bytes};
    use std::sync::Arc;

    fn matching(g: &Graph) -> MatchingApp {
        let pattern = Pattern::triangle(Label(0), Label(1), Label(1));
        MatchingApp::new(pattern, g.labels().unwrap().to_vec())
    }

    /// One unbudgeted single-machine run against a run that splits every
    /// anchor with two branches or more, on three workers whose queues
    /// hold two tasks before they spill: the split-off nodes go through
    /// the task codec, the spill log and (stealing is on) the wire.
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
        // Every split-off task finishes exactly once, and nothing else
        // counts as one.
        let plain_finished = plain.metrics.totals().tasks_finished;
        assert_eq!(totals.tasks_finished, plain_finished + totals.split_tasks);
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

    /// The frontier of `task`'s pulls, served from `g`.
    fn pulled<C>(g: &Graph, task: &mut Task<C>) -> Frontier {
        let rows = task.take_pulls().into_iter().map(|u| (u, Arc::new(g.neighbors(u).clone())));
        Frontier::new(rows.collect())
    }

    /// The vertices within `radius` hops of `anchor` in `g`.
    fn ball(g: &Graph, anchor: VertexId, radius: usize) -> Vec<VertexId> {
        let mut members = std::collections::BTreeSet::from([anchor]);
        let mut hop = vec![anchor];
        for _ in 0..radius {
            hop = hop
                .iter()
                .flat_map(|&u| g.neighbors(u).iter())
                .filter(|&w| members.insert(w))
                .collect();
        }
        members.into_iter().collect()
    }

    /// For every anchor of `g` (trimmed as a job would): the ego network
    /// `compute` builds holds the vertices within the miner's radius of
    /// the anchor, with their labels and, between them, the edges of
    /// `g`; and the rows a split-off subtask carries rebuild it.
    /// Returns how many ego networks held a list past the long-list
    /// crossover.
    fn direct_build_matches_the_graph<M: EgoMiner>(miner: &M, g: &Graph) -> usize {
        let g = miner.trimmer().map_or_else(|| g.clone(), |t| trim_graph(g, &*t));
        let label = |u| M::LABELED.then(|| g.label(u).expect("a labeled graph"));
        let mut with_hubs = 0;
        for v in g.vertices() {
            if miner.answer_at_spawn(g.neighbors(v), g.label(v)).is_some() {
                continue;
            }
            let mut task: Task<(VertexId, u64, Option<M::Node>)> = Task::new((v, 0, None));
            task.subgraph = Subgraph::from_rows([(v, g.neighbors(v).as_slice(), label(v))]);
            g.neighbors(v).iter().for_each(|u| task.pull(u));
            let mut frontier = pulled(&g, &mut task);
            while grow(miner.radius(), &mut task, &frontier, label) {
                frontier = pulled(&g, &mut task);
            }
            let direct = ego_network(&task.subgraph, &frontier, label);
            let members = ball(&g, v, miner.radius());
            assert_eq!(direct.num_vertices(), members.len(), "anchor {v}");
            for (i, &u) in (0..).zip(&members) {
                assert_eq!((direct.global_id(i), direct.label(i)), (u, label(u)), "anchor {v}");
                let within = g.neighbors(u).intersect_slice(&members);
                let want: Vec<u32> =
                    within.iter().map(|w| members.binary_search(w).unwrap() as u32).collect();
                assert_eq!(direct.neighbors(i), want, "anchor {v}, member {u}");
            }
            let long = LocalGraph::LONG_LIST_FACTOR * members.len();
            with_hubs += members.iter().any(|&u| g.neighbors(u).degree() > long) as usize;
            let carried = Subgraph::from_local(&direct);
            assert_eq!(ego_network(&carried, &Frontier::default(), label), direct, "anchor {v}");
        }
        with_hubs
    }

    #[test]
    fn direct_build_matches_grow_then_to_local() {
        for g in [gen::gnp(60, 0.1, 3), gen::barabasi_albert(300, 3, 4)] {
            let lg = gen::random_labels(g.clone(), 3, 5);
            let hubs = [
                direct_build_matches_the_graph(&MaximalCliqueApp.0, &g),
                direct_build_matches_the_graph(&QuasiCliqueApp::new(0.6, 3, 5).0, &g),
                direct_build_matches_the_graph(&KPlexApp::new(2, 3, 4).0, &g),
                direct_build_matches_the_graph(&matching(&lg).0, &lg),
            ];
            println!("ego networks with a list past the crossover (mc, qc, kp, gm): {hubs:?}");
            if g.num_vertices() == 300 {
                assert!(hubs[0] > 0 && hubs[3] > 0, "BA hubs must reach the long-list side");
            }
        }
    }
}
