//! The task abstraction (§IV of the paper).
//!
//! A [`Task`] owns a growing subgraph `g` and an application-defined
//! `context` (e.g. the vertex set `S` for clique tasks). During
//! `compute()`, a task calls [`Task::pull`] to request adjacency lists
//! for the next iteration; the framework gathers them (from the local
//! table or the remote-vertex cache) into the next iteration's
//! [`Frontier`].

use crate::codec::{CodecError, Decode, Encode};
use gthinker_graph::adj::SharedAdj;
use gthinker_graph::ids::VertexId;
use gthinker_graph::subgraph::Subgraph;

/// A mining task: subgraph + application context + pending pulls.
#[derive(Clone, Debug, Default)]
pub struct Task<C> {
    /// The task's subgraph `g`, grown by saving pulled data.
    pub subgraph: Subgraph,
    /// Application-specific state (the paper's `task.context`).
    pub context: C,
    /// Vertices pulled in the current iteration — the paper's `P(t)`.
    /// Deduplicated; drained by the framework when the iteration ends.
    pulls: Vec<VertexId>,
    /// Largest vertex in `pulls` (meaningless while it is empty): a
    /// pull above it cannot be a duplicate.
    max_pull: VertexId,
    /// While the task waits in `T_task`/`B_task`: per pull, the list a
    /// cache hit already locked for it (see [`Task::set_held`]). Not
    /// part of the encoded task.
    held: Vec<Option<SharedAdj>>,
    /// Spawn timestamp on the metrics clock — the start of the task's
    /// end-to-end latency measurement. Travels with the task through
    /// spills, steals and checkpoints so the spawn→finish distribution
    /// includes queue/disk residence; 0 when metrics are disabled.
    pub born_nanos: u64,
}

impl<C> Task<C> {
    /// Creates a task with the given context and an empty subgraph.
    pub fn new(context: C) -> Self {
        Task {
            subgraph: Subgraph::new(),
            context,
            pulls: Vec::new(),
            max_pull: VertexId(0),
            held: Vec::new(),
            born_nanos: gthinker_metrics::now_nanos(),
        }
    }

    /// Requests `Γ(v)` for the next iteration (`t.pull(v)` in the
    /// paper). Duplicate pulls of the same vertex within one iteration
    /// are coalesced, so each pulled vertex holds exactly one cache
    /// lock. Pulling in ascending order (as a walk down a sorted
    /// adjacency list does) costs no scan for duplicates.
    pub fn pull(&mut self, v: VertexId) {
        if self.pulls.is_empty() || v > self.max_pull {
            self.max_pull = v;
            self.pulls.push(v);
        } else if !self.pulls.contains(&v) {
            self.pulls.push(v);
        }
    }

    /// The vertices pulled so far this iteration.
    pub fn pending_pulls(&self) -> &[VertexId] {
        &self.pulls
    }

    /// True if the task requested any vertex this iteration.
    pub fn has_pulls(&self) -> bool {
        !self.pulls.is_empty()
    }

    /// Removes and returns the pull set (called by the framework when
    /// `compute()` returns and the pulls become the next `P(t)`).
    pub fn take_pulls(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.pulls)
    }

    /// Restores a pull set (checkpoint restore / task migration).
    pub fn set_pulls(&mut self, pulls: Vec<VertexId>) {
        self.max_pull = max_of(&pulls);
        self.pulls = pulls;
    }

    /// Framework use: parks, with the task, the adjacency lists its
    /// comper's cache hits returned — `held[i]` belongs to pull `i`,
    /// `None` where the vertex is local or still on the wire. They are
    /// the cache's own `Arc`s and stay cache-locked for this task, so
    /// keeping them costs one pointer per pull and saves the second
    /// lookup when the task becomes ready.
    pub fn set_held(&mut self, held: Vec<Option<SharedAdj>>) {
        self.held = held;
    }

    /// Takes back what [`Task::set_held`] parked (empty if nothing).
    pub fn take_held(&mut self) -> Vec<Option<SharedAdj>> {
        std::mem::take(&mut self.held)
    }
}

impl<C: Encode> Encode for Task<C> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.subgraph.encode(buf);
        self.context.encode(buf);
        self.pulls.encode(buf);
        self.born_nanos.encode(buf);
    }
}

impl<C: Decode> Decode for Task<C> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let subgraph = Subgraph::decode(buf)?;
        let context = C::decode(buf)?;
        let pulls = Vec::decode(buf)?;
        let born_nanos = u64::decode(buf)?;
        let max_pull = max_of(&pulls);
        Ok(Task { subgraph, context, pulls, max_pull, held: Vec::new(), born_nanos })
    }
}

/// `Task::max_pull` of a pull set that did not come through
/// [`Task::pull`].
fn max_of(pulls: &[VertexId]) -> VertexId {
    pulls.iter().copied().max().unwrap_or_default()
}

/// The adjacency lists delivered to `compute(t, frontier)`: one entry
/// per vertex pulled in the previous iteration, in pull order.
///
/// Entries are `Arc`s pointing into the local vertex table or the
/// remote-vertex cache; they are released right after `compute()`
/// returns, so tasks must copy what they need into their subgraph.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    entries: Vec<FrontierEntry>,
}

#[derive(Clone, Debug)]
struct FrontierEntry {
    v: VertexId,
    /// The entry holds a lock in the remote-vertex cache (it is not a
    /// local vertex), to be released after the iteration.
    locked: bool,
    adj: SharedAdj,
}

impl Frontier {
    /// Creates a frontier from gathered `(v, Γ(v))` pairs, none of them
    /// cache-locked.
    pub fn new(entries: Vec<(VertexId, SharedAdj)>) -> Self {
        let mut f = Frontier::with_capacity(entries.len());
        for (v, adj) in entries {
            f.push(v, adj, false);
        }
        f
    }

    /// An empty frontier with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        Frontier { entries: Vec::with_capacity(n) }
    }

    /// Appends `(v, Γ(v))`; `locked` says the list came out of the
    /// remote-vertex cache and holds a lock there.
    pub fn push(&mut self, v: VertexId, adj: SharedAdj, locked: bool) {
        self.entries.push(FrontierEntry { v, locked, adj });
    }

    /// Number of pulled vertices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the previous iteration pulled nothing (first iteration
    /// after spawn, unless the spawn itself pulled).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(v, Γ(v))` in pull order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &SharedAdj)> {
        self.entries.iter().map(|e| (e.v, &e.adj))
    }

    /// Looks up the adjacency list of a specific pulled vertex.
    pub fn get(&self, v: VertexId) -> Option<&SharedAdj> {
        self.entries.iter().find(|e| e.v == v).map(|e| &e.adj)
    }

    /// The pulled vertex IDs in pull order.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.entries.iter().map(|e| e.v)
    }

    /// The vertices whose entries hold a cache lock — what the
    /// framework releases when the iteration ends.
    pub fn locked_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.entries.iter().filter(|e| e.locked).map(|e| e.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use gthinker_graph::adj::AdjList;
    use std::sync::Arc;

    #[test]
    fn pull_deduplicates() {
        let mut t: Task<u32> = Task::new(7);
        t.pull(VertexId(1));
        t.pull(VertexId(2));
        t.pull(VertexId(1));
        assert_eq!(t.pending_pulls(), &[VertexId(1), VertexId(2)]);
        assert!(t.has_pulls());
        let p = t.take_pulls();
        assert_eq!(p.len(), 2);
        assert!(!t.has_pulls());
    }

    #[test]
    fn pulls_coalesce_in_any_order() {
        let pulled = |order: &[u32]| {
            let mut t: Task<()> = Task::new(());
            for &v in order {
                t.pull(VertexId(v));
            }
            t.take_pulls().iter().map(|v| v.0).collect::<Vec<_>>()
        };
        assert_eq!(pulled(&[5, 9, 3, 5]), [5, 9, 3], "a repeat below the maximum");
        assert_eq!(pulled(&[9, 7, 5, 7, 9, 5]), [9, 7, 5], "descending");
        assert_eq!(pulled(&[1, 8, 2, 9, 2, 8, 10, 1]), [1, 8, 2, 9, 10], "interleaved");
        assert_eq!(pulled(&[0, 0, 4, 4]), [0, 4], "vertex 0 first");
        // The maximum is of the current pull set, not of an earlier one.
        let mut t: Task<()> = Task::new(());
        t.pull(VertexId(9));
        t.take_pulls();
        t.pull(VertexId(3));
        t.pull(VertexId(3));
        assert_eq!(t.pending_pulls(), &[VertexId(3)]);
        // ... and survives a restore and a codec round trip.
        t.set_pulls(vec![VertexId(6), VertexId(2)]);
        t.pull(VertexId(6));
        t.pull(VertexId(4));
        assert_eq!(t.pending_pulls(), &[VertexId(6), VertexId(2), VertexId(4)]);
        let mut back: Task<()> = from_bytes(&to_bytes(&t)).unwrap();
        back.pull(VertexId(4));
        back.pull(VertexId(6));
        assert_eq!(back.pending_pulls(), t.pending_pulls());
    }

    #[test]
    fn a_hub_sized_ascending_pull_set_is_not_quadratic() {
        // 50 000 ascending pulls: 1.25e9 comparisons if each one scanned
        // the set for a duplicate, none when it is above the maximum.
        let mut t: Task<()> = Task::new(());
        for v in 0..50_000 {
            t.pull(VertexId(v));
        }
        for v in [0, 25_000, 49_999] {
            t.pull(VertexId(v));
        }
        assert_eq!(t.pending_pulls().len(), 50_000);
        assert!(t.pending_pulls().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn held_lists_travel_with_the_task_but_not_through_the_codec() {
        let mut t: Task<u32> = Task::new(1);
        t.pull(VertexId(4));
        t.pull(VertexId(8));
        let a = Arc::new(AdjList::from_unsorted(vec![VertexId(9)]));
        t.set_held(vec![None, Some(Arc::clone(&a))]);
        let mut back: Task<u32> = from_bytes(&to_bytes(&t)).unwrap();
        assert!(back.take_held().is_empty(), "a decoded task re-resolves its pulls");
        let held = t.take_held();
        assert!(held[0].is_none() && Arc::ptr_eq(held[1].as_ref().unwrap(), &a));
        assert!(t.take_held().is_empty());
    }

    #[test]
    fn task_round_trips_through_codec() {
        let mut t: Task<u64> = Task::new(99);
        t.subgraph.add_vertex(VertexId(5), AdjList::from_unsorted(vec![VertexId(6)]));
        t.pull(VertexId(6));
        let back: Task<u64> = from_bytes(&to_bytes(&t)).unwrap();
        assert_eq!(back.context, 99);
        assert_eq!(back.pending_pulls(), &[VertexId(6)]);
        assert!(back.subgraph.contains(VertexId(5)));
    }

    #[test]
    fn frontier_lookup_and_iteration() {
        let a = Arc::new(AdjList::from_unsorted(vec![VertexId(9)]));
        let f = Frontier::new(vec![(VertexId(1), Arc::clone(&a)), (VertexId(2), a)]);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert!(f.get(VertexId(2)).is_some());
        assert!(f.get(VertexId(3)).is_none());
        assert_eq!(f.vertex_ids().collect::<Vec<_>>(), vec![VertexId(1), VertexId(2)]);
        for (_, adj) in f.iter() {
            assert_eq!(adj.as_slice(), &[VertexId(9)]);
        }
        assert_eq!(f.locked_ids().count(), 0);
        let mut f = Frontier::with_capacity(3);
        for (v, locked) in [(3, true), (4, false), (5, true)] {
            f.push(VertexId(v), Arc::new(AdjList::new()), locked);
        }
        assert_eq!(f.locked_ids().collect::<Vec<_>>(), vec![VertexId(3), VertexId(5)]);
        assert_eq!(f.vertex_ids().count(), 3);
    }

    #[test]
    fn empty_frontier() {
        let f = Frontier::default();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }
}
