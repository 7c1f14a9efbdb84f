//! Adjacency-list trimming (the paper's `Trimmer` class, §IV item 7).
//!
//! Every list is trimmed once, where a worker first gets hold of it —
//! as it is read from a graph file or copied out of an in-RAM graph,
//! at decode time off a mapped one — so that vertex pulls only ship
//! trimmed lists over the (simulated) network. Two built-in trimmers match the paper's
//! examples:
//!
//! * [`GreaterIdTrimmer`] — keep only `Γ_>(v)`, the neighbors with larger
//!   IDs, for set-enumeration-tree algorithms such as maximum clique and
//!   triangle counting.
//! * [`LabelSetTrimmer`] — drop neighbors whose labels do not appear in
//!   the query graph, for subgraph matching.
//!
//! A trimmer that knows which part of `Γ(v)` it keeps can push the trim
//! down into the store ([`Trimmer::fetch_trimmed`]): `GreaterIdTrimmer`
//! asks for `Γ_>(v)` and a store that can produce it without producing
//! `Γ(v)` — the compressed format, which keeps it at the head of the
//! record — does only that much work.

use crate::adj::AdjList;
use crate::graph::Graph;
use crate::ids::{Label, VertexId};
use crate::store::AdjacencyStore;

/// A user-definable pass that rewrites each vertex's adjacency list
/// right after loading.
pub trait Trimmer: Send + Sync {
    /// Rewrites `adj` for vertex `v` (whose label, if any, is `label`).
    fn trim(&self, v: VertexId, label: Option<Label>, adj: &mut AdjList);

    /// The trimmed list of `v` straight from `store` — how the framework
    /// obtains every trimmed list it does not already hold (the copy out
    /// of an in-RAM graph, the lazy local table and [`trim_graph`] call
    /// nothing else; a list read from a file is in hand, and gets
    /// [`trim`](Trimmer::trim)). The provided body fetches all of `Γ(v)`
    /// and [`trim`](Trimmer::trim)s it. An implementation that overrides
    /// it to fetch less promises the same result, for every store and
    /// vertex, as that provided body; it never sees the part it skipped.
    fn fetch_trimmed(&self, store: &dyn AdjacencyStore, v: VertexId) -> AdjList {
        let mut adj = store.adjacency(v);
        self.trim(v, store.label(v), &mut adj);
        adj
    }
}

/// Keeps only neighbors with IDs strictly greater than the owner —
/// `Γ(v) → Γ_>(v)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreaterIdTrimmer;

impl Trimmer for GreaterIdTrimmer {
    fn trim(&self, v: VertexId, _label: Option<Label>, adj: &mut AdjList) {
        adj.keep_greater_than(v);
    }

    fn fetch_trimmed(&self, store: &dyn AdjacencyStore, v: VertexId) -> AdjList {
        store.adjacency_above(v)
    }
}

/// Drops neighbors whose label is not in the allowed set. Requires the
/// graph to be labeled; on unlabeled graphs it is a no-op.
#[derive(Clone, Debug)]
pub struct LabelSetTrimmer {
    allowed: Vec<bool>,
    labels: Vec<Label>,
}

impl LabelSetTrimmer {
    /// Builds a trimmer that keeps only neighbors labeled with one of
    /// `allowed`, given the full per-vertex label table of the data
    /// graph.
    pub fn new(allowed: &[Label], labels: Vec<Label>) -> Self {
        let max = allowed.iter().map(|l| l.value()).max().unwrap_or(0) as usize;
        let mut mask = vec![false; max + 1];
        for l in allowed {
            mask[l.value() as usize] = true;
        }
        LabelSetTrimmer { allowed: mask, labels }
    }

    fn keeps(&self, l: Label) -> bool {
        self.allowed.get(l.value() as usize).copied().unwrap_or(false)
    }
}

impl Trimmer for LabelSetTrimmer {
    fn trim(&self, _v: VertexId, _label: Option<Label>, adj: &mut AdjList) {
        if self.labels.is_empty() {
            return;
        }
        let labels = &self.labels;
        adj.retain(|u| self.keeps(labels[u.index()]));
    }
}

/// Applies a trimmer to every vertex of a graph, returning the trimmed
/// graph. Vertices whose own label is filtered keep their (possibly
/// empty) entry — tasks are simply never spawned from them. A job never
/// copies the graph like this (it trims each list as it partitions);
/// this is the whole-graph reference its tests compare against.
pub fn trim_graph(g: &Graph, trimmer: &dyn Trimmer) -> Graph {
    let labels = g.labels().map(<[Label]>::to_vec);
    let adj: Vec<AdjList> = g.vertices().map(|v| trimmer.fetch_trimmed(g, v)).collect();
    let out = Graph::from_adjacency(adj);
    match labels {
        Some(l) => out.with_labels(l),
        None => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn greater_id_trimmer_keeps_strict_suffix() {
        let g = gen::complete(5);
        let t = trim_graph(&g, &GreaterIdTrimmer);
        for v in t.vertices() {
            for u in t.neighbors(v).iter() {
                assert!(u > v);
            }
        }
        // Sum of trimmed degrees equals |E| exactly once per edge.
        let total: usize = t.vertices().map(|v| t.neighbors(v).degree()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn label_trimmer_drops_disallowed_labels() {
        let g = gen::random_labels(gen::complete(30), 3, 9);
        let labels = g.labels().unwrap().to_vec();
        let t = LabelSetTrimmer::new(&[Label(0), Label(2)], labels);
        let trimmed = trim_graph(&g, &t);
        for v in trimmed.vertices() {
            for u in trimmed.neighbors(v).iter() {
                let l = trimmed.label(u).unwrap();
                assert!(l == Label(0) || l == Label(2), "kept neighbor with label {l}");
            }
        }
    }

    #[test]
    fn label_trimmer_is_noop_without_label_table() {
        let g = gen::complete(4);
        let t = LabelSetTrimmer::new(&[Label(1)], Vec::new());
        let trimmed = trim_graph(&g, &t);
        assert_eq!(trimmed.num_edges(), g.num_edges());
    }

    #[test]
    fn trimming_preserves_label_table() {
        let g = gen::random_labels(gen::cycle(6), 2, 3);
        let t = trim_graph(&g, &GreaterIdTrimmer);
        assert!(t.is_labeled());
        for v in g.vertices() {
            assert_eq!(g.label(v), t.label(v));
        }
    }
}
