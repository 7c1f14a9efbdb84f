//! The in-memory undirected graph `G = (V, E)`.
//!
//! A [`Graph`] stores one [`AdjList`] per vertex (dense IDs `0..n`) plus
//! optional per-vertex labels. This is the representation the simulated
//! HDFS hands to workers, and the ground-truth structure baselines and
//! tests mine against.

use crate::adj::AdjList;
use crate::ids::{Label, VertexId};

/// An undirected graph with dense vertex IDs and sorted adjacency lists.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<AdjList>,
    labels: Option<Vec<Label>>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Graph { adj: vec![AdjList::new(); n], labels: None }
    }

    /// Builds an undirected graph from an edge list. Self-loops are
    /// dropped and duplicate edges collapse.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut nbrs: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            assert!(u.index() < n && v.index() < n, "edge ({u}, {v}) out of range for n = {n}");
            nbrs[u.index()].push(v);
            nbrs[v.index()].push(u);
        }
        let adj = nbrs.into_iter().map(AdjList::from_unsorted).collect();
        Graph { adj, labels: None }
    }

    /// Builds directly from per-vertex adjacency lists.
    ///
    /// The caller is responsible for symmetry (`u ∈ Γ(v) ⇔ v ∈ Γ(u)`);
    /// [`Graph::validate_undirected`] checks it.
    pub fn from_adjacency(adj: Vec<AdjList>) -> Self {
        Graph { adj, labels: None }
    }

    /// Attaches per-vertex labels. Panics if the length mismatches.
    pub fn with_labels(mut self, labels: Vec<Label>) -> Self {
        assert_eq!(labels.len(), self.adj.len(), "one label per vertex required");
        self.labels = Some(labels);
        self
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(AdjList::degree).sum::<usize>() / 2
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// The adjacency list `Γ(v)`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &AdjList {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].degree()
    }

    /// The label of `v`, if the graph is labeled.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.labels.as_ref().map(|ls| ls[v.index()])
    }

    /// True if the graph carries labels.
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// All labels (if labeled), indexed by vertex.
    pub fn labels(&self) -> Option<&[Label]> {
        self.labels.as_deref()
    }

    /// Iterates over vertex IDs `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.adj.len() as u32).map(VertexId)
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).greater_than(u).iter().map(move |&v| (u, v)))
    }

    /// Membership test for edge `{u, v}`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.adj[u.index()].contains(v)
    }

    /// Checks the undirectedness invariant; returns the first violating
    /// pair if any.
    pub fn validate_undirected(&self) -> Result<(), (VertexId, VertexId)> {
        for u in self.vertices() {
            for v in self.neighbors(u).iter() {
                if v.index() >= self.adj.len() || !self.adj[v.index()].contains(u) {
                    return Err((u, v));
                }
            }
        }
        Ok(())
    }

    /// Total heap bytes of the adjacency structure (simulator memory
    /// accounting).
    pub fn heap_bytes(&self) -> usize {
        let lists: usize = self.adj.iter().map(AdjList::heap_bytes).sum();
        lists
            + self.adj.capacity() * std::mem::size_of::<AdjList>()
            + self.labels.as_ref().map_or(0, |l| l.capacity() * std::mem::size_of::<Label>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2
        Graph::from_edges(3, &[(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))])
    }

    #[test]
    fn from_edges_builds_symmetric_lists() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(2)));
        g.validate_undirected().unwrap();
    }

    #[test]
    fn self_loops_and_duplicates_are_dropped() {
        let g = Graph::from_edges(
            2,
            &[(VertexId(0), VertexId(0)), (VertexId(0), VertexId(1)), (VertexId(1), VertexId(0))],
        );
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(VertexId(0), VertexId(0)));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = path3();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(VertexId(0), VertexId(1)), (VertexId(1), VertexId(2))]);
    }

    #[test]
    fn labels_round_trip() {
        let g = path3().with_labels(vec![Label(0), Label(1), Label(0)]);
        assert!(g.is_labeled());
        assert_eq!(g.label(VertexId(1)), Some(Label(1)));
        assert_eq!(g.labels().unwrap().len(), 3);
    }

    #[test]
    fn validate_detects_asymmetry() {
        let adj = vec![
            AdjList::from_unsorted(vec![VertexId(1)]),
            AdjList::new(), // 1 does not list 0 back
        ];
        let g = Graph::from_adjacency(adj);
        assert_eq!(g.validate_undirected(), Err((VertexId(0), VertexId(1))));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Graph::from_edges(2, &[(VertexId(0), VertexId(5))]);
    }
}
