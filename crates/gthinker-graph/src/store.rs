//! The pluggable adjacency backend.
//!
//! Everything above the storage layer — `to_local`, trimming,
//! partitioning, the vertex cache, the six miners — needs exactly one
//! thing from a graph: "give me `Γ(v)` (and the label) for a vertex I
//! name". [`AdjacencyStore`] is that contract. The in-RAM [`Graph`]
//! hands out copies of materialized lists; [`CompressedGraph`]
//! decodes the list from its mapped file on each call. Callers that
//! need decode-once semantics put a cache in front (the worker's
//! `LocalTable`/`VertexCache` layers already are that cache). Callers
//! that only want `Γ_>(v)` say so ([`AdjacencyStore::adjacency_above`])
//! and each backend does as little as its layout allows.

use std::sync::Arc;

use crate::adj::AdjList;
use crate::compressed::CompressedGraph;
use crate::graph::Graph;
use crate::ids::{Label, VertexId};

/// A vertex-addressable source of adjacency lists.
///
/// Implementations must be cheap to share across threads; `adjacency`
/// returns an owned list so compressed backends can decode without
/// holding borrows into their storage.
pub trait AdjacencyStore: Send + Sync {
    /// Number of vertices; valid IDs are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> u64;

    /// The sorted adjacency list `Γ(v)`.
    fn adjacency(&self, v: VertexId) -> AdjList;

    /// `Γ_>(v)`: the neighbors with IDs above `v`, always equal to
    /// `adjacency(v).greater_than(v)`. Backends override when they can
    /// produce the suffix without producing the list — the compressed
    /// format stores it first so that it can.
    fn adjacency_above(&self, v: VertexId) -> AdjList {
        let mut adj = self.adjacency(v);
        adj.keep_greater_than(v);
        adj
    }

    /// Degree of `v`; backends override when it is cheaper than a full
    /// decode.
    fn degree(&self, v: VertexId) -> usize {
        self.adjacency(v).degree()
    }

    /// The label of `v` for labeled graphs, else `None`.
    fn label(&self, v: VertexId) -> Option<Label>;

    /// True when the store carries labels.
    fn is_labeled(&self) -> bool;

    /// Heap bytes pinned by the store itself (mapped backends report
    /// ~0: their pages belong to the page cache).
    fn heap_bytes(&self) -> usize;
}

impl AdjacencyStore for Graph {
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Graph::num_edges(self) as u64
    }

    fn adjacency(&self, v: VertexId) -> AdjList {
        self.neighbors(v).clone()
    }

    fn adjacency_above(&self, v: VertexId) -> AdjList {
        AdjList::from_sorted(self.neighbors(v).greater_than(v).to_vec())
    }

    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }

    fn label(&self, v: VertexId) -> Option<Label> {
        Graph::label(self, v)
    }

    fn is_labeled(&self) -> bool {
        Graph::is_labeled(self)
    }

    fn heap_bytes(&self) -> usize {
        Graph::heap_bytes(self)
    }
}

impl AdjacencyStore for CompressedGraph {
    fn num_vertices(&self) -> usize {
        CompressedGraph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        CompressedGraph::num_edges(self)
    }

    fn adjacency(&self, v: VertexId) -> AdjList {
        CompressedGraph::adjacency(self, v)
    }

    fn adjacency_above(&self, v: VertexId) -> AdjList {
        CompressedGraph::adjacency_above(self, v)
    }

    fn degree(&self, v: VertexId) -> usize {
        CompressedGraph::degree(self, v)
    }

    fn label(&self, v: VertexId) -> Option<Label> {
        CompressedGraph::label(self, v)
    }

    fn is_labeled(&self) -> bool {
        CompressedGraph::is_labeled(self)
    }

    fn heap_bytes(&self) -> usize {
        CompressedGraph::heap_bytes(self)
    }
}

impl<S: AdjacencyStore + ?Sized> AdjacencyStore for Arc<S> {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn num_edges(&self) -> u64 {
        (**self).num_edges()
    }

    fn adjacency(&self, v: VertexId) -> AdjList {
        (**self).adjacency(v)
    }

    fn adjacency_above(&self, v: VertexId) -> AdjList {
        (**self).adjacency_above(v)
    }

    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    fn label(&self, v: VertexId) -> Option<Label> {
        (**self).label(v)
    }

    fn is_labeled(&self) -> bool {
        (**self).is_labeled()
    }

    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::write_compressed;
    use crate::gen;

    fn backends(g: &Graph) -> Vec<Box<dyn AdjacencyStore>> {
        let path = std::env::temp_dir().join(format!(
            "gthinker-store-{}-{}.gtc",
            std::process::id(),
            g.num_vertices()
        ));
        write_compressed(g, &path).unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        vec![Box::new(g.clone()), Box::new(Arc::new(c)), Box::new(DefaultsOnly(g.clone()))]
    }

    /// A backend that overrides nothing: exercises the provided methods.
    struct DefaultsOnly(Graph);

    impl AdjacencyStore for DefaultsOnly {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn num_edges(&self) -> u64 {
            self.0.num_edges() as u64
        }
        fn adjacency(&self, v: VertexId) -> AdjList {
            self.0.neighbors(v).clone()
        }
        fn label(&self, v: VertexId) -> Option<Label> {
            self.0.label(v)
        }
        fn is_labeled(&self) -> bool {
            self.0.is_labeled()
        }
        fn heap_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn all_backends_agree_on_a_random_graph() {
        let g = gen::gnp(200, 0.05, 11);
        let reference: Vec<AdjList> = g.vertices().map(|v| g.neighbors(v).clone()).collect();
        for store in backends(&g) {
            assert_eq!(store.num_vertices(), g.num_vertices());
            assert_eq!(store.num_edges(), g.num_edges() as u64);
            for v in g.vertices() {
                assert_eq!(store.adjacency(v), reference[v.index()], "Γ({v})");
                assert_eq!(store.degree(v), reference[v.index()].degree());
                assert_eq!(
                    store.adjacency_above(v).as_slice(),
                    reference[v.index()].greater_than(v),
                    "Γ_>({v})"
                );
            }
        }
    }

    #[test]
    fn labels_flow_through_graph_and_compressed_backends() {
        let g = gen::random_labels(gen::gnp(50, 0.1, 5), 3, 1);
        for store in backends(&g) {
            if store.is_labeled() {
                for v in g.vertices() {
                    assert_eq!(store.label(v), g.label(v));
                }
            }
        }
    }
}
