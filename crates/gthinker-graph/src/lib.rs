//! Graph substrate for the G-thinker reproduction.
//!
//! This crate provides everything the framework needs to represent and
//! manipulate graphs:
//!
//! * [`VertexId`] / [`Label`] — compact identifier newtypes ([`ids`]).
//! * [`AdjList`] — sorted adjacency lists with the `Γ(v)` / `Γ_>(v)`
//!   operations used throughout the paper ([`adj`]).
//! * [`bitset::BitSet`] — dense word-parallel sets backing the serial
//!   miners' BBMC-style kernels ([`bitset`]).
//! * [`Graph`] — an in-memory undirected (optionally labeled) graph with
//!   builders, induced-subgraph extraction and degree statistics
//!   ([`graph`]).
//! * [`Subgraph`] — the task-local subgraph `g` that a task grows from
//!   pulled lists: one row block sorted by vertex ID, the form it is
//!   also encoded in ([`subgraph`]).
//! * Deterministic random generators (Erdős–Rényi, Barabási–Albert,
//!   planted cliques, labeled graphs) in [`gen`], plus scaled-down
//!   stand-ins for the paper's five datasets in [`datasets`].
//! * Text loaders/writers for edge-list and adjacency-list formats
//!   ([`load`]), hash partitioning ([`partition`]) and adjacency-list
//!   trimming ([`trim`]).
//!
//! The G-thinker paper assumes the input graph is stored as a set of
//! `(v, Γ(v))` pairs on HDFS and hash-partitioned over workers; this crate
//! reproduces that model with local files and [`partition::HashPartitioner`].

pub mod adj;
pub mod bitset;
pub mod compressed;
pub mod crc;
pub mod datasets;
pub mod gen;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod load;
pub mod mmap;
pub mod order;
pub mod partition;
pub mod stats;
pub mod store;
pub mod subgraph;
pub mod trim;
pub mod vbyte;

pub use adj::AdjList;
pub use compressed::CompressedGraph;
pub use graph::Graph;
pub use ids::{Label, VertexId};
pub use partition::HashPartitioner;
pub use store::AdjacencyStore;
pub use subgraph::Subgraph;
pub use trim::Trimmer;

#[cfg(test)]
pub(crate) mod testing {
    use std::path::{Path, PathBuf};

    /// A file path `name` in a directory of its own,
    /// `gthinker-<tag>-<pid>-<name>` in the temp dir, which goes when
    /// this is dropped.
    pub(crate) struct TempPath {
        dir: PathBuf,
        path: PathBuf,
    }

    impl TempPath {
        pub(crate) fn new(tag: &str, name: &str) -> TempPath {
            let dir =
                std::env::temp_dir().join(format!("gthinker-{tag}-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempPath { path: dir.join(name), dir }
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TempPath {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }
}
