//! Baseline engines re-implemented for the paper's comparison tables.
//!
//! Each baseline reproduces the *architectural property* §II blames for
//! that system's subgraph-mining performance:
//!
//! * [`vertexcentric`] — a Pregel/Giraph-like BSP engine whose
//!   neighborhood-exchange algorithms materialize message volumes far
//!   exceeding the graph (Table III's Giraph OOM/slowness).
//! * [`arabesque`] — a level-synchronous filter-process engine that
//!   materializes every node of the set-enumeration tree per level.
//! * [`gminer`] — a disk-resident, LSH-ordered task queue where
//!   unfinished tasks are re-serialized to disk, the reinsert cost the
//!   paper identifies as G-Miner's bottleneck.
//! * [`rstream`] — an out-of-core relational-join engine whose wedge
//!   intermediate exhausts disk on dense graphs.
//! * [`nscale`] — a two-phase engine that materializes every ego
//!   network on disk before any mining starts (NScale's criticized
//!   dataflow).
//! * [`nuri`] — a single-threaded best-first expander with on-disk
//!   state overflow.
//!
//! The maximum-clique engines (G-Miner-, Nuri-, NScale- and
//! Giraph-like) run the G-thinker app's task: they reach Fig. 5 only
//! through [`gthinker_apps::maxclique`]'s `candidate_graph`, `branches`
//! and `solve`, and differ from G-thinker only in how they schedule and
//! store the tasks.
//!
//! All engines produce [`RunOutcome`]s with wall-clock time, the peak
//! bytes of their dominant structure, and a completion status that maps
//! onto the paper's "OOM" / "> 24 hr" / "out of disk" table entries.

pub mod arabesque;
pub mod gminer;
pub mod nscale;
pub mod nuri;
pub mod outcome;
pub mod rstream;
pub mod vertexcentric;

pub use outcome::{RunOutcome, RunStatus};

use gthinker_apps::maxclique::{candidate_graph, Clique};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use gthinker_graph::subgraph::Subgraph;
use parking_lot::Mutex;

/// The candidate graph of anchor `v`, read straight off the whole graph.
fn anchor_graph(graph: &Graph, v: VertexId) -> Subgraph {
    let ext = graph.neighbors(v).greater_than(v);
    candidate_graph(ext, ext.iter().map(|&u| (u, graph.neighbors(u).greater_than(u))))
}

/// Keeps `found` if it beats the clique already in `best`.
fn offer(best: &Mutex<Clique>, found: Option<Clique>) {
    if let Some(clique) = found {
        let mut b = best.lock();
        if clique.len() > b.len() {
            *b = clique;
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use std::path::PathBuf;

    /// A baseline's config on a directory of the test's own,
    /// `<engine>-test-<tag>-<pid>` in the temp dir, which goes when the
    /// config is dropped.
    pub(crate) struct TestConfig<C> {
        config: C,
        dir: PathBuf,
    }

    impl<C> TestConfig<C> {
        pub(crate) fn new(engine: &str, tag: &str, config: impl FnOnce(PathBuf) -> C) -> Self {
            let dir =
                std::env::temp_dir().join(format!("{engine}-test-{tag}-{}", std::process::id()));
            TestConfig { config: config(dir.clone()), dir }
        }
    }

    impl<C> Drop for TestConfig<C> {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    impl<C> std::ops::Deref for TestConfig<C> {
        type Target = C;
        fn deref(&self) -> &C {
            &self.config
        }
    }

    impl<C> std::ops::DerefMut for TestConfig<C> {
        fn deref_mut(&mut self) -> &mut C {
            &mut self.config
        }
    }
}
