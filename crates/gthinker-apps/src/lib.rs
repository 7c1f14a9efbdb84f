//! G-thinker applications — the workloads of the paper's evaluation and
//! the extensions its repository and §VII name:
//!
//! * [`MaxCliqueApp`] — maximum clique finding (MCF), Fig. 5, with the
//!   τ decomposition threshold and aggregator-based global pruning.
//! * [`TriangleApp`], [`TriangleListApp`], [`BundledTriangleApp`] —
//!   triangle counting (TC) with `Γ_>` trimming, its enumerating
//!   variant with streamed output, and low-degree vertices bundled
//!   several to a task.
//! * Four miners of one task, the k-hop ego network of §III
//!   ([`egonet`]: [`EgoNetApp`] around an [`EgoMiner`]):
//!   [`type@MaximalCliqueApp`] — maximal clique enumeration by minimum
//!   vertex; [`MatchingApp`] — labeled subgraph matching (GM) anchored
//!   on query vertex 0's label instances; [`QuasiCliqueApp`] —
//!   γ-quasi-clique counting; [`KPlexApp`] — connected k-plex counting.
//!
//! [`serial`] holds the in-task serial kernels (branch-and-bound max
//! clique, Bron–Kerbosch maximal cliques, intersection triangle
//! counting, backtracking matcher, quasi-clique and k-plex
//! enumeration), each validated against brute force.

pub mod egonet;
pub mod kplex;
pub mod matching;
pub mod maxclique;
pub mod maximalclique;
pub mod quasiclique;
pub mod serial;
pub mod triangle;
pub mod triangle_bundled;
pub mod triangle_list;

pub use egonet::{EgoMiner, EgoNetApp};
pub use gthinker_core::SumAgg;
pub use kplex::KPlexApp;
pub use matching::MatchingApp;
pub use maxclique::{BestCliqueAgg, Clique, MaxCliqueApp};
pub use maximalclique::MaximalCliqueApp;
pub use quasiclique::QuasiCliqueApp;
pub use serial::matching::Pattern;
pub use triangle::TriangleApp;
pub use triangle_bundled::BundledTriangleApp;
pub use triangle_list::TriangleListApp;
