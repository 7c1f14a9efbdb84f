//! G-thinker core: a CPU-bound distributed framework for subgraph
//! mining, reproduced in Rust from the ICDE 2020 paper.
//!
//! Applications implement the [`App`] trait's two UDFs — `task_spawn`
//! and `compute` — and run them with [`run_job`], the shorthand for
//! [`Job`]`::new(app, graph, &config).run()`; `Job`'s options
//! (progress observer, resume from a checkpoint, crash recovery) and
//! its second terminal call, [`Job::run_process`] for one worker of a
//! multi-process TCP cluster, all go through that one path. The framework
//! provides the remote-vertex cache, per-comper task scheduling with
//! disk spilling, batched vertex pulling over a simulated cluster
//! interconnect, aggregator synchronization, master-coordinated work
//! stealing, distributed termination detection, and
//! suspend/resume checkpointing.
//!
//! ```
//! use gthinker_core::prelude::*;
//! use std::sync::Arc;
//!
//! /// Count every vertex by spawning a trivial task per vertex.
//! struct CountVertices;
//!
//! impl App for CountVertices {
//!     type Context = ();
//!     type Agg = SumAgg;
//!     fn make_aggregator(&self) -> SumAgg { SumAgg }
//!     fn task_spawn(&self, _v: VertexId, _adj: &AdjList, env: &mut SpawnEnv<'_, Self>) {
//!         env.add_task(Task::new(()));
//!     }
//!     fn compute(&self, _t: &mut Task<()>, _f: &Frontier, env: &mut ComputeEnv<'_, Self>) -> bool {
//!         env.aggregate(1);
//!         false
//!     }
//! }
//!
//! let graph = gthinker_graph::gen::cycle(10);
//! let result = run_job(
//!     Arc::new(CountVertices),
//!     &graph,
//!     &JobConfig::single_machine(2),
//! ).unwrap();
//! assert_eq!(result.global, 10);
//! ```

pub mod agg;
pub mod api;
pub mod checkpoint;
pub mod cluster;
mod comper;
pub mod config;
pub mod job;
mod master;
pub mod metrics;
pub mod output;
mod termination;
mod worker;

pub use agg::{Aggregator, LocalAgg, NoAgg, SumAgg};
pub use api::{App, ComputeEnv, SpawnEnv};
pub use cluster::ClusterRole;
pub use config::{JobConfig, JobOutcome, JobResult};
pub use job::{run_job, GraphSource, Job, ProgressSnapshot, RecoveryOptions, RecoveryReport};
pub use metrics::{ClusterTelemetry, MetricsRegistry, MetricsSnapshot, WorkerMetricsSnapshot};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use crate::agg::{Aggregator, NoAgg, SumAgg};
    pub use crate::api::{App, ComputeEnv, SpawnEnv};
    pub use crate::config::{JobConfig, JobOutcome, JobResult};
    pub use crate::job::{
        run_job, GraphSource, Job, ProgressSnapshot, RecoveryOptions, RecoveryReport,
    };
    pub use crate::metrics::{MetricsSnapshot, WorkerMetricsSnapshot};
    pub use gthinker_graph::adj::AdjList;
    pub use gthinker_graph::ids::{Label, VertexId};
    pub use gthinker_graph::subgraph::Subgraph;
    pub use gthinker_task::task::{Frontier, Task};
}
