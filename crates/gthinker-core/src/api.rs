//! The user-facing programming interface (§IV, Fig. 4 of the paper).
//!
//! An application implements [`App`] with two serial UDFs:
//!
//! * [`App::task_spawn`] — how to create tasks from an individual vertex
//!   of the local vertex table;
//! * [`App::compute`] — how a task processes one iteration given the
//!   `frontier` of adjacency lists it pulled last iteration; returning
//!   `false` finishes the task.
//!
//! Both UDFs receive an environment handle for adding tasks
//! ([`SpawnEnv::add_task`] / [`ComputeEnv::add_task`]) and for
//! aggregator access. Everything else — vertex caching, pending-task
//! bookkeeping, batching, spilling, stealing — is the framework's job.

use crate::agg::{Aggregator, LocalAgg};
use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::{Label, VertexId};
use gthinker_graph::trim::Trimmer;
use gthinker_task::codec::{Decode, Encode};
use gthinker_task::task::{Frontier, Task};

/// A G-thinker application.
pub trait App: Send + Sync + 'static {
    /// Per-task application state (the paper's `task.context`), e.g.
    /// the already-included vertex set `S` of a clique task. Must be
    /// codec-serializable so tasks can spill, migrate and checkpoint.
    type Context: Send + Encode + Decode + 'static;

    /// The application's aggregator (use [`crate::agg::NoAgg`] if
    /// unused).
    type Agg: Aggregator;

    /// Builds the aggregator instance for a job.
    fn make_aggregator(&self) -> Self::Agg;

    /// UDF: spawn zero or more tasks from local vertex `v` whose
    /// (trimmed) adjacency list is `adj`.
    fn task_spawn(&self, v: VertexId, adj: &AdjList, env: &mut SpawnEnv<'_, Self>);

    /// Batch-spawn hook: called once per claimed batch of unspawned
    /// vertices. The default forwards to [`App::task_spawn`] per
    /// vertex; override it to **bundle** several low-degree vertices
    /// into one task — the optimization the paper names as future work
    /// (its \[38\]) for the many-small-tasks regime where per-task
    /// subgraphs are too small to hide pull latency.
    fn task_spawn_batch(
        &self,
        verts: &[(VertexId, gthinker_graph::adj::SharedAdj, Option<Label>)],
        env: &mut SpawnEnv<'_, Self>,
    ) {
        for (v, adj, label) in verts {
            env.label = *label;
            self.task_spawn(*v, adj, env);
        }
    }

    /// UDF: process one iteration of `task`. `frontier` holds `(u,
    /// Γ(u))` for every vertex pulled in the previous iteration; those
    /// references are released when this returns, so copy what you need
    /// into `task.subgraph`. Pull more vertices with
    /// [`Task::pull`] and return `true` to be scheduled for
    /// another iteration; return `false` when finished.
    fn compute(
        &self,
        task: &mut Task<Self::Context>,
        frontier: &Frontier,
        env: &mut ComputeEnv<'_, Self>,
    ) -> bool;

    /// Optional adjacency trimmer applied once after graph loading
    /// (§IV item 7); `None` keeps lists untouched.
    fn trimmer(&self) -> Option<Box<dyn Trimmer>> {
        None
    }
}

/// Environment passed to [`App::task_spawn`].
pub struct SpawnEnv<'a, A: App + ?Sized> {
    pub(crate) new_tasks: Vec<Task<A::Context>>,
    pub(crate) agg: &'a LocalAgg<A::Agg>,
    pub(crate) label: Option<Label>,
}

impl<'a, A: App + ?Sized> SpawnEnv<'a, A> {
    pub(crate) fn new(agg: &'a LocalAgg<A::Agg>, label: Option<Label>) -> Self {
        SpawnEnv { new_tasks: Vec::new(), agg, label }
    }

    /// Adds a freshly spawned task to the calling comper's `Q_task`.
    pub fn add_task(&mut self, task: Task<A::Context>) {
        self.new_tasks.push(task);
    }

    /// The spawn vertex's label, if the graph is labeled.
    pub fn label(&self) -> Option<Label> {
        self.label
    }

    /// Contributes an item to the worker-local aggregator partial
    /// (e.g. a trivially answered vertex that needs no task).
    pub fn aggregate(&self, item: <A::Agg as Aggregator>::Item) {
        self.agg.aggregate(item);
    }

    /// Snapshot of the last broadcast global aggregate (for spawn-time
    /// pruning, e.g. Fig. 5 line 1).
    pub fn global(&self) -> <A::Agg as Aggregator>::Global {
        self.agg.global()
    }

    /// Reads the local partial and global aggregate together.
    pub fn read_agg<R>(
        &self,
        f: impl FnOnce(&<A::Agg as Aggregator>::Partial, &<A::Agg as Aggregator>::Global) -> R,
    ) -> R {
        self.agg.read(f)
    }

    pub(crate) fn take_tasks(&mut self) -> Vec<Task<A::Context>> {
        std::mem::take(&mut self.new_tasks)
    }
}

/// Environment passed to [`App::compute`].
pub struct ComputeEnv<'a, A: App + ?Sized> {
    pub(crate) new_tasks: Vec<Task<A::Context>>,
    pub(crate) agg: &'a LocalAgg<A::Agg>,
    pub(crate) labels: Option<&'a std::sync::Arc<Vec<Label>>>,
    pub(crate) output: Option<&'a crate::output::OutputSink>,
    pub(crate) budget: Option<u64>,
    pub(crate) splits: u64,
}

impl<'a, A: App + ?Sized> ComputeEnv<'a, A> {
    pub(crate) fn new(
        agg: &'a LocalAgg<A::Agg>,
        labels: Option<&'a std::sync::Arc<Vec<Label>>>,
        output: Option<&'a crate::output::OutputSink>,
        budget: Option<u64>,
    ) -> Self {
        ComputeEnv { new_tasks: Vec::new(), agg, labels, output, budget, splits: 0 }
    }

    /// The job's straggler-splitting budget
    /// ([`crate::config::JobConfig::compute_budget`]), if any. A UDF
    /// whose single `compute` call can run long (a deep serial
    /// search-tree expansion) should treat this as a hint to split its
    /// remaining work into fresh tasks via [`Self::add_task`] and
    /// report the fan-out with [`Self::note_split`].
    pub fn compute_budget(&self) -> Option<u64> {
        self.budget
    }

    /// Records that this `compute` call split a straggler into `n`
    /// fresh tasks instead of finishing it serially (feeds the
    /// `yields`/`split_tasks` counters).
    pub fn note_split(&mut self, n: u64) {
        self.splits += n;
    }

    pub(crate) fn take_splits(&mut self) -> u64 {
        std::mem::take(&mut self.splits)
    }

    /// Streams one output record to this worker's output file
    /// (enumerating workloads must not buffer their exponential output
    /// in memory — see [`crate::output`]).
    ///
    /// # Panics
    /// Panics if the job was configured without
    /// [`crate::config::JobConfig::output_dir`].
    pub fn emit(&self, record: &[u8]) {
        self.output.expect("ComputeEnv::emit requires JobConfig::output_dir").emit(record);
    }

    /// The label of any data-graph vertex.
    ///
    /// Labels are vertex-count-linear (2 bytes each), so the loader
    /// replicates the label table to every worker — the paper's
    /// `Vertex` value field would carry labels with each pulled
    /// adjacency list instead; replication avoids widening every
    /// response message and costs `2·|V|` bytes per machine.
    pub fn label_of(&self, v: VertexId) -> Option<Label> {
        self.labels.map(|l| l[v.index()])
    }

    /// Adds a decomposed subtask to the calling comper's `Q_task` (it
    /// may spill to disk and be picked up by any comper or stolen by
    /// another worker).
    pub fn add_task(&mut self, task: Task<A::Context>) {
        self.new_tasks.push(task);
    }

    /// Contributes an item to the worker-local aggregator partial.
    pub fn aggregate(&self, item: <A::Agg as Aggregator>::Item) {
        self.agg.aggregate(item);
    }

    /// Snapshot of the last broadcast global aggregate.
    pub fn global(&self) -> <A::Agg as Aggregator>::Global {
        self.agg.global()
    }

    /// Reads the local partial and global aggregate together — the
    /// freshest pruning information available on this worker.
    pub fn read_agg<R>(
        &self,
        f: impl FnOnce(&<A::Agg as Aggregator>::Partial, &<A::Agg as Aggregator>::Global) -> R,
    ) -> R {
        self.agg.read(f)
    }

    pub(crate) fn take_tasks(&mut self) -> Vec<Task<A::Context>> {
        std::mem::take(&mut self.new_tasks)
    }
}
