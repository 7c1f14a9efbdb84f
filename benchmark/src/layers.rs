//! Every call the benchmark makes into the workspace crates is in this
//! file: one thin function per probe, leaf APIs only, so an API rename
//! costs a fix here and nowhere else.
//!
//! A probe prepares its inputs from the workload's own graph, then
//! returns a closure that does one batch of work and reports how many
//! operations it did and how long the measured part took (preparation
//! inside the closure is not on the clock). The runner in `main.rs`
//! repeats the closure and reports the median batch.

use gthinker_apps::serial::clique::max_clique_above;
use gthinker_apps::serial::maximal::bron_kerbosch;
use gthinker_graph::adj::AdjList;
use gthinker_graph::compressed::{write_compressed, CompressedGraph, CompressedStats};
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{TaskId, VertexId, WorkerId};
use gthinker_graph::load::load_binary_file;
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::subgraph::Subgraph;
use gthinker_graph::trim::{GreaterIdTrimmer, Trimmer};
use gthinker_net::fault::FaultConfig;
use gthinker_net::frame;
use gthinker_net::message::Message;
use gthinker_net::router::{LinkConfig, Router};
use gthinker_net::tcp::{ClusterManifest, TcpTransport};
use gthinker_net::transport::{NetEndpoint, Transport};
use gthinker_net::DEFAULT_REQUEST_BATCH;
use gthinker_store::{CacheConfig, LocalTable, RequestOutcome, VertexCache};
use gthinker_task::codec::{from_bytes, to_bytes, Decode, Encode};
use gthinker_task::{PendingTable, SharedTaskQueue, SpillManager, Task, DEFAULT_BATCH};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One batch: operations done and the time the measured part took.
pub type Sample = (u64, Duration);

/// Task roots sampled per kernel probe.
const MAX_ROOTS: usize = 600;
/// Bounds on the cache working set taken from the traced run's misses.
const WORKING_SET: std::ops::RangeInclusive<usize> = 10_000..=200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miner {
    Tc,
    Mc,
    Mcf,
}

/// The context type every probe task carries. `tc` and `mcf` tasks
/// carry exactly this; an `mc` root task carries three empty vectors
/// where this has one, a difference of 16 encoded bytes.
type Ctx = Vec<VertexId>;

/// What the probes share: the workload's graph in both storage forms
/// and the samples drawn from it.
pub struct Inputs {
    pub graph: Graph,
    pub gtc: Arc<CompressedGraph>,
    pub gtc_stats: CompressedStats,
    pub miner: Miner,
    pub tau: usize,
    /// The miner's post-load trim: `Γ_>` for `tc` and `mcf`, none for `mc`.
    trimmer: Option<Arc<dyn Trimmer>>,
    /// Task roots: an even stride over the vertices that spawn a task.
    roots: Vec<VertexId>,
    /// The cache working set: as many distinct vertices as the traced
    /// run missed on, an even stride over the graph.
    remote: Vec<VertexId>,
    scratch: PathBuf,
}

/// `graph.load_bin_s`: the loader the CLI uses for a plain binary file.
pub fn load_bin(path: &Path) -> io::Result<Graph> {
    load_binary_file(path).map_err(io::Error::from)
}

/// `graph.build_gtc_s`: what `gthinker graph build` does with a loaded graph.
pub fn build_gtc(g: &Graph, out: &Path) -> io::Result<CompressedStats> {
    write_compressed(g, out)
}

/// `graph.open_gtc_s`: map and validate (lengths, offsets, CRC).
pub fn open_gtc(path: &Path) -> io::Result<CompressedGraph> {
    CompressedGraph::open(path)
}

fn stride_sample(n: usize, want: usize, keep: impl Fn(VertexId) -> bool) -> Vec<VertexId> {
    let step = (n / want.max(1)).max(1);
    (0..n).step_by(step).map(VertexId::from_index).filter(|&v| keep(v)).take(want).collect()
}

impl Inputs {
    pub fn new(
        graph: Graph,
        gtc: CompressedGraph,
        gtc_stats: CompressedStats,
        miner: Miner,
        tau: usize,
        misses: usize,
        scratch: &Path,
    ) -> Inputs {
        let n = graph.num_vertices();
        let roots = stride_sample(n, MAX_ROOTS, |v| graph.degree(v) >= 2);
        let want = misses.clamp(*WORKING_SET.start(), *WORKING_SET.end()).min(n);
        let remote = stride_sample(n, want, |_| true);
        let trimmer: Option<Arc<dyn Trimmer>> = match miner {
            Miner::Tc | Miner::Mcf => Some(Arc::new(GreaterIdTrimmer)),
            Miner::Mc => None,
        };
        Inputs {
            graph,
            gtc: Arc::new(gtc),
            gtc_stats,
            miner,
            tau,
            trimmer,
            roots,
            remote,
            scratch: scratch.to_path_buf(),
        }
    }

    /// `Γ(v)` as the job ships it: after the miner's trimmer.
    fn shipped(&self, v: VertexId) -> AdjList {
        let mut adj = self.graph.neighbors(v).clone();
        if let Some(t) = &self.trimmer {
            t.trim(v, None, &mut adj);
        }
        adj
    }

    fn shipped_working_set(&self) -> Vec<(VertexId, AdjList)> {
        self.remote.iter().map(|&v| (v, self.shipped(v))).collect()
    }

    /// `Γ_>(v)`.
    fn greater(&self, v: VertexId) -> Vec<VertexId> {
        self.graph.neighbors(v).greater_than(v).to_vec()
    }
}

// ---------------------------------------------------------------- graph

fn adjacency_sweep<'a>(
    store: &'a dyn AdjacencyStore,
    keys: &'a [VertexId],
) -> impl FnMut() -> Sample + 'a {
    move || {
        let t = Instant::now();
        for &v in keys {
            black_box(store.adjacency(v));
        }
        (keys.len() as u64, t.elapsed())
    }
}

/// `graph.csr_adj_ns`: `AdjacencyStore::adjacency` on the in-RAM store.
pub fn ram_adjacency(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    adjacency_sweep(&inp.graph, &inp.remote)
}

/// `graph.gtc_adj_ns`: the same lookups decoded from the mapped file.
pub fn gtc_adjacency(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    adjacency_sweep(&*inp.gtc, &inp.remote)
}

/// The ego net an `mc` task builds: `N[v]` with every list cut down to
/// members.
fn ego_net(inp: &Inputs, v: VertexId) -> Subgraph {
    let mut members: Vec<VertexId> = inp.graph.neighbors(v).iter().collect();
    members.push(v);
    members.sort_unstable();
    let mut sg = Subgraph::new();
    for &u in &members {
        sg.add_vertex(u, AdjList::from_sorted(inp.graph.neighbors(u).intersect_slice(&members)));
    }
    sg
}

/// The candidate subgraph an `mcf` task mines serially: at most `tau`
/// candidates out of `Γ_>(v)` (bigger sets decompose first), lists cut
/// down to candidates.
fn candidate_net(inp: &Inputs, v: VertexId) -> Subgraph {
    let mut ext = inp.greater(v);
    ext.truncate(inp.tau);
    let mut sg = Subgraph::new();
    for &w in &ext {
        let row = AdjList::from_sorted(inp.greater(w));
        sg.add_vertex(w, AdjList::from_sorted(row.intersect_slice(&ext)));
    }
    sg
}

fn task_subgraph(inp: &Inputs, v: VertexId) -> Subgraph {
    match inp.miner {
        Miner::Mcf => candidate_net(inp, v),
        Miner::Tc | Miner::Mc => ego_net(inp, v),
    }
}

/// `graph.to_local_ns`: `Subgraph::to_local` on the subgraphs this
/// workload's tasks hand to their serial kernel.
pub fn to_local(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let subgraphs: Vec<Subgraph> = inp.roots.iter().map(|&v| task_subgraph(inp, v)).collect();
    move || {
        let t = Instant::now();
        for sg in &subgraphs {
            black_box(sg.to_local());
        }
        (subgraphs.len() as u64, t.elapsed())
    }
}

// ---------------------------------------------------------------- store

/// A cache holding the whole working set, every entry released (so a
/// hit takes it out of the Z-table and the release puts it back, as
/// between two tasks of a job).
fn filled_cache(inp: &Inputs, config: CacheConfig) -> VertexCache {
    let cache = VertexCache::new(config);
    let mut counter = cache.counter_handle();
    for (v, adj) in inp.shipped_working_set() {
        cache.request(v, TaskId::new(0, 0), &mut counter);
        cache.insert_response(v, adj);
        cache.release(v);
    }
    counter.flush();
    cache
}

fn hit_sweep(cache: &VertexCache, keys: impl Iterator<Item = VertexId>) {
    let mut counter = cache.counter_handle();
    for v in keys {
        match cache.request(v, TaskId::new(0, 1), &mut counter) {
            RequestOutcome::Hit(adj) => drop(black_box(adj)),
            other => panic!("{v} is cached, got {other:?}"),
        }
        cache.release(v);
    }
}

/// `store.hit_ns`: `request` (hit) + `release`.
pub fn cache_hit(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let cache = filled_cache(inp, CacheConfig::default());
    move || {
        let t = Instant::now();
        hit_sweep(&cache, inp.remote.iter().copied());
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `store.hit_2t_ns`: the same sweep from two threads at once, one
/// forwards and one backwards; the time one thread's hit takes then.
pub fn cache_hit_two_threads(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let cache = filled_cache(inp, CacheConfig::default());
    move || {
        let start = Barrier::new(2);
        let timed = |keys: &mut dyn Iterator<Item = VertexId>| {
            start.wait();
            let t = Instant::now();
            hit_sweep(&cache, keys);
            t.elapsed()
        };
        let (a, b) = std::thread::scope(|s| {
            let back = s.spawn(|| timed(&mut inp.remote.iter().rev().copied()));
            let a = timed(&mut inp.remote.iter().copied());
            (a, back.join().expect("hit sweep does not panic"))
        });
        (inp.remote.len() as u64, a.max(b))
    }
}

/// `store.miss_ns`: `request` (first ask) + `insert_response` + `release`
/// into a cold cache.
pub fn cache_miss(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    move || {
        let cache = VertexCache::new(CacheConfig::default());
        let mut counter = cache.counter_handle();
        let entries = inp.shipped_working_set();
        let t = Instant::now();
        for (v, adj) in entries {
            match cache.request(v, TaskId::new(0, 0), &mut counter) {
                RequestOutcome::MustRequest => {}
                other => panic!("{v} is new to the cache, got {other:?}"),
            }
            black_box(cache.insert_response(v, adj));
            cache.release(v);
        }
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `store.gc_evict_ns`: capacity a quarter of the working set, then
/// `gc_pass` until the cache is back under its limit; per evicted vertex.
pub fn cache_gc_evict(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    move || {
        let config = CacheConfig { capacity: inp.remote.len() / 4, ..CacheConfig::default() };
        let cache = filled_cache(inp, config);
        let mut counter = cache.counter_handle();
        let mut evicted = 0;
        let t = Instant::now();
        loop {
            let n = cache.gc_pass(&mut counter);
            counter.flush();
            if n == 0 {
                break;
            }
            evicted += n as u64;
        }
        (evicted.max(1), t.elapsed())
    }
}

fn get_sweep<'a>(table: LocalTable, keys: &'a [VertexId]) -> impl FnMut() -> Sample + 'a {
    move || {
        let t = Instant::now();
        for &v in keys {
            black_box(table.get(v).expect("every vertex is local"));
        }
        (keys.len() as u64, t.elapsed())
    }
}

/// `store.local_get_ns`: `LocalTable::get` on the eager table a worker
/// builds from a RAM graph (here: every vertex, trimmed).
pub fn local_get(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let records = inp.graph.vertices().map(|v| (v, inp.shipped(v))).collect();
    get_sweep(LocalTable::new(records), &inp.remote)
}

/// `store.lazy_get_ns`: `LocalTable::get` on the lazy table over the
/// mapped file: decode + trim on every call.
pub fn lazy_get(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let store: Arc<dyn AdjacencyStore> = inp.gtc.clone();
    let table = LocalTable::lazy(store, inp.trimmer.clone(), inp.graph.vertices().collect());
    get_sweep(table, &inp.remote)
}

// ----------------------------------------------------------------- task

/// The task this workload's miner queues, parks and spills for root `v`.
fn task_for(inp: &Inputs, v: VertexId) -> Task<Ctx> {
    match inp.miner {
        Miner::Tc => {
            let mut t = Task::new(Vec::new());
            inp.greater(v).into_iter().for_each(|u| t.pull(u));
            t
        }
        Miner::Mc => {
            let mut t = Task::new(Vec::new());
            t.subgraph.add_vertex(v, inp.graph.neighbors(v).clone());
            inp.graph.neighbors(v).iter().for_each(|u| t.pull(u));
            t
        }
        // What overflows the queue under a small tau are decomposed
        // subtasks: a context and an induced candidate subgraph, no pulls.
        Miner::Mcf => {
            let mut t = Task::new(vec![v]);
            t.subgraph = candidate_net(inp, v);
            t
        }
    }
}

fn tasks(inp: &Inputs) -> Vec<Task<Ctx>> {
    inp.roots.iter().map(|&v| task_for(inp, v)).collect()
}

/// `task.queue_ns`: `SharedTaskQueue` push + pop, a batch `C` at a time
/// so nothing overflows into a spill.
pub fn queue(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let queue = SharedTaskQueue::new(DEFAULT_BATCH);
    move || {
        let mut pending = tasks(inp);
        let n = pending.len() as u64;
        let t = Instant::now();
        while !pending.is_empty() {
            let at = pending.len().saturating_sub(DEFAULT_BATCH);
            for task in pending.drain(at..) {
                let (spilled, _) = queue.push(task);
                assert!(spilled.is_none(), "a batch of C fits the queue");
            }
            while let Some(task) = queue.pop() {
                black_box(task);
            }
        }
        (n, t.elapsed())
    }
}

/// `task.pending_ns`: `PendingTable::insert`, then one `notify` per
/// pulled vertex until the task comes back ready.
pub fn pending(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let table = PendingTable::new();
    move || {
        let batch = tasks(inp);
        let n = batch.len() as u64;
        let t = Instant::now();
        for (i, task) in batch.into_iter().enumerate() {
            let id = TaskId::new(0, i as u64);
            let awaited = task.pending_pulls().len().max(1) as u32;
            assert!(table.insert(id, task, awaited, 0).is_none());
            for _ in 1..awaited {
                assert!(table.notify(id).is_none());
            }
            black_box(table.notify(id).expect("last awaited vertex readies the task"));
        }
        (n, t.elapsed())
    }
}

/// `task.encode_ns`: the task codec, one task at a time.
pub fn task_encode(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let batch = tasks(inp);
    move || {
        let t = Instant::now();
        for task in &batch {
            black_box(to_bytes(task));
        }
        (batch.len() as u64, t.elapsed())
    }
}

/// `task.decode_ns`.
pub fn task_decode(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let encoded: Vec<Vec<u8>> = tasks(inp).iter().map(to_bytes).collect();
    move || {
        let t = Instant::now();
        for bytes in &encoded {
            black_box(from_bytes::<Task<Ctx>>(bytes).expect("own encoding decodes"));
        }
        (encoded.len() as u64, t.elapsed())
    }
}

/// `task.bytes_per_task`: mean encoded size.
pub fn bytes_per_task(inp: &Inputs) -> f64 {
    let batch = tasks(inp);
    batch.iter().map(|t| to_bytes(t).len()).sum::<usize>() as f64 / batch.len().max(1) as f64
}

fn spill_all(spill: &SpillManager, batch: &[Task<Ctx>]) {
    for chunk in batch.chunks(DEFAULT_BATCH) {
        spill.spill(chunk).expect("spill into the scratch directory");
    }
}

fn spill_manager(inp: &Inputs, name: &str) -> SpillManager {
    SpillManager::new(inp.scratch.join(name)).expect("create the spill directory")
}

/// `task.spill_mb_s`: `SpillManager::spill` in batch files of `C`
/// tasks; the sample counts bytes.
pub fn spill(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let spill = spill_manager(inp, "spill");
    let batch = tasks(inp);
    move || {
        let before = spill.bytes_spilled();
        let t = Instant::now();
        spill_all(&spill, &batch);
        let took = t.elapsed();
        spill.clear().expect("remove the batch files");
        (spill.bytes_spilled() - before, took)
    }
}

/// `task.refill_mb_s`: `SpillManager::refill` of those files (read,
/// decode, delete); the sample counts bytes.
pub fn refill(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let spill = spill_manager(inp, "refill");
    let batch = tasks(inp);
    move || {
        spill_all(&spill, &batch);
        let before = spill.bytes_refilled();
        let t = Instant::now();
        while let Some(tasks) = spill.refill::<Ctx>().expect("refill from the scratch directory") {
            black_box(tasks);
        }
        (spill.bytes_refilled() - before, t.elapsed())
    }
}

// ------------------------------------------------------------------ net

/// One pull round trip per full request batch of the working set: the
/// request and the response that answers it.
fn pull_messages(inp: &Inputs) -> Vec<Message> {
    inp.shipped_working_set()
        .chunks(DEFAULT_REQUEST_BATCH)
        .flat_map(|chunk| {
            [
                Message::VertexRequest {
                    from: WorkerId(0),
                    vertices: chunk.iter().map(|(v, _)| *v).collect(),
                    sent_nanos: 1,
                },
                Message::VertexResponse { entries: chunk.to_vec(), req_nanos: 1 },
            ]
        })
        .collect()
}

fn encoded(messages: &[Message]) -> Vec<Vec<u8>> {
    messages.iter().map(to_bytes).collect()
}

/// `net.encode_ns`: `Message` codec, request + response, per pulled vertex.
pub fn message_encode(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let messages = pull_messages(inp);
    move || {
        let mut buf = Vec::new();
        let t = Instant::now();
        for m in &messages {
            buf.clear();
            m.encode(&mut buf);
            black_box(&buf);
        }
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `net.decode_ns`.
pub fn message_decode(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let payloads = encoded(&pull_messages(inp));
    move || {
        let t = Instant::now();
        for p in &payloads {
            black_box(Message::decode(&mut p.as_slice()).expect("own encoding decodes"));
        }
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `net.seal_ns`: `frame::seal` (header + CRC) of both payloads, per
/// pulled vertex.
pub fn frame_seal(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let payloads = encoded(&pull_messages(inp));
    move || {
        let t = Instant::now();
        for p in &payloads {
            black_box(frame::seal(p));
        }
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `net.open_ns`: `frame::open` (validate + CRC check).
pub fn frame_open(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let frames: Vec<Vec<u8>> =
        encoded(&pull_messages(inp)).iter().map(|p| frame::seal(p)).collect();
    move || {
        let t = Instant::now();
        for f in &frames {
            black_box(frame::open(f).expect("own frame opens"));
        }
        (inp.remote.len() as u64, t.elapsed())
    }
}

/// `net.bytes_per_pull`: framed request + response bytes per pulled vertex.
pub fn bytes_per_pull(inp: &Inputs) -> f64 {
    let bytes: usize =
        encoded(&pull_messages(inp)).iter().map(|p| p.len() + frame::FRAME_OVERHEAD).sum();
    bytes as f64 / inp.remote.len().max(1) as f64
}

const RENDEZVOUS: Duration = Duration::from_secs(10);
const RECV: Duration = Duration::from_secs(10);

/// Two workers joined by the real TCP data plane over loopback, both in
/// this process.
fn tcp_pair() -> [Box<dyn NetEndpoint>; 2] {
    let (manifest, listeners) = ClusterManifest::loopback(2).expect("bind loopback");
    let mut ends: Vec<Box<dyn NetEndpoint>> = std::thread::scope(|s| {
        let joins: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(w, listener)| {
                let manifest = &manifest;
                s.spawn(move || {
                    let me = WorkerId(w as u16);
                    TcpTransport::connect_on(
                        manifest,
                        me,
                        FaultConfig::default(),
                        RENDEZVOUS,
                        listener,
                    )
                    .expect("loopback rendezvous")
                    .take_endpoint(me)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("rendezvous thread")).collect()
    });
    let b = ends.pop().expect("two endpoints");
    [ends.pop().expect("two endpoints"), b]
}

fn next_data(end: &dyn NetEndpoint) -> Message {
    loop {
        let m = end.recv_timeout(RECV).expect("peer answers within the timeout");
        // Anything else is a transport event.
        if matches!(m, Message::VertexRequest { .. } | Message::VertexResponse { .. }) {
            return m;
        }
    }
}

/// `net.tcp_rtt_us`: one-vertex request → response over loopback TCP,
/// the responder looking the list up like a worker's responder does.
pub fn tcp_round_trip(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    const TRIPS: usize = 400;
    let [a, b] = tcp_pair();
    let entries: Vec<(VertexId, AdjList)> =
        inp.shipped_working_set().into_iter().take(TRIPS).collect();
    move || {
        let took = std::thread::scope(|s| {
            s.spawn(|| {
                for entry in &entries {
                    let Message::VertexRequest { from, sent_nanos, .. } = next_data(&*b) else {
                        panic!("the responder only gets requests");
                    };
                    let entries = vec![entry.clone()];
                    b.send(from, Message::VertexResponse { entries, req_nanos: sent_nanos });
                }
            });
            let t = Instant::now();
            for (v, _) in &entries {
                let request =
                    Message::VertexRequest { from: WorkerId(0), vertices: vec![*v], sent_nanos: 1 };
                a.send(WorkerId(1), request);
                black_box(next_data(&*a));
            }
            t.elapsed()
        });
        (entries.len() as u64, took)
    }
}

/// Sends `count` 32-vertex requests one way; the clock stops when the
/// receiver has them all and says so.
fn blast(a: &dyn NetEndpoint, b: &dyn NetEndpoint, count: usize) -> Sample {
    let vertices: Vec<VertexId> = (0..32).map(VertexId).collect();
    let took = std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..count {
                black_box(next_data(b));
            }
            b.send(WorkerId(0), Message::VertexResponse { entries: Vec::new(), req_nanos: 0 });
        });
        let t = Instant::now();
        for _ in 0..count {
            let request = Message::VertexRequest {
                from: WorkerId(0),
                vertices: vertices.clone(),
                sent_nanos: 0,
            };
            a.send(WorkerId(1), request);
        }
        black_box(next_data(a));
        t.elapsed()
    });
    (count as u64, took)
}

/// `net.tcp_msgs_s`: one-way message rate of the TCP data plane.
pub fn tcp_messages() -> impl FnMut() -> Sample {
    let [a, b] = tcp_pair();
    move || blast(&*a, &*b, 20_000)
}

/// `net.sim_msgs_s`: the same through the in-process sim `Router`.
pub fn sim_messages() -> impl FnMut() -> Sample {
    let mut router = Router::new(2, LinkConfig::INSTANT);
    let mut handles = router.take_handles();
    let b = handles.pop().expect("two handles");
    let a = handles.pop().expect("two handles");
    move || {
        let _keep_delivering = &router;
        blast(&a, &b, 20_000)
    }
}

// ----------------------------------------------------------------- apps
//
// The serial work one task's compute() does, rebuilt from the public
// pieces the apps call (compute() itself needs the engine's
// environment). `Subgraph::to_local` sits in the middle of the mc and
// mcf kernels and is off the clock here: `graph.to_local_ns` times it.

/// `apps.tc_ns`: `Σ_u |Γ_>(v) ∩ Γ_>(u)|` over the pulled rows.
pub fn tc_kernel(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    let frontiers: Vec<(Vec<VertexId>, Vec<AdjList>)> = inp
        .roots
        .iter()
        .map(|&v| {
            let gv = inp.greater(v);
            let rows = gv.iter().map(|&u| AdjList::from_sorted(inp.greater(u))).collect();
            (gv, rows)
        })
        .collect();
    move || {
        let t = Instant::now();
        for (gv, rows) in &frontiers {
            let count: usize = rows.iter().map(|row| row.intersection_count(gv)).sum();
            black_box(count);
        }
        (frontiers.len() as u64, t.elapsed())
    }
}

/// `apps.mc_ns`: build the ego net from the pulled lists, then
/// Bron–Kerbosch seeded with `R = {v}`, `P = Γ_>(v)`, `X = Γ_<(v)`.
pub fn mc_kernel(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    move || {
        let mut took = Duration::ZERO;
        for &v in &inp.roots {
            let t = Instant::now();
            let ego = ego_net(inp, v);
            took += t.elapsed();
            let local = ego.to_local();
            let t = Instant::now();
            let anchor = (0..local.num_vertices() as u32)
                .find(|&i| local.global_id(i) == v)
                .expect("anchor in its ego net");
            let (p, x) = local.neighbors(anchor).iter().partition(|&&u| u > anchor);
            let mut cliques = 0u64;
            bron_kerbosch(&local, &mut vec![anchor], p, x, &mut |_| cliques += 1);
            black_box(cliques);
            took += t.elapsed();
        }
        (inp.roots.len() as u64, took)
    }
}

/// `apps.mcf_ns`: induce the candidate subgraph (at most `tau`
/// candidates), then `max_clique_above` with nothing found yet.
pub fn mcf_kernel(inp: &Inputs) -> impl FnMut() -> Sample + '_ {
    move || {
        let mut took = Duration::ZERO;
        for &v in &inp.roots {
            let t = Instant::now();
            let candidates = candidate_net(inp, v);
            took += t.elapsed();
            let local = candidates.to_local();
            let t = Instant::now();
            black_box(max_clique_above(&local, 0));
            took += t.elapsed();
        }
        (inp.roots.len() as u64, took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every probe does work on a small graph, for every miner's task
    /// shape: what an API change in the crates breaks shows up here,
    /// before a benchmark run.
    #[test]
    fn every_probe_runs_on_a_small_graph() {
        for miner in [Miner::Tc, Miner::Mc, Miner::Mcf] {
            let scratch = std::env::temp_dir()
                .join(format!("gthinker-probes-test-{}-{miner:?}", std::process::id()));
            std::fs::create_dir_all(&scratch).unwrap();
            let graph = gthinker_graph::gen::gnp(300, 0.06, 7);
            let gtc_path = scratch.join("g.gtc");
            let stats = build_gtc(&graph, &gtc_path).unwrap();
            let gtc = open_gtc(&gtc_path).unwrap();
            assert_eq!(gtc.num_edges(), graph.num_edges() as u64);
            let inp = Inputs::new(graph, gtc, stats, miner, 16, 0, &scratch);
            assert!(!inp.roots.is_empty() && inp.remote.len() == 300);

            type Probe<'a> = Box<dyn FnMut() -> Sample + 'a>;
            let probes: Vec<(&str, Probe<'_>)> = vec![
                ("ram_adjacency", Box::new(ram_adjacency(&inp))),
                ("gtc_adjacency", Box::new(gtc_adjacency(&inp))),
                ("to_local", Box::new(to_local(&inp))),
                ("cache_hit", Box::new(cache_hit(&inp))),
                ("cache_hit_two_threads", Box::new(cache_hit_two_threads(&inp))),
                ("cache_miss", Box::new(cache_miss(&inp))),
                ("cache_gc_evict", Box::new(cache_gc_evict(&inp))),
                ("local_get", Box::new(local_get(&inp))),
                ("lazy_get", Box::new(lazy_get(&inp))),
                ("queue", Box::new(queue(&inp))),
                ("pending", Box::new(pending(&inp))),
                ("task_encode", Box::new(task_encode(&inp))),
                ("task_decode", Box::new(task_decode(&inp))),
                ("spill", Box::new(spill(&inp))),
                ("refill", Box::new(refill(&inp))),
                ("message_encode", Box::new(message_encode(&inp))),
                ("message_decode", Box::new(message_decode(&inp))),
                ("frame_seal", Box::new(frame_seal(&inp))),
                ("frame_open", Box::new(frame_open(&inp))),
                ("tcp_round_trip", Box::new(tcp_round_trip(&inp))),
                ("tc_kernel", Box::new(tc_kernel(&inp))),
                ("mc_kernel", Box::new(mc_kernel(&inp))),
                ("mcf_kernel", Box::new(mcf_kernel(&inp))),
            ];
            for (name, mut probe) in probes {
                let (ops, took) = probe();
                assert!(
                    ops > 0 && took > Duration::ZERO,
                    "{miner:?} {name}: {ops} ops in {took:?}"
                );
            }
            // A quarter of the working set fits, so three quarters go.
            let (evicted, _) = cache_gc_evict(&inp)();
            assert_eq!(evicted, 300 - 300 / 4);
            assert!(bytes_per_task(&inp) > 0.0 && bytes_per_pull(&inp) > 0.0);
            std::fs::remove_dir_all(&scratch).unwrap();
        }
    }

    #[test]
    fn both_transports_deliver_every_message() {
        for mut blast in
            [Box::new(tcp_messages()) as Box<dyn FnMut() -> Sample>, Box::new(sim_messages())]
        {
            assert_eq!(blast().0, 20_000);
        }
    }
}
