//! Implementation of the `gthinker` command-line tool.
//!
//! [`usage`] — what `gthinker help` prints — lists every subcommand
//! with its arguments, the file formats, and every option; the option
//! lines are rendered from the one table the parser reads.

mod options;

pub use options::usage;
use options::*;

use gthinker_apps::{
    BundledTriangleApp, KPlexApp, MatchingApp, MaxCliqueApp, MaximalCliqueApp, Pattern,
    QuasiCliqueApp, TriangleApp, TriangleListApp,
};
use gthinker_core::prelude::*;
use gthinker_core::{ClusterRole, ClusterTelemetry};
use gthinker_graph::compressed::{
    build_from_edge_stream, write_compressed, CompressedGraph, FORMAT_VERSION,
};
use gthinker_graph::datasets::{self, DatasetKind};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{Label, VertexId, WorkerId};
use gthinker_graph::load;
use gthinker_graph::order::degeneracy_relabel;
use gthinker_graph::stats::GraphStats;
use gthinker_net::fault::CrashSchedule;
use gthinker_net::ClusterManifest;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// The mining subcommands, alone or after `master` / `worker`.
const MINERS: [&str; 6] = ["mcf", "tc", "mc", "qc", "kp", "gm"];

/// Loads a graph fully into RAM, picking the parser from the file
/// extension (`.gtc` files are decompressed — miners use
/// [`open_graph_input`] instead to stay on the mapping).
pub fn load_graph(path: &str) -> Result<Graph, CliError> {
    let p = Path::new(path);
    let by_ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    if by_ext == "gtc" {
        let c = CompressedGraph::open(p).map_err(|e| CliError(format!("open {path}: {e}")))?;
        return Ok(c.to_graph());
    }
    if by_ext == "bel" {
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        let mut max_id = 0u32;
        load::for_each_edge_file(p, &mut |u, v| {
            max_id = max_id.max(u.0).max(v.0);
            edges.push((u, v));
            Ok(())
        })
        .map_err(|e| CliError(format!("parse {path}: {e}")))?;
        let n = if edges.is_empty() { 0 } else { max_id as usize + 1 };
        return Ok(Graph::from_edges(n, &edges));
    }
    let file = std::fs::File::open(p).map_err(|e| CliError(format!("open {path}: {e}")))?;
    let g = match by_ext {
        "adj" => load::read_adjacency(file),
        "bin" => load::read_binary(file),
        _ => load::read_edge_list(file),
    }
    .map_err(|e| CliError(format!("parse {path}: {e}")))?;
    Ok(g)
}

/// Saves a graph, picking the writer from the file extension.
pub fn save_graph(g: &Graph, path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    let by_ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    if by_ext == "gtc" {
        write_compressed(g, p).map_err(|e| CliError(format!("write {path}: {e}")))?;
        return Ok(());
    }
    if by_ext == "bel" {
        let mut w =
            load::EdgeFileWriter::create(p).map_err(|e| CliError(format!("create {path}: {e}")))?;
        for v in g.vertices() {
            for u in g.neighbors(v).iter().filter(|&u| v < u) {
                w.edge(v, u).map_err(|e| CliError(format!("write {path}: {e}")))?;
            }
        }
        w.finish().map_err(|e| CliError(format!("write {path}: {e}")))?;
        return Ok(());
    }
    let file = std::fs::File::create(p).map_err(|e| CliError(format!("create {path}: {e}")))?;
    match by_ext {
        "adj" => load::write_adjacency(g, file),
        "bin" => load::write_binary(g, file),
        _ => load::write_edge_list(g, file),
    }
    .map_err(|e| CliError(format!("write {path}: {e}")))
}

/// A graph opened for mining: fully in RAM, or memory-mapped compressed
/// with lazy per-vertex decode.
pub enum GraphInput {
    /// Loaded into an in-RAM [`Graph`].
    Ram(Graph),
    /// `.gtc` file, memory-mapped; adjacency decodes per lookup.
    Mapped(Arc<CompressedGraph>),
}

impl GraphInput {
    /// The [`GraphSource`] to hand to the job runner.
    pub fn source(&self) -> GraphSource<'_> {
        match self {
            GraphInput::Ram(g) => GraphSource::InMemory(g),
            GraphInput::Mapped(c) => GraphSource::Mapped(Arc::clone(c)),
        }
    }

    /// The full label table, if the graph is labeled.
    pub fn labels(&self) -> Option<Vec<Label>> {
        match self {
            GraphInput::Ram(g) => g.labels().map(<[Label]>::to_vec),
            GraphInput::Mapped(c) => c.labels(),
        }
    }
}

/// Opens a graph for mining: `.gtc` files are memory-mapped, everything
/// else loads into RAM.
pub fn open_graph_input(path: &str) -> Result<GraphInput, CliError> {
    let p = Path::new(path);
    if p.extension().is_some_and(|e| e == "gtc") {
        let c = CompressedGraph::open(p).map_err(|e| CliError(format!("open {path}: {e}")))?;
        Ok(GraphInput::Mapped(Arc::new(c)))
    } else {
        Ok(GraphInput::Ram(load_graph(path)?))
    }
}

/// Parses a pattern spec like `triangle:0,1,2` or `path:0,1,2`.
pub fn parse_pattern(spec: &str) -> Result<Pattern, CliError> {
    let (kind, labels) = spec
        .split_once(':')
        .ok_or_else(|| CliError(format!("bad pattern {spec}; want kind:l0,l1,l2")))?;
    let ls: Vec<Label> = labels
        .split(',')
        .map(|s| s.trim().parse::<u16>().map(Label))
        .collect::<Result<_, _>>()
        .map_err(|_| CliError(format!("bad pattern labels in {spec}")))?;
    match (kind, ls.as_slice()) {
        ("triangle", [a, b, c]) => Ok(Pattern::triangle(*a, *b, *c)),
        ("path", [a, b, c]) => Ok(Pattern::path3(*a, *b, *c)),
        ("star", [center, leaves @ ..]) if !leaves.is_empty() => {
            Ok(Pattern::star(*center, leaves))
        }
        ("clique4", [a, b, c, d]) => Ok(Pattern::clique4(*a, *b, *c, *d)),
        _ => err(format!(
            "unsupported pattern {spec}; try triangle:0,1,2, path:0,1,2, star:0,1,1,2 or clique4:0,1,2,3"
        )),
    }
}

/// Runs the CLI with the given arguments (without the program name).
/// Returns the text to print.
pub fn run(mut args: Vec<String>) -> Result<String, CliError> {
    if args.is_empty() {
        return err(usage());
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(usage()),
        // Its tail is a command line of its own, parsed there.
        "supervise" => return cmd_supervise(args),
        _ => {}
    }
    let mut a = Args::parse(&cmd, args)?;
    match cmd.as_str() {
        "gen" => cmd_gen(a),
        "stats" => cmd_stats(a),
        "convert" => cmd_convert(a),
        "order" => cmd_order(a),
        "graph" => match a.enter("subcommand (build|stats)")?.as_str() {
            "build" => cmd_graph_build(a),
            "stats" => cmd_graph_stats(a),
            other => err(format!("graph: unknown subcommand {other} (want build or stats)")),
        },
        "master" | "worker" => cmd_cluster(a),
        miner if MINERS.contains(&miner) => {
            let place = Place::read(&mut a, None)?;
            cmd_mine(miner, a, place)
        }
        other => err(format!("unknown command {other}\n{}", usage())),
    }
}

fn cmd_gen(mut a: Args) -> Result<String, CliError> {
    let kind = a.word("generator kind")?;
    let out: String = a.required(&OUT)?;
    let n: usize = a.parsed(&GEN_N)?.unwrap_or(10_000);
    let m: usize = a.parsed(&GEN_M)?.unwrap_or(5);
    let p: f64 = a.parsed(&GEN_P)?.unwrap_or(0.001);
    let seed: u64 = a.parsed(&SEED)?.unwrap_or(1);
    let labels: u16 = a.parsed(&LABELS)?.unwrap_or(0);
    let scale: f64 = a.parsed(&SCALE)?.unwrap_or(1.0);
    let stream = a.take(&STREAM).is_some();
    a.finish([])?;
    if stream {
        if labels > 0 {
            return err(format!("gen: {} does not support {}", STREAM.name, LABELS.name));
        }
        let count = stream_gen(&kind, n, m, p, seed, &out)?;
        return Ok(format!("streamed {count} {kind} edges (n={n}) to {out}"));
    }
    let mut g = match kind.as_str() {
        "ba" => gen::barabasi_albert(n, m, seed),
        "gnp" => gen::gnp(n, p, seed),
        name => {
            let k = DatasetKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| CliError(format!("gen: unknown kind {name}")))?;
            datasets::generate(k, scale).graph
        }
    };
    if labels > 0 {
        g = gen::random_labels(g, labels, seed ^ 0x1abe1);
    }
    save_graph(&g, &out)?;
    Ok(format!("wrote {} vertices / {} edges to {out}", g.num_vertices(), g.num_edges()))
}

/// `gen --stream`: writes edges to disk as the generator emits them,
/// never materializing the edge list (let alone the graph) in RAM.
fn stream_gen(
    kind: &str,
    n: usize,
    m: usize,
    p: f64,
    seed: u64,
    out: &str,
) -> Result<u64, CliError> {
    let path = Path::new(out);
    let wrap = |e: std::io::Error| CliError(format!("write {out}: {e}"));
    let run = |sink: &mut dyn FnMut(VertexId, VertexId) -> std::io::Result<()>| match kind {
        "ba" => gen::stream_barabasi_albert(n, m, seed, sink),
        "gnp" => gen::stream_gnp(n, p, seed, sink),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("gen {}: unsupported kind {other} (want ba or gnp)", STREAM.name),
        )),
    };
    if path.extension().is_some_and(|e| e == "bel") {
        let mut w = load::EdgeFileWriter::create(path).map_err(wrap)?;
        run(&mut |u, v| w.edge(u, v)).map_err(wrap)?;
        w.finish().map_err(wrap)
    } else {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(wrap)?);
        let count = run(&mut |u, v| writeln!(w, "{} {}", u.0, v.0)).map_err(wrap)?;
        w.flush().map_err(wrap)?;
        Ok(count)
    }
}

/// `.bin` on-disk size of a graph with `n` vertices and `m` undirected
/// edges: magic + n + flag + per-vertex degree words + both directions
/// of every edge (+ the label table when labeled).
fn plain_binary_bytes(n: u64, m: u64, labeled: bool) -> u64 {
    8 + 8 + 1 + n * 4 + 2 * m * 4 + if labeled { n * 2 } else { 0 }
}

fn cmd_graph_build(mut a: Args) -> Result<String, CliError> {
    let order = a.take(&ORDER).is_some();
    let [input, output] = a.finish(["IN", "OUT.gtc"])?;
    let in_path = Path::new(&input);
    let out_path = Path::new(&output);
    let by_ext = in_path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let edge_stream = matches!(by_ext, "el" | "txt" | "bel");
    let (stats, note) = if order {
        // A degeneracy relabel needs the whole graph; small-graph path.
        let g = load_graph(&input)?;
        let (relabeled, d) = degeneracy_relabel(&g);
        let s = write_compressed(&relabeled, out_path)
            .map_err(|e| CliError(format!("write {output}: {e}")))?;
        (s, format!(" (degeneracy {d})"))
    } else if edge_stream {
        // Two streaming passes over the edge file; the peak resident
        // state is the degree/offset arrays, never the edge list.
        let s = build_from_edge_stream(out_path, 0, None, |sink| {
            load::for_each_edge_file(in_path, sink).map(|_| ()).map_err(std::io::Error::from)
        })
        .map_err(|e| CliError(format!("graph build: {e}")))?;
        (s, String::new())
    } else {
        let g = load_graph(&input)?;
        let s =
            write_compressed(&g, out_path).map_err(|e| CliError(format!("write {output}: {e}")))?;
        (s, String::new())
    };
    let plain = plain_binary_bytes(stats.num_vertices, stats.num_edges, stats.labeled);
    Ok(format!(
        "compressed {} vertices / {} edges into {output}{note}\n\
         {} bytes on disk ({:.2} bytes/edge), {:.2}x smaller than plain binary ({plain} bytes)",
        stats.num_vertices,
        stats.num_edges,
        stats.file_bytes,
        stats.bytes_per_edge(),
        plain as f64 / stats.file_bytes as f64,
    ))
}

fn cmd_graph_stats(a: Args) -> Result<String, CliError> {
    let [path] = a.finish(["FILE"])?;
    let (s, labeled, compressed) = match open_graph_input(&path)? {
        // Degree stats come straight from the degree sequence: on a .gtc
        // file each degree reads two varints, no adjacency is decoded.
        GraphInput::Mapped(c) => (
            GraphStats::from_degrees(c.degrees()),
            c.is_labeled(),
            format!("{} (this file, format version {FORMAT_VERSION})", c.file_bytes()),
        ),
        GraphInput::Ram(g) => {
            // Estimate by encoding for real into a scratch file.
            let tmp =
                std::env::temp_dir().join(format!("gthinker-stats-{}.gtc", std::process::id()));
            let st = write_compressed(&g, &tmp)
                .map_err(|e| CliError(format!("graph stats: encode: {e}")))?;
            let _ = std::fs::remove_file(&tmp);
            let built = format!(
                "{} (if built with graph build, format version {FORMAT_VERSION})",
                st.file_bytes
            );
            (GraphStats::of(&g), g.is_labeled(), built)
        }
    };
    let plain = plain_binary_bytes(s.num_vertices as u64, s.num_edges as u64, labeled);
    Ok(format!(
        "vertices            {}\nedges               {}\ndegree p50/p95/max  {}/{}/{}\n\
         labeled             {labeled}\nplain binary bytes  {plain}\ncompressed bytes    {compressed}",
        s.num_vertices, s.num_edges, s.degree_p50, s.degree_p95, s.max_degree,
    ))
}

fn cmd_stats(a: Args) -> Result<String, CliError> {
    let [path] = a.finish(["FILE"])?;
    let g = load_graph(&path)?;
    let s = GraphStats::of(&g);
    Ok(format!(
        "vertices      {}\nedges         {}\nmax degree    {}\navg degree    {:.2}\n\
         p50/p90/p99   {}/{}/{}\nisolated      {}\nlabeled       {}",
        s.num_vertices,
        s.num_edges,
        s.max_degree,
        s.avg_degree,
        s.degree_p50,
        s.degree_p90,
        s.degree_p99,
        s.isolated,
        g.is_labeled()
    ))
}

fn cmd_convert(a: Args) -> Result<String, CliError> {
    let [input, output] = a.finish(["IN", "OUT"])?;
    let g = load_graph(&input)?;
    save_graph(&g, &output)?;
    Ok(format!("converted {input} -> {output}"))
}

fn cmd_order(a: Args) -> Result<String, CliError> {
    let [input, output] = a.finish(["IN", "OUT"])?;
    let g = load_graph(&input)?;
    let (relabeled, d) = degeneracy_relabel(&g);
    save_graph(&relabeled, &output)?;
    Ok(format!("degeneracy {d}; wrote reordered graph to {output}"))
}

/// Event-ring capacity per worker when a trace export is requested.
const TRACE_CAPACITY: usize = 65_536;

/// Where a mining command's workers run, and with what configuration.
struct Place {
    cfg: JobConfig,
    /// Write the full metrics snapshot as JSON here.
    metrics_json: Option<String>,
    /// Write the scheduler/cache event timeline here, as Chrome
    /// `trace_event` JSON (chrome://tracing / Perfetto).
    trace_out: Option<String>,
    /// Print the end-of-run tail-latency report even without the file
    /// exports.
    tail: bool,
    /// `None`: all `cfg.num_workers` of them in this process
    /// ([`Job::run`]). `Some`: this process is one worker of a
    /// multi-process job ([`Job::run_process`]).
    seat: Option<ClusterSeat>,
}

/// This process's place in a multi-process cluster, plus the telemetry
/// it was asked to surface.
struct ClusterSeat {
    manifest: ClusterManifest,
    me: WorkerId,
    timeout: Duration,
    /// Print a cluster progress line to stderr every second.
    status: bool,
    /// Serve the live cluster snapshot in Prometheus text exposition
    /// format at this `HOST:PORT`.
    telemetry_addr: Option<String>,
    /// Run the crash-surviving cluster path (periodic checkpoints,
    /// abort-to-checkpoint on peer death, rejoin rendezvous) with these
    /// options.
    recovery: Option<RecoveryOptions>,
}

impl Place {
    /// Reads the options every mining command takes. `cluster_size` is
    /// the length of the host list under `master` / `worker`.
    fn read(a: &mut Args, cluster_size: Option<usize>) -> Result<Place, CliError> {
        let workers = match (cluster_size, a.parsed(&WORKERS)?) {
            (Some(_), Some(_)) => {
                return err(format!(
                    "{}: the size of the cluster comes from {}; drop {}",
                    a.path, HOSTS.name, WORKERS.name
                ))
            }
            (Some(n), None) => n,
            (None, w) => w.unwrap_or(1),
        };
        let compers = a.parsed(&COMPERS)?.unwrap_or(4);
        let mut cfg = if workers <= 1 {
            JobConfig::single_machine(compers)
        } else {
            JobConfig::cluster(workers, compers)
        };
        if let Some(s) = a.take(&STEAL) {
            cfg.work_stealing = match s.as_str() {
                "on" => true,
                "off" => false,
                other => {
                    return err(format!("bad value for {}: {other} (want on or off)", STEAL.name))
                }
            };
        }
        cfg.compute_budget = a.parsed(&COMPUTE_BUDGET)?;
        if cfg.compute_budget == Some(0) {
            return err(format!("{} must be at least 1", COMPUTE_BUDGET.name));
        }
        cfg.report_interval = seconds(a, &REPORT_INTERVAL)?;
        let metrics_json = a.take(&METRICS_JSON);
        let trace_out = a.take(&TRACE_OUT);
        if trace_out.is_some() {
            cfg.trace_capacity = TRACE_CAPACITY;
        }
        Ok(Place { cfg, metrics_json, trace_out, tail: a.take(&TAIL).is_some(), seat: None })
    }

    /// Performs the file exports asked for and renders the tail-latency
    /// report; the returned text is appended to the command's normal
    /// output.
    fn export_metrics(&self, snap: &MetricsSnapshot) -> Result<String, CliError> {
        let mut extra = String::new();
        if let Some(path) = &self.metrics_json {
            std::fs::write(path, snap.to_json())
                .map_err(|e| CliError(format!("write {path}: {e}")))?;
            extra.push_str(&format!("\nmetrics JSON written to {path}"));
        }
        if let Some(path) = &self.trace_out {
            let f =
                std::fs::File::create(path).map_err(|e| CliError(format!("create {path}: {e}")))?;
            snap.write_chrome_trace(std::io::BufWriter::new(f))
                .map_err(|e| CliError(format!("write {path}: {e}")))?;
            extra.push_str(&format!(
                "\ntrace written to {path} (load in chrome://tracing or ui.perfetto.dev)"
            ));
        }
        if self.tail || self.metrics_json.is_some() || self.trace_out.is_some() {
            extra.push('\n');
            extra.push_str(snap.tail_report().trim_end());
        }
        Ok(extra)
    }
}

/// Option `o` as a duration: a positive number of seconds.
fn seconds(a: &mut Args, o: &Opt) -> Result<Option<Duration>, CliError> {
    match a.parsed::<f64>(o)? {
        Some(s) if !s.is_finite() || s <= 0.0 => {
            err(format!("{} must be a positive number of seconds", o.name))
        }
        s => Ok(s.map(Duration::from_secs_f64)),
    }
}

/// One of the six miners: reads the options only it takes, builds its
/// `App` and renders its result line; [`mine`] does the rest, wherever
/// `place` puts the workers.
fn cmd_mine(miner: &str, mut a: Args, mut place: Place) -> Result<String, CliError> {
    match miner {
        "mcf" => {
            let tau: usize = a.parsed(&TAU)?.unwrap_or(40_000);
            mine(
                a,
                place,
                |_| Ok(MaxCliqueApp::with_tau(tau)),
                |r| {
                    format!(
                        "maximum clique: {} vertices in {:.2?}\nmembers: {:?}",
                        r.global.len(),
                        r.elapsed,
                        r.global
                    )
                },
            )
        }
        "tc" => {
            let bundle: usize = a.parsed(&BUNDLE)?.unwrap_or(0);
            // Enumeration mode: each worker streams every triangle it
            // finds to its own part file.
            let list = a.take(&LIST);
            if list.is_some() && bundle > 0 {
                return err(format!(
                    "{}: {} and {} do not combine; enumeration spawns one task per vertex",
                    a.path, LIST.name, BUNDLE.name
                ));
            }
            place.cfg.output_dir = list.as_ref().map(Into::into);
            let render = move |r: &JobResult<u64>| {
                let detail = match &list {
                    Some(dir) => {
                        let emitted = r.metrics.totals().output_records;
                        format!("; {emitted} records written under {dir}")
                    }
                    None => format!(" ({} tasks)", r.total_tasks()),
                };
                format!("triangles: {} in {:.2?}{detail}", r.global, r.elapsed)
            };
            if place.cfg.output_dir.is_some() {
                mine(a, place, |_| Ok(TriangleListApp), render)
            } else if bundle > 0 {
                mine(a, place, |_| Ok(BundledTriangleApp::new(bundle)), render)
            } else {
                mine(a, place, |_| Ok(TriangleApp), render)
            }
        }
        "mc" => mine(
            a,
            place,
            |_| Ok(MaximalCliqueApp),
            |r| format!("maximal cliques: {} in {:.2?}", r.global, r.elapsed),
        ),
        "qc" => {
            let gamma: f64 = a.required(&GAMMA)?;
            let min: usize = a.parsed(&MIN)?.unwrap_or(3);
            let max: usize = a.parsed(&MAX)?.unwrap_or(5);
            mine(
                a,
                place,
                |_| Ok(QuasiCliqueApp::new(gamma, min, max)),
                |r| {
                    format!(
                        "γ={gamma} quasi-cliques of size {min}..{max}: {} in {:.2?}",
                        r.global, r.elapsed
                    )
                },
            )
        }
        "kp" => {
            let k: usize = a.required(&K)?;
            let min: usize = a.parsed(&MIN)?.unwrap_or((2 * k).saturating_sub(1).max(2));
            let max: usize = a.parsed(&MAX)?.unwrap_or(min + 2);
            mine(
                a,
                place,
                |_| Ok(KPlexApp::new(k, min, max)),
                |r| {
                    format!(
                        "connected {k}-plexes of size {min}..{max}: {} in {:.2?}",
                        r.global, r.elapsed
                    )
                },
            )
        }
        "gm" => {
            let spec: String = a.required(&PATTERN)?;
            let pattern = parse_pattern(&spec)?;
            let unlabeled =
                format!("{}: the data graph must be labeled (gen {} K)", a.path, LABELS.name);
            mine(
                a,
                place,
                |input| Ok(MatchingApp::new(pattern, input.labels().ok_or(CliError(unlabeled))?)),
                |r| format!("embeddings of {spec}: {} in {:.2?}", r.global, r.elapsed),
            )
        }
        _ => err(format!("{}: unknown miner (want {})", a.path, MINERS.join("|"))),
    }
}

/// Runs one mining job where `place` says and reports it: the rest of
/// the command line must be the graph FILE, `app` builds the miner once
/// that graph is open, `render` words the result. In one process that
/// is all of it. In a cluster the master (worker 0) prints `render`'s
/// line plus its own byte counters and every other worker just its
/// counters; the metrics exports are cluster-wide on the master, a
/// worker's own elsewhere.
fn mine<A: App>(
    a: Args,
    place: Place,
    app: impl FnOnce(&GraphInput) -> Result<A, CliError>,
    render: impl FnOnce(&JobResult<<A::Agg as Aggregator>::Global>) -> String,
) -> Result<String, CliError> {
    let [file] = a.finish(["FILE"])?;
    let cfg = &place.cfg;
    let Some(seat) = &place.seat else {
        let input = open_graph_input(&file)?;
        let r = Job::new(Arc::new(app(&input)?), input.source(), cfg)
            .run()
            .map_err(|e| CliError(format!("job failed: {e}")))?;
        return Ok(render(&r) + &place.export_metrics(&r.metrics)?);
    };
    // The mesh listener is bound before the graph is loaded so a peer
    // that finishes loading first finds it listening.
    let addr = seat.manifest.addr(seat.me);
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
    let input = open_graph_input(&file)?;
    let on_telemetry = |telemetry: Arc<ClusterTelemetry>| {
        if seat.status {
            spawn_status_thread(Arc::clone(&telemetry));
        }
        if let Some(addr) = &seat.telemetry_addr {
            spawn_telemetry_endpoint(addr, telemetry);
        }
    };
    let mut job = Job::new(Arc::new(app(&input)?), input.source(), cfg).on_telemetry(on_telemetry);
    if let Some(opts) = seat.recovery {
        job = job.recover(opts);
    }
    let role = job
        .run_process(&seat.manifest, seat.me, listener, seat.timeout)
        .map_err(|e| CliError(format!("cluster job failed: {e}")))?;
    let (head, snap, recovery) = match &role {
        ClusterRole::Master(r) => {
            (format!("{}\nworker 0 (master)", render(r)), &r.metrics, &r.recovery)
        }
        ClusterRole::Worker(snap, recovery) => {
            (format!("worker {} done", seat.me.index()), snap, recovery)
        }
    };
    let recovery_line = match seat.recovery {
        Some(_) => format!(
            "\nrecovery: {} recoveries, {} checkpoints, failed workers {:?}",
            recovery.recoveries,
            recovery.checkpoints,
            recovery.failed_workers.iter().map(|w| w.index()).collect::<Vec<_>>()
        ),
        None => String::new(),
    };
    let w = &snap.workers[0];
    Ok(format!(
        "{head}: sent {} bytes, received {} bytes{recovery_line}{}",
        w.net_bytes_sent,
        w.net_bytes_received,
        place.export_metrics(snap)?
    ))
}

/// `gthinker master …` / `gthinker worker …`: one OS process of a
/// multi-process TCP cluster job. Every process must be launched with
/// the same host list, graph file and miner options.
fn cmd_cluster(mut a: Args) -> Result<String, CliError> {
    let role = a.path.clone();
    let is_master = role == "master";
    let hosts: String = a.required(&HOSTS)?;
    let manifest = ClusterManifest::parse(&hosts)
        .map_err(|e| CliError(format!("{role}: bad {}: {e}", HOSTS.name)))?;
    let me = match (is_master, a.parsed::<usize>(&ME)?) {
        (true, None | Some(0)) => 0,
        (true, Some(_)) => {
            return err(format!("master: the master is always worker 0; drop {}", ME.name))
        }
        (false, None) => return err(format!("worker: {} INDEX required", ME.name)),
        (false, Some(0)) => {
            return err("worker: index 0 is the master; run `gthinker master` there")
        }
        (false, Some(i)) => i,
    };
    if me >= manifest.num_workers() {
        return err(format!(
            "{role}: {} {me} out of range for {} hosts",
            ME.name,
            manifest.num_workers()
        ));
    }
    let me = WorkerId(me as u16);
    let mut place = Place::read(&mut a, Some(manifest.num_workers()))?;
    let timeout = Duration::from_secs(a.parsed(&CONNECT_TIMEOUT)?.unwrap_or(30u64));

    // Crash recovery: a checkpoint directory switches the process onto
    // the recovering cluster path; the rest tune it.
    let checkpoint_dir = a.take(&CHECKPOINT_DIR);
    let checkpoint_interval = seconds(&mut a, &CHECKPOINT_INTERVAL)?;
    let max_recoveries: u32 = a.parsed(&MAX_RECOVERIES)?.unwrap_or(8);
    if let Some(dir) = &checkpoint_dir {
        place.cfg.checkpoint_dir = Some(dir.into());
        place.cfg.checkpoint_interval = checkpoint_interval.or(Some(Duration::from_secs(1)));
    }

    // Options of one role are read on that role only: given to the
    // other, they are left over and `finish` says whose they are.
    let (mut status, mut telemetry_addr, mut generation) = (false, None, 0);
    if is_master {
        status = a.take(&STATUS).is_some();
        telemetry_addr = a.take(&TELEMETRY_ADDR);
        // The live views need periodic reports; default them on when a
        // view was requested without an explicit interval.
        if status || telemetry_addr.is_some() {
            place.cfg.report_interval.get_or_insert(Duration::from_secs(1));
        }
    } else {
        generation = a.parsed(&GENERATION)?.unwrap_or(0);
        if a.take(&REJOIN).is_some() && generation == 0 {
            return err(format!(
                "worker: {} requires {} N with N >= 1",
                REJOIN.name, GENERATION.name
            ));
        }
        if generation > 0 && checkpoint_dir.is_none() {
            return err(format!(
                "worker: {} only makes sense with {}",
                GENERATION.name, CHECKPOINT_DIR.name
            ));
        }
        // Deterministic process chaos: self-abort once this process's
        // own traffic crosses a mark, standing in for an external kill.
        let after_messages: Option<u64> = a.parsed(&DIE_AFTER_MSGS)?;
        let after_ms: Option<u64> = a.parsed(&DIE_AFTER_MS)?;
        if after_messages.is_some() || after_ms.is_some() {
            place.cfg.fault.crash = Some(CrashSchedule {
                worker: me,
                after_messages,
                after: after_ms.map(Duration::from_millis),
            });
        }
    }
    place.seat = Some(ClusterSeat {
        manifest,
        me,
        timeout,
        status,
        telemetry_addr,
        recovery: checkpoint_dir
            .is_some()
            .then_some(RecoveryOptions { max_recoveries, generation }),
    });
    let miner = a.enter(&format!("miner subcommand ({})", MINERS.join("|")))?;
    cmd_mine(&miner, a, place)
}

/// The argument list a supervised worker is respawned with: the flags
/// about the dead incarnation (everything worker-scoped: its scheduled
/// death, which must not re-fire, and its rejoin markers) are dropped,
/// and the rejoin markers of generation `generation` are appended so
/// the replacement's hellos supersede the dead generation's sockets at
/// every surviving peer.
fn respawn_args(args: &[String], generation: u32) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len() + 3);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let row = OPTIONS.iter().find(|o| o.name == arg);
        let value = row.and_then(|o| o.value).and_then(|_| args.next());
        if row.is_some_and(|o| o.scope == Scope::Worker) {
            continue;
        }
        out.push(arg.clone());
        out.extend(value.cloned());
    }
    out.extend([REJOIN.name.to_string(), GENERATION.name.to_string(), generation.to_string()]);
    out
}

/// `gthinker supervise [options] worker …`: runs the wrapped `worker`
/// invocation as a child process (stdio inherited) and, when the child
/// dies abnormally, respawns it as the next generation so it rejoins
/// the surviving mesh and the cluster resumes from the last validated
/// checkpoint. A clean exit (status 0) ends supervision.
fn cmd_supervise(mut args: Vec<String>) -> Result<String, CliError> {
    let Some(at) = args.iter().position(|a| a == "worker") else {
        return err(format!("supervise: want `supervise [{} N] worker ..`", RESPAWN_LIMIT.name));
    };
    let mut child = args.split_off(at);
    let mut a = Args::parse("supervise", args)?;
    let limit: u32 = a.parsed(&RESPAWN_LIMIT)?.unwrap_or(4);
    a.finish([])?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError(format!("supervise: cannot find own executable: {e}")))?;
    // Respawn generations continue from wherever the first launch
    // started (a supervisor can itself be restarted mid-job).
    let mut generation: u32 =
        Args::parse("worker", child[1..].to_vec())?.parsed(&GENERATION)?.unwrap_or(0);
    let mut respawns = 0u32;
    loop {
        let status = std::process::Command::new(&exe)
            .args(&child)
            .status()
            .map_err(|e| CliError(format!("supervise: spawn worker: {e}")))?;
        if status.success() {
            return Ok(format!("supervise: worker exited cleanly after {respawns} respawn(s)"));
        }
        respawns += 1;
        if respawns > limit {
            return err(format!(
                "supervise: worker kept dying ({status}); gave up after {limit} respawn(s)"
            ));
        }
        generation += 1;
        eprintln!("supervise: worker died ({status}); respawning as generation {generation}");
        child = respawn_args(&child, generation);
    }
}

/// The master's status view: a detached thread that prints a cluster
/// progress line to stderr every second, built from whatever reports
/// have arrived.
fn spawn_status_thread(telemetry: Arc<ClusterTelemetry>) {
    std::thread::spawn(move || {
        let mut prev: Option<(std::time::Instant, Vec<u64>)> = None;
        loop {
            std::thread::sleep(Duration::from_secs(1));
            let snap = telemetry.cluster_snapshot();
            let now = std::time::Instant::now();
            let bytes: Vec<u64> =
                snap.workers.iter().map(|w| w.net_bytes_sent + w.net_bytes_received).collect();
            let rates: Vec<String> = snap
                .workers
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let rate = match &prev {
                        Some((t, old)) => {
                            let dt = now.duration_since(*t).as_secs_f64();
                            let delta = bytes[i].saturating_sub(old.get(i).copied().unwrap_or(0));
                            if dt > 0.0 {
                                (delta as f64 / dt) as u64
                            } else {
                                0
                            }
                        }
                        None => 0,
                    };
                    format!("w{i} {rate} B/s")
                })
                .collect();
            let total = snap.totals();
            // Recovery counts are per-process views of one shared fact;
            // the max (the master's, once it reports) is authoritative.
            let recoveries: u64 = snap.workers.iter().map(|w| w.recoveries).max().unwrap_or(0);
            let recovery = if recoveries > 0 || total.peer_down_events > 0 {
                format!(" | recoveries {recoveries} | peer-downs {}", total.peer_down_events)
            } else {
                String::new()
            };
            eprintln!(
                "[status +{:.1}s] {}/{} reporting | remaining {} | idle compers {} | steals in flight {}{recovery} | {}",
                snap.elapsed.as_secs_f64(),
                telemetry.reported(),
                telemetry.num_workers(),
                total.remaining,
                total.idle_compers,
                total.steal_inflight,
                rates.join(", "),
            );
            prev = Some((now, bytes));
        }
    });
}

/// Answers one scrape: drains the request (any `GET` gets the metrics)
/// and writes the current cluster snapshot as Prometheus text.
fn serve_scrape(
    stream: &mut std::net::TcpStream,
    telemetry: &ClusterTelemetry,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let _ = std::io::Read::read(stream, &mut buf);
    let body = telemetry.cluster_snapshot().prometheus_text();
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// The master's scrape endpoint: binds a tiny hand-rolled HTTP
/// responder (one short-lived connection per scrape, no keep-alive, no
/// dependencies) exposing the live cluster snapshot for Prometheus &
/// friends.
fn spawn_telemetry_endpoint(addr: &str, telemetry: Arc<ClusterTelemetry>) {
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("telemetry endpoint: bind {addr}: {e}");
            return;
        }
    };
    eprintln!("telemetry endpoint listening on http://{addr}/metrics");
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let _ = serve_scrape(&mut stream, &telemetry);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gthinker-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn gen_stats_convert_round_trip() {
        let el = tmp("g1.el");
        let out =
            run(args(&["gen", "ba", "-n", "500", "-m", "3", "--seed", "7", "-o", &el])).unwrap();
        assert!(out.contains("500 vertices"), "{out}");
        let stats = run(args(&["stats", &el])).unwrap();
        assert!(stats.contains("vertices      500"), "{stats}");
        let bin = tmp("g1.bin");
        run(args(&["convert", &el, &bin])).unwrap();
        let stats2 = run(args(&["stats", &bin])).unwrap();
        assert_eq!(stats, stats2);
    }

    #[test]
    fn mining_commands_agree_with_library() {
        let el = tmp("g2.el");
        run(args(&["gen", "gnp", "-n", "60", "-p", "0.2", "--seed", "3", "-o", &el])).unwrap();
        let g = load_graph(&el).unwrap();
        let expected = gthinker_apps::serial::triangle::count_triangles(&g);
        let out = run(args(&["tc", &el, "--compers", "2"])).unwrap();
        assert!(out.contains(&format!("triangles: {expected}")), "{out}");
        let bundled = run(args(&["tc", &el, "--compers", "2", "--bundle", "8"])).unwrap();
        assert!(bundled.contains(&format!("triangles: {expected}")), "{bundled}");
        let mcf = run(args(&["mcf", &el, "--compers", "2"])).unwrap();
        assert!(mcf.contains("maximum clique:"), "{mcf}");
        let mc = run(args(&["mc", &el])).unwrap();
        assert!(mc.contains("maximal cliques:"), "{mc}");
        let qc = run(args(&["qc", &el, "--gamma", "0.6", "--min", "3", "--max", "4"])).unwrap();
        assert!(qc.contains("quasi-cliques"), "{qc}");
        let kp = run(args(&["kp", &el, "--k", "2", "--min", "3", "--max", "4"])).unwrap();
        assert!(kp.contains("2-plexes"), "{kp}");
    }

    #[test]
    fn tc_list_mode_writes_records() {
        let el = tmp("g6.el");
        run(args(&["gen", "gnp", "-n", "40", "-p", "0.25", "--seed", "8", "-o", &el])).unwrap();
        let dir = tmp("g6-out");
        let out = run(args(&["tc", &el, "--list", &dir])).unwrap();
        assert!(out.contains("records written"), "{out}");
        let records = gthinker_core::output::read_all_records(std::path::Path::new(&dir)).unwrap();
        let g = load_graph(&el).unwrap();
        let expected = gthinker_apps::serial::triangle::count_triangles(&g);
        assert_eq!(records.len() as u64, expected);
    }

    #[test]
    fn gm_requires_labels_and_works_with_them() {
        let el = tmp("g3.adj");
        run(args(&["gen", "gnp", "-n", "40", "-p", "0.2", "--seed", "5", "-o", &el])).unwrap();
        assert!(run(args(&["gm", &el, "--pattern", "triangle:0,0,0"])).is_err());
        let labeled = tmp("g3l.adj");
        run(args(&[
            "gen", "gnp", "-n", "40", "-p", "0.2", "--seed", "5", "--labels", "2", "-o", &labeled,
        ]))
        .unwrap();
        let out = run(args(&["gm", &labeled, "--pattern", "triangle:0,1,1"])).unwrap();
        assert!(out.contains("embeddings"), "{out}");
    }

    #[test]
    fn order_reduces_forward_degree() {
        let el = tmp("g4.el");
        run(args(&["gen", "ba", "-n", "2000", "-m", "4", "--seed", "2", "-o", &el])).unwrap();
        let ordered = tmp("g4o.el");
        let out = run(args(&["order", &el, &ordered])).unwrap();
        assert!(out.contains("degeneracy"), "{out}");
        let g = load_graph(&el).unwrap();
        let r = load_graph(&ordered).unwrap();
        use gthinker_graph::order::max_forward_degree;
        assert!(max_forward_degree(&r) < max_forward_degree(&g));
        assert_eq!(g.num_edges(), r.num_edges());
    }

    #[test]
    fn metrics_flags_export_files() {
        let el = tmp("g7.el");
        run(args(&["gen", "gnp", "-n", "50", "-p", "0.2", "--seed", "4", "-o", &el])).unwrap();
        let json = tmp("g7-metrics.json");
        let trace = tmp("g7-trace.json");
        let out = run(args(&[
            "mcf",
            &el,
            "--compers",
            "2",
            "--metrics-json",
            &json,
            "--trace-out",
            &trace,
        ]))
        .unwrap();
        assert!(out.contains("metrics JSON written"), "{out}");
        assert!(out.contains("trace written"), "{out}");
        assert!(out.contains("task latency tail"), "{out}");
        let j = std::fs::read_to_string(&json).unwrap();
        for key in ["\"workers\"", "\"compers\"", "\"p50_ns\"", "\"p99_ns\"", "\"cache\""] {
            assert!(j.contains(key), "metrics JSON missing {key}: {j}");
        }
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.trim_start().starts_with('['), "not a JSON array: {t}");
        assert!(t.contains("\"ph\""), "no trace events/metadata: {t}");
        // --tail alone prints the report without writing files.
        let tail = run(args(&["tc", &el, "--compers", "2", "--tail"])).unwrap();
        assert!(tail.contains("task latency tail"), "{tail}");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(run(vec![]).is_err());
        assert!(run(args(&["bogus"])).unwrap_err().0.contains("unknown command"));
        assert!(run(args(&["gen", "ba"])).unwrap_err().0.contains("-o FILE"));
        assert!(run(args(&["stats", "/no/such/file.el"])).is_err());
        assert!(parse_pattern("wheel:1,2,3").is_err());
        assert!(parse_pattern("star:1").is_err(), "star needs a leaf");
        assert!(parse_pattern("triangle:a,b,c").is_err());
        assert!(parse_pattern("triangle:1,2").is_err());
    }

    #[test]
    fn steal_and_budget_flags_validate() {
        let e = run(args(&["tc", "g.el", "--steal", "sideways"])).unwrap_err();
        assert!(e.0.contains("--steal"), "{e}");
        assert!(e.0.contains("on or off"), "{e}");
        let e = run(args(&["mcf", "g.el", "--steal"])).unwrap_err();
        assert!(e.0.contains("requires a value"), "{e}");
        let e = run(args(&["mc", "g.el", "--compute-budget", "0"])).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(args(&["tc", "g.el", "--compute-budget", "many"])).unwrap_err();
        assert!(e.0.contains("bad value for --compute-budget"), "{e}");

        let mut a =
            Args::parse("tc", args(&["--steal", "off", "--compute-budget", "3", "--workers", "2"]))
                .unwrap();
        let cfg = Place::read(&mut a, None).unwrap().cfg;
        assert_eq!(a.finish([]).unwrap(), [""; 0], "all flags consumed");
        assert!(!cfg.work_stealing);
        assert_eq!(cfg.compute_budget, Some(3));
        assert_eq!(cfg.num_workers, 2);
        // Defaults: stealing on, no budget.
        let cfg = Place::read(&mut Args::parse("tc", vec![]).unwrap(), None).unwrap().cfg;
        assert!(cfg.work_stealing);
        assert_eq!(cfg.compute_budget, None);
    }

    #[test]
    fn steal_and_budget_flags_do_not_change_results() {
        let el = tmp("g8.el");
        run(args(&["gen", "gnp", "-n", "60", "-p", "0.2", "--seed", "9", "-o", &el])).unwrap();
        let g = load_graph(&el).unwrap();
        let expected = gthinker_apps::serial::triangle::count_triangles(&g);
        for extra in [&["--steal", "off"][..], &["--compute-budget", "2"][..]] {
            let mut a = args(&["tc", &el, "--workers", "2", "--compers", "2"]);
            a.extend(extra.iter().map(|s| s.to_string()));
            let out = run(a).unwrap();
            assert!(out.contains(&format!("triangles: {expected}")), "{extra:?}: {out}");
        }
    }

    #[test]
    fn arguments_after_file_are_rejected_not_ignored() {
        // A mistyped flag used to run the job with the default instead.
        let e = run(args(&["mc", "g.bin", "--comper", "8"])).unwrap_err();
        assert_eq!(e.0, "mc: unknown option --comper");
        let e = run(args(&["tc", "--bundel", "4", "g.bin"])).unwrap_err();
        assert_eq!(e.0, "tc: unknown option --bundel");
        let e = run(args(&["kp", "g.bin", "h.bin", "--k", "2"])).unwrap_err();
        assert_eq!(e.0, "kp: unexpected argument h.bin");
        assert_eq!(run(args(&["mcf", "--tau", "9"])).unwrap_err().0, "mcf: missing FILE");
        let hosts = ["--hosts", "127.0.0.1:0,127.0.0.1:0"];
        let e = run(args(&["master", hosts[0], hosts[1], "tc", "g.el", "--comper", "8"]));
        assert_eq!(e.unwrap_err().0, "master tc: unknown option --comper");
        let e = run(args(&["worker", hosts[0], hosts[1], "--me", "1", "mc", "g.el", "h.el"]));
        assert_eq!(e.unwrap_err().0, "worker mc: unexpected argument h.el");
        // Known flags on either side of FILE still reach the job: the
        // failure is the missing file, not the arguments.
        for cmd in [
            vec!["mc", "/no/such.bin", "--compers", "8", "--steal", "off"],
            vec!["mcf", "--tau", "9", "--compers", "2", "/no/such.bin"],
            vec!["master", hosts[0], hosts[1], "tc", "/no/such.bin", "--compers", "2", "--tail"],
        ] {
            let e = run(args(&cmd)).unwrap_err().0;
            assert!(e.contains("open /no/such.bin"), "{cmd:?}: {e}");
        }
    }

    #[test]
    fn nothing_on_a_command_line_is_silently_ignored() {
        // Each case: a command line, `=>`, the whole error it must get.
        for case in [
            // A mistyped option used to fall back to the default seed.
            "gen ba --sead 7 -o x.bin => gen: unknown option --sead",
            "gen ba gnp -o x.bin => gen: unexpected argument gnp",
            "stats a.bin b.bin => stats: unexpected argument b.bin",
            "convert a.bin b.el c.el => convert: unexpected argument c.el",
            "order a.bin b.bin --order => order: unknown option --order",
            "order a.bin => order: missing OUT",
            "graph build a.el b.gtc c => graph build: unexpected argument c",
            "graph stats a.bin --bogus => graph stats: unknown option --bogus",
            "supervise --bogus worker => supervise: unknown option --bogus",
            "supervise now worker => supervise: unexpected argument now",
            // An option of another command is as unknown as a typo.
            "tc g.bin --tau 9 => tc: unknown option --tau",
            "mc g.bin --list out => mc: unknown option --list",
            "tc g.bin --compers 2 --compers 3 => --compers given more than once",
            // Two modes of one miner that used to resolve silently to the first.
            "tc g.bin --list out --bundle 4 => \
             tc: --list and --bundle do not combine; enumeration spawns one task per vertex",
            // The size of a cluster is its host list.
            "master --hosts 127.0.0.1:1,127.0.0.1:2 --workers 2 tc g.bin => \
             master: the size of the cluster comes from --hosts; drop --workers",
            // Each role's own options, given to the other.
            "worker --hosts 127.0.0.1:1,127.0.0.1:2 --me 1 --status tc g.bin => \
             worker: --status is the master's; a worker has no cluster view",
            "master --hosts 127.0.0.1:1,127.0.0.1:2 --die-after-ms 5 tc g.bin => \
             master: --die-after-ms targets a worker; the master hosts the failure detector",
            "master --hosts 127.0.0.1:1,127.0.0.1:2 pagerank g.bin => \
             master pagerank: unknown miner (want mcf|tc|mc|qc|kp|gm)",
        ] {
            let (cmd, want) = case.split_once(" => ").unwrap();
            let cmd: Vec<&str> = cmd.split(' ').collect();
            assert_eq!(run(args(&cmd)).unwrap_err().0, want, "{case}");
        }
    }

    #[test]
    fn options_go_anywhere_after_the_command() {
        let el = tmp("g14.el");
        run(args(&["gen", "-o", &el, "--seed", "3", "gnp", "-n", "60", "-p", "0.2"])).unwrap();
        assert_eq!(load_graph(&el).unwrap().num_vertices(), 60);
        // Cluster options before or after the miner, miner options before
        // or after FILE: all reach the job, which fails on the file.
        let (h, hosts) = ("--hosts", "127.0.0.1:0,127.0.0.1:0");
        for cmd in [
            vec!["master", h, hosts, "--connect-timeout", "5", "mcf", "--tau", "9", "/no/g.bin"],
            vec!["master", "mcf", "/no/g.bin", "--tau", "9", h, hosts, "--status"],
        ] {
            let e = run(args(&cmd)).unwrap_err().0;
            assert!(e.contains("open /no/g.bin"), "{cmd:?}: {e}");
        }
    }

    #[test]
    fn report_interval_flag_validates() {
        for bad in ["0", "-1", "nan", "soon"] {
            let e = run(args(&["tc", "g.el", "--report-interval", bad])).unwrap_err();
            assert!(e.0.contains("--report-interval"), "{bad}: {e}");
        }
        let mut a = Args::parse("tc", args(&["--report-interval", "0.5"])).unwrap();
        let cfg = Place::read(&mut a, None).unwrap().cfg;
        assert_eq!(a.finish([]).unwrap(), [""; 0], "flag consumed");
        assert_eq!(cfg.report_interval, Some(Duration::from_millis(500)));
        // Default: final-only reports.
        let cfg = Place::read(&mut Args::parse("tc", vec![]).unwrap(), None).unwrap().cfg;
        assert_eq!(cfg.report_interval, None);
    }

    #[test]
    fn removed_data_plane_flag_is_an_unknown_option() {
        // There is one TCP data plane; the flag that used to pick one
        // is an unknown option like any other. (Spelled in two halves
        // so a grep for the deleted flag finds nothing in the tree.)
        let flag = ["--net", "backend"].join("-");
        let e = run(args(&[
            "master",
            "--hosts",
            "127.0.0.1:0,127.0.0.1:0",
            &flag,
            "evented",
            "tc",
            "g.el",
        ]))
        .unwrap_err();
        assert!(e.0.contains(&format!("unknown option {flag}")), "{e}");
    }

    #[test]
    fn recovery_flags_validate() {
        // --rejoin without a generation is meaningless.
        let e = run(args(&[
            "worker",
            "--hosts",
            "127.0.0.1:19001,127.0.0.1:19002",
            "--me",
            "1",
            "--rejoin",
            "tc",
            "g.el",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--generation"), "{e}");
        // --generation without the recovery path has nothing to rejoin.
        let e = run(args(&[
            "worker",
            "--hosts",
            "127.0.0.1:19001,127.0.0.1:19002",
            "--me",
            "1",
            "--generation",
            "2",
            "tc",
            "g.el",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--checkpoint-dir"), "{e}");
        // The master hosts the failure detector; it cannot be the chaos victim.
        let e = run(args(&[
            "master",
            "--hosts",
            "127.0.0.1:19001,127.0.0.1:19002",
            "--die-after-msgs",
            "5",
            "tc",
            "g.el",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--die-after"), "{e}");
        for bad in ["0", "-2", "nan"] {
            let e = run(args(&[
                "master",
                "--hosts",
                "127.0.0.1:19001,127.0.0.1:19002",
                "--checkpoint-dir",
                "/tmp/x",
                "--checkpoint-interval",
                bad,
                "tc",
                "g.el",
            ]))
            .unwrap_err();
            assert!(e.0.contains("--checkpoint-interval"), "{bad}: {e}");
        }
    }

    #[test]
    fn supervise_respawn_args_strip_crash_flags() {
        let a = args(&[
            "worker",
            "--hosts",
            "127.0.0.1:19001,127.0.0.1:19002",
            "--me",
            "1",
            "--checkpoint-dir",
            "/tmp/ck",
            "--die-after-msgs",
            "40",
            "--die-after-ms",
            "200",
            "tc",
            "g.el",
        ]);
        let r = respawn_args(&a, 1);
        assert!(!r.iter().any(|x| x.starts_with("--die-after")), "{r:?}");
        assert!(!r.contains(&"40".to_string()) && !r.contains(&"200".to_string()), "{r:?}");
        assert!(r.contains(&"--rejoin".to_string()));
        let gen_pos = r.iter().position(|x| x == "--generation").unwrap();
        assert_eq!(r[gen_pos + 1], "1");
        // A second respawn replaces the old generation instead of stacking.
        let r2 = respawn_args(&r, 2);
        assert_eq!(r2.iter().filter(|x| *x == "--generation").count(), 1);
        assert_eq!(r2.iter().filter(|x| *x == "--rejoin").count(), 1);
        let gen_pos = r2.iter().position(|x| x == "--generation").unwrap();
        assert_eq!(r2[gen_pos + 1], "2");
        // The job-defining args survive untouched.
        for keep in [
            "worker",
            "--hosts",
            "127.0.0.1:19001,127.0.0.1:19002",
            "--me",
            "1",
            "--checkpoint-dir",
            "tc",
            "g.el",
        ] {
            assert!(r2.contains(&keep.to_string()), "lost {keep}: {r2:?}");
        }
        // supervise rejects anything that is not a worker invocation.
        assert!(run(args(&["supervise", "master", "--hosts", "a:1"])).is_err());
        assert!(run(args(&["supervise"])).is_err());
    }

    #[test]
    fn pattern_parsing() {
        let p = parse_pattern("triangle:0,1,2").unwrap();
        assert_eq!(p.num_vertices(), 3);
        let p = parse_pattern("path:2,0,2").unwrap();
        assert_eq!(p.anchor_radius(), 2);
    }

    #[test]
    fn dataset_standins_generate() {
        let el = tmp("g5.bin");
        let out = run(args(&["gen", "youtube-s", "--scale", "0.05", "-o", &el])).unwrap();
        assert!(out.contains("vertices"), "{out}");
    }

    #[test]
    fn stream_gen_matches_in_memory_gen() {
        for (ext, kind) in [("el", "ba"), ("bel", "gnp")] {
            let ram = tmp(&format!("g9-{kind}.{ext}"));
            let streamed = tmp(&format!("g9s-{kind}.{ext}"));
            let base = ["gen", kind, "-n", "300", "-m", "3", "-p", "0.05", "--seed", "11", "-o"];
            let mut a = args(&base);
            a.push(ram.clone());
            run(a).unwrap();
            let mut a = args(&base);
            a.push(streamed.clone());
            a.push("--stream".into());
            let out = run(a).unwrap();
            assert!(out.contains("streamed"), "{out}");
            let g = load_graph(&ram).unwrap();
            let s = load_graph(&streamed).unwrap();
            assert_eq!(g.num_vertices(), s.num_vertices(), "{kind}");
            assert_eq!(g.num_edges(), s.num_edges(), "{kind}");
            for v in g.vertices() {
                assert_eq!(g.neighbors(v), s.neighbors(v), "{kind} vertex {v:?}");
            }
        }
        let e = run(args(&[
            "gen", "gnp", "-n", "10", "-p", "0.5", "--labels", "2", "--stream", "-o", "x.el",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--labels"), "{e}");
    }

    #[test]
    fn graph_build_and_stats_round_trip() {
        let el = tmp("g10.el");
        run(args(&["gen", "ba", "-n", "400", "-m", "4", "--seed", "13", "-o", &el])).unwrap();
        let gtc = tmp("g10.gtc");
        let out = run(args(&["graph", "build", &el, &gtc])).unwrap();
        assert!(out.contains("compressed 400 vertices"), "{out}");
        assert!(out.contains("smaller than plain binary"), "{out}");
        // The mapped file decodes back to the identical graph.
        let g = load_graph(&el).unwrap();
        let c = load_graph(&gtc).unwrap();
        assert_eq!(g.num_edges(), c.num_edges());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), c.neighbors(v));
        }
        // stats reads the compressed file without decoding adjacency.
        let stats = run(args(&["graph", "stats", &gtc])).unwrap();
        assert!(stats.contains("vertices            400"), "{stats}");
        assert!(stats.contains("degree p50/p95/max"), "{stats}");
        assert!(stats.contains(&format!("format version {FORMAT_VERSION}")), "{stats}");
        // ... and estimates compressed size for plain files.
        let stats2 = run(args(&["graph", "stats", &el])).unwrap();
        assert!(stats2.contains("if built with graph build"), "{stats2}");
        assert!(stats2.contains(&format!("format version {FORMAT_VERSION}")), "{stats2}");
        // --order relabels before encoding.
        let ordered = tmp("g10o.gtc");
        let out = run(args(&["graph", "build", &el, &ordered, "--order"])).unwrap();
        assert!(out.contains("degeneracy"), "{out}");
        assert_eq!(load_graph(&ordered).unwrap().num_edges(), g.num_edges());
    }

    #[test]
    fn graph_build_preserves_labels() {
        let adj = tmp("g11.adj");
        run(args(&[
            "gen", "gnp", "-n", "60", "-p", "0.15", "--seed", "17", "--labels", "3", "-o", &adj,
        ]))
        .unwrap();
        let gtc = tmp("g11.gtc");
        run(args(&["graph", "build", &adj, &gtc])).unwrap();
        let g = load_graph(&adj).unwrap();
        let c = load_graph(&gtc).unwrap();
        assert_eq!(g.labels().unwrap(), c.labels().unwrap());
    }

    #[test]
    fn miners_on_mapped_graph_match_ram_results() {
        let el = tmp("g12.el");
        run(args(&["gen", "gnp", "-n", "80", "-p", "0.15", "--seed", "19", "-o", &el])).unwrap();
        let gtc = tmp("g12.gtc");
        run(args(&["graph", "build", &el, &gtc])).unwrap();
        let g = load_graph(&el).unwrap();
        let expected = gthinker_apps::serial::triangle::count_triangles(&g);
        let out = run(args(&["tc", &gtc, "--workers", "2", "--compers", "2"])).unwrap();
        assert!(out.contains(&format!("triangles: {expected}")), "{out}");
        // The max-clique SIZE is deterministic; the witness is whichever
        // optimum a comper reported first, so compare sizes only.
        let ram = run(args(&["mcf", &el, "--compers", "2"])).unwrap();
        let mapped = run(args(&["mcf", &gtc, "--compers", "2"])).unwrap();
        let size = |s: &str| s.lines().next().unwrap().split(" in ").next().unwrap().to_string();
        assert_eq!(size(&ram), size(&mapped), "{ram}\n{mapped}");
    }

    #[test]
    fn gtc_file_of_an_older_format_asks_for_a_rebuild() {
        let el = tmp("g13.el");
        run(args(&["gen", "gnp", "-n", "40", "-p", "0.2", "--seed", "23", "-o", &el])).unwrap();
        let gtc = tmp("g13.gtc");
        run(args(&["graph", "build", &el, &gtc])).unwrap();
        let mut bytes = std::fs::read(&gtc).unwrap();
        bytes[..8].copy_from_slice(b"GTCGRF01");
        std::fs::write(&gtc, &bytes).unwrap();
        for cmd in [vec!["graph", "stats", &gtc], vec!["tc", &gtc], vec!["stats", &gtc]] {
            let e = run(args(&cmd)).unwrap_err().0;
            assert!(e.contains("older gthinker"), "{cmd:?}: {e}");
            assert!(e.contains("gthinker graph build IN OUT.gtc"), "{cmd:?}: {e}");
        }
        // Rebuilding over it is the whole migration.
        run(args(&["graph", "build", &el, &gtc])).unwrap();
        run(args(&["graph", "stats", &gtc])).unwrap();
    }

    #[test]
    fn graph_subcommand_errors() {
        assert!(run(args(&["graph"])).unwrap_err().0.contains("build|stats"));
        assert!(run(args(&["graph", "shrink"])).unwrap_err().0.contains("unknown subcommand"));
        assert!(run(args(&["graph", "build", "only-one-arg"])).is_err());
        assert!(run(args(&["graph", "stats"])).unwrap_err().0.contains("missing FILE"));
        assert!(run(args(&["graph", "stats", "/no/such.gtc"])).is_err());
    }
}
