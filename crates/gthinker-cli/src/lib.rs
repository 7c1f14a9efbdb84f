//! Implementation of the `gthinker` command-line tool.
//!
//! Subcommands:
//!
//! ```text
//! gthinker gen   <ba|gnp|dataset> [opts] -o FILE    generate a graph
//! gthinker stats <FILE>                             print statistics
//! gthinker convert <IN> <OUT>                       convert formats
//! gthinker order <IN> <OUT>                         degeneracy relabel
//! gthinker graph build <IN> <OUT.gtc> [--order]     compressed build
//! gthinker graph stats <FILE>                       storage statistics
//! gthinker mcf   <FILE> [--workers N] [--compers N] [--tau N]
//! gthinker tc    <FILE> [--workers N] [--compers N] [--bundle N]
//! gthinker mc    <FILE> [--workers N] [--compers N]
//! gthinker qc    <FILE> --gamma G [--min N] [--max N] [...]
//! gthinker gm    <FILE> --pattern triangle:A,B,C|path:A,B,C [...]
//! ```
//!
//! File formats are chosen by extension: `.el` / `.txt` edge list,
//! `.adj` adjacency lines, `.bin` the binary format, `.bel` the binary
//! edge stream, `.gtc` the compressed memory-mapped format. Miners
//! given a `.gtc` file run directly off the mapping with lazy
//! per-vertex decode instead of loading the graph into RAM.

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

/// Parsed global options shared by the mining subcommands.
#[derive(Debug, Clone)]
pub struct MineOpts {
    /// Simulated machines.
    pub workers: usize,
    /// Compers per machine.
    pub compers: usize,
    /// `--steal {on,off}`: cluster-wide work stealing (default on).
    pub steal: bool,
    /// `--compute-budget N`: yield long tasks after N extension steps.
    pub compute_budget: Option<u64>,
    /// `--report-interval S`: push periodic metrics snapshots to the
    /// master every S seconds (cluster live views; default final-only).
    pub report_interval: Option<Duration>,
    /// Observability exports requested via flags.
    pub metrics: MetricsOpts,
}

impl Default for MineOpts {
    fn default() -> Self {
        MineOpts {
            workers: 1,
            compers: 4,
            steal: true,
            compute_budget: None,
            report_interval: None,
            metrics: MetricsOpts::default(),
        }
    }
}

/// Observability flags shared by the mining subcommands.
#[derive(Debug, Clone, Default)]
pub struct MetricsOpts {
    /// `--metrics-json PATH`: write the full metrics snapshot as JSON.
    pub metrics_json: Option<String>,
    /// `--trace-out PATH`: write the scheduler/cache event timeline as
    /// Chrome `trace_event` JSON (chrome://tracing / Perfetto).
    pub trace_out: Option<String>,
    /// `--tail`: print the end-of-run tail-latency report even without
    /// the file exports.
    pub tail: bool,
}

impl MetricsOpts {
    fn wanted(&self) -> bool {
        self.tail || self.metrics_json.is_some() || self.trace_out.is_some()
    }
}

/// Event-ring capacity per worker when `--trace-out` is requested.
const TRACE_CAPACITY: usize = 65_536;

/// Reads a flag's value from an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return err(format!("{flag} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(value));
    }
    Ok(None)
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, CliError> {
    match take_flag(args, flag)? {
        None => Ok(None),
        Some(s) => s.parse().map(Some).map_err(|_| CliError(format!("bad value for {flag}: {s}"))),
    }
}

/// Removes a boolean switch from the argument list, reporting whether
/// it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// The graph FILE of a mining command: whatever is left of `args` once
/// every flag the command knows has been taken out must be exactly that
/// one path, so a mistyped flag is an error instead of a silent default.
fn file_arg<'a>(args: &'a [String], what: &str) -> Result<&'a str, CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return err(format!("{what}: unknown option {flag}"));
    }
    match args {
        [] => err(format!("{what}: missing FILE")),
        [path] => Ok(path),
        [_, extra, ..] => err(format!("{what}: unexpected argument {extra}")),
    }
}

fn mine_opts(args: &mut Vec<String>) -> Result<MineOpts, CliError> {
    let mut o = MineOpts::default();
    if let Some(w) = take_parsed(args, "--workers")? {
        o.workers = w;
    }
    if let Some(c) = take_parsed(args, "--compers")? {
        o.compers = c;
    }
    if let Some(s) = take_flag(args, "--steal")? {
        o.steal = match s.as_str() {
            "on" => true,
            "off" => false,
            other => return err(format!("bad value for --steal: {other} (want on or off)")),
        };
    }
    if let Some(b) = take_parsed::<u64>(args, "--compute-budget")? {
        if b == 0 {
            return err("--compute-budget must be at least 1");
        }
        o.compute_budget = Some(b);
    }
    if let Some(s) = take_parsed::<f64>(args, "--report-interval")? {
        if !s.is_finite() || s <= 0.0 {
            return err("--report-interval must be a positive number of seconds");
        }
        o.report_interval = Some(Duration::from_secs_f64(s));
    }
    o.metrics.metrics_json = take_flag(args, "--metrics-json")?;
    o.metrics.trace_out = take_flag(args, "--trace-out")?;
    o.metrics.tail = take_switch(args, "--tail");
    Ok(o)
}

fn job_config(o: &MineOpts) -> JobConfig {
    let mut cfg = if o.workers <= 1 {
        JobConfig::single_machine(o.compers)
    } else {
        JobConfig::cluster(o.workers, o.compers)
    };
    cfg.work_stealing = o.steal;
    cfg.compute_budget = o.compute_budget;
    cfg.report_interval = o.report_interval;
    if o.metrics.trace_out.is_some() {
        cfg.trace_capacity = TRACE_CAPACITY;
    }
    cfg
}

/// Performs the `--metrics-json` / `--trace-out` exports and renders
/// the tail-latency report; the returned text is appended to the
/// subcommand's normal output.
fn export_metrics(m: &MetricsOpts, snap: &MetricsSnapshot) -> Result<String, CliError> {
    let mut extra = String::new();
    if let Some(path) = &m.metrics_json {
        std::fs::write(path, snap.to_json()).map_err(|e| CliError(format!("write {path}: {e}")))?;
        extra.push_str(&format!("\nmetrics JSON written to {path}"));
    }
    if let Some(path) = &m.trace_out {
        let f = std::fs::File::create(path).map_err(|e| CliError(format!("create {path}: {e}")))?;
        snap.write_chrome_trace(std::io::BufWriter::new(f))
            .map_err(|e| CliError(format!("write {path}: {e}")))?;
        extra.push_str(&format!(
            "\ntrace written to {path} (load in chrome://tracing or ui.perfetto.dev)"
        ));
    }
    if m.wanted() {
        extra.push('\n');
        extra.push_str(snap.tail_report().trim_end());
    }
    Ok(extra)
}

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
        return err(USAGE);
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "gen" => cmd_gen(args),
        "stats" => cmd_stats(args),
        "convert" => cmd_convert(args),
        "order" => cmd_order(args),
        "graph" => cmd_graph(args),
        "mcf" => cmd_mcf(args),
        "tc" => cmd_tc(args),
        "mc" => cmd_mc(args),
        "qc" => cmd_qc(args),
        "kp" => cmd_kp(args),
        "gm" => cmd_gm(args),
        "master" => cmd_cluster(true, args),
        "worker" => cmd_cluster(false, args),
        "supervise" => cmd_supervise(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// Usage text.
pub const USAGE: &str = "usage: gthinker <command> [options]
  gen <ba|gnp|youtube-s|skitter-s|orkut-s|btc-s|friendster-s> [-n N] [-m M] [-p P] [--seed S] [--labels K] [--scale F] [--stream] -o FILE
  stats <FILE>
  convert <IN> <OUT>
  order <IN> <OUT>                    relabel into degeneracy order
  graph build <IN> <OUT.gtc> [--order]  build the compressed mmap format
                                      (edge-list inputs stream in two
                                      passes; --order applies a
                                      degeneracy relabel first)
  graph stats <FILE>                  storage stats: |V|, |E|, degree
                                      p50/p95/max, plain vs compressed
                                      on-disk bytes
  mcf <FILE> [--workers N] [--compers N] [--tau T]
  tc  <FILE> [--workers N] [--compers N] [--bundle D] [--list DIR]
  mc  <FILE> [--workers N] [--compers N]
  qc  <FILE> --gamma G [--min N] [--max N] [--workers N] [--compers N]
  kp  <FILE> --k K [--min N] [--max N] [--workers N] [--compers N]
  gm  <FILE> --pattern triangle:0,1,2|path:..|star:..|clique4:.. [--workers N] [--compers N]
  master --hosts H0,H1,.. <mcf|tc|mc|qc|kp|gm> <FILE> [miner opts]
  worker --hosts H0,H1,.. --me I <mcf|tc|mc|qc|kp|gm> <FILE> [miner opts]
  supervise [--respawn-limit N] worker ..   respawn a dead worker with a
                                            bumped --generation

a multi-process cluster job runs one OS process per host:port in
--hosts; every process gets the same graph file and miner options, the
master is worker 0 and prints the result, each worker prints its own
byte counters. --connect-timeout SECS (default 30) bounds the
rendezvous. the master also accepts live-telemetry flags:
  --status                  print a cluster progress line to stderr
                            every second (remaining tasks, idle
                            compers, steals in flight, bytes/sec)
  --telemetry-addr H:P      serve the live cluster snapshot at
                            http://H:P/ in Prometheus text exposition
                            format, scrapeable mid-run
the observability flags below work on cluster jobs too: on the master
they export the cluster-wide merged view (every worker's counters,
quantiles and trace spans on one clock-corrected timeline), on a worker
that process's own.

cluster processes also accept crash-recovery flags:
  --checkpoint-dir DIR      run the crash-surviving path: checkpoint
                            epochs under DIR (a directory every process
                            can reach), detect a dead peer via the TCP
                            mesh or heartbeat, abort survivors to the
                            last validated epoch and resume once the
                            replacement rejoins. give every process the
                            same DIR
  --checkpoint-interval S   seconds between checkpoint epochs (default 1)
  --max-recoveries N        recovery rounds tolerated before the job is
                            abandoned (default 8)
  --rejoin --generation G   (worker) identify as the respawned
                            replacement of a dead generation G-1 process;
                            supervise passes these automatically
  --die-after-msgs N        (worker, chaos) abort this process once its
                            own traffic reaches N messages
  --die-after-ms T          (worker, chaos) abort after T milliseconds

gen --stream writes the edges to -o FILE (text, or the .bel binary
edge stream) as they are generated, without building the graph in RAM —
use it with `graph build`, whose edge-list path also streams, to take a
10^8-edge synthetic graph to the compressed format at a flat memory
ceiling. miners and master/worker accept .gtc files directly and run
memory-mapped.

mining commands (standalone and under master/worker) also accept
scheduling knobs:
  --steal {on,off}      cluster-wide work stealing (default on)
  --compute-budget N    yield a long-running task back to the scheduler
                        after N extension steps so its remainder can be
                        split and stolen (default: run to completion)

and observability flags:
  --metrics-json PATH   write counters + latency quantiles as JSON
  --trace-out PATH      write the scheduler/cache event timeline as
                        Chrome trace_event JSON (chrome://tracing, Perfetto)
  --tail                print the per-comper tail-latency report
  --report-interval S   (cluster) push a metrics snapshot to the master
                        every S seconds; defaults to end-of-job only,
                        or 1s when --status/--telemetry-addr is given";

fn cmd_gen(mut args: Vec<String>) -> Result<String, CliError> {
    if args.is_empty() {
        return err("gen: missing generator kind");
    }
    let kind = args.remove(0);
    let out =
        take_flag(&mut args, "-o")?.ok_or_else(|| CliError("gen: -o FILE required".into()))?;
    let n: usize = take_parsed(&mut args, "-n")?.unwrap_or(10_000);
    let m: usize = take_parsed(&mut args, "-m")?.unwrap_or(5);
    let p: f64 = take_parsed(&mut args, "-p")?.unwrap_or(0.001);
    let seed: u64 = take_parsed(&mut args, "--seed")?.unwrap_or(1);
    let labels: u16 = take_parsed(&mut args, "--labels")?.unwrap_or(0);
    let scale: f64 = take_parsed(&mut args, "--scale")?.unwrap_or(1.0);
    if take_switch(&mut args, "--stream") {
        if labels > 0 {
            return err("gen: --stream does not support --labels");
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
            format!("gen --stream: unsupported kind {other} (want ba or gnp)"),
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

/// `gthinker graph <build|stats>`: the compressed storage toolchain.
fn cmd_graph(mut args: Vec<String>) -> Result<String, CliError> {
    if args.is_empty() {
        return err("graph: missing subcommand (build|stats)");
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "build" => cmd_graph_build(args),
        "stats" => cmd_graph_stats(args),
        other => err(format!("graph: unknown subcommand {other} (want build or stats)")),
    }
}

fn cmd_graph_build(mut args: Vec<String>) -> Result<String, CliError> {
    let order = take_switch(&mut args, "--order");
    let [input, output] = args.as_slice() else {
        return err("graph build: want IN OUT.gtc [--order]");
    };
    let in_path = Path::new(input);
    let out_path = Path::new(output);
    let by_ext = in_path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let edge_stream = matches!(by_ext, "el" | "txt" | "bel");
    let (stats, note) = if order {
        // A degeneracy relabel needs the whole graph; small-graph path.
        let g = load_graph(input)?;
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
        let g = load_graph(input)?;
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

fn cmd_graph_stats(args: Vec<String>) -> Result<String, CliError> {
    let path = args.first().ok_or_else(|| CliError("graph stats: missing FILE".into()))?;
    let p = Path::new(path);
    // Degree stats come straight from the degree sequence: on a .gtc
    // file each degree reads two varints, no adjacency is decoded.
    let (s, labeled, compressed_bytes) = if p.extension().is_some_and(|e| e == "gtc") {
        let c = CompressedGraph::open(p).map_err(|e| CliError(format!("open {path}: {e}")))?;
        let s = GraphStats::from_degrees(c.degrees());
        (s, c.is_labeled(), Some(c.file_bytes()))
    } else {
        let g = load_graph(path)?;
        (GraphStats::of(&g), g.is_labeled(), None)
    };
    let plain = plain_binary_bytes(s.num_vertices as u64, s.num_edges as u64, labeled);
    let compressed = match compressed_bytes {
        Some(b) => format!("{b} (this file, format version {FORMAT_VERSION})"),
        None => {
            // Estimate by encoding for real into a scratch file.
            let g = load_graph(path)?;
            let tmp =
                std::env::temp_dir().join(format!("gthinker-stats-{}.gtc", std::process::id()));
            let st = write_compressed(&g, &tmp)
                .map_err(|e| CliError(format!("graph stats: encode: {e}")))?;
            let _ = std::fs::remove_file(&tmp);
            format!(
                "{} (if built with graph build, format version {FORMAT_VERSION})",
                st.file_bytes
            )
        }
    };
    Ok(format!(
        "vertices            {}\nedges               {}\ndegree p50/p95/max  {}/{}/{}\n\
         labeled             {labeled}\nplain binary bytes  {plain}\ncompressed bytes    {compressed}",
        s.num_vertices, s.num_edges, s.degree_p50, s.degree_p95, s.max_degree,
    ))
}

fn cmd_stats(args: Vec<String>) -> Result<String, CliError> {
    let path = args.first().ok_or_else(|| CliError("stats: missing FILE".into()))?;
    let g = load_graph(path)?;
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

fn cmd_convert(args: Vec<String>) -> Result<String, CliError> {
    let [input, output] = args.as_slice() else {
        return err("convert: want IN OUT");
    };
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    Ok(format!("converted {input} -> {output}"))
}

fn cmd_order(args: Vec<String>) -> Result<String, CliError> {
    let [input, output] = args.as_slice() else {
        return err("order: want IN OUT");
    };
    let g = load_graph(input)?;
    let (relabeled, d) = degeneracy_relabel(&g);
    save_graph(&relabeled, output)?;
    Ok(format!("degeneracy {d}; wrote reordered graph to {output}"))
}

fn cmd_mcf(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let tau: usize = take_parsed(&mut args, "--tau")?.unwrap_or(40_000);
    let path = file_arg(&args, "mcf")?;
    let input = open_graph_input(path)?;
    let r = run_job(Arc::new(MaxCliqueApp::with_tau(tau)), input.source(), &job_config(&opts))
        .map_err(|e| CliError(format!("job failed: {e}")))?;
    let extra = export_metrics(&opts.metrics, &r.metrics)?;
    Ok(format!(
        "maximum clique: {} vertices in {:.2?}\nmembers: {:?}{extra}",
        r.global.len(),
        r.elapsed,
        r.global
    ))
}

fn cmd_tc(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let bundle: usize = take_parsed(&mut args, "--bundle")?.unwrap_or(0);
    let list_dir = take_flag(&mut args, "--list")?;
    let path = file_arg(&args, "tc")?;
    let input = open_graph_input(path)?;
    let mut cfg = job_config(&opts);
    if let Some(dir) = list_dir {
        // Enumeration mode: stream every triangle to part files.
        cfg.output_dir = Some(dir.clone().into());
        let r = run_job(Arc::new(TriangleListApp), input.source(), &cfg)
            .map_err(|e| CliError(format!("job failed: {e}")))?;
        let emitted = r.metrics.totals().output_records;
        let extra = export_metrics(&opts.metrics, &r.metrics)?;
        return Ok(format!(
            "triangles: {} in {:.2?}; {emitted} records written under {dir}{extra}",
            r.global, r.elapsed
        ));
    }
    let (count, elapsed, tasks, metrics) = if bundle > 0 {
        let r = run_job(Arc::new(BundledTriangleApp::new(bundle)), input.source(), &cfg)
            .map_err(|e| CliError(format!("job failed: {e}")))?;
        (r.global, r.elapsed, r.total_tasks(), r.metrics)
    } else {
        let r = run_job(Arc::new(TriangleApp), input.source(), &cfg)
            .map_err(|e| CliError(format!("job failed: {e}")))?;
        (r.global, r.elapsed, r.total_tasks(), r.metrics)
    };
    let extra = export_metrics(&opts.metrics, &metrics)?;
    Ok(format!("triangles: {count} in {elapsed:.2?} ({tasks} tasks){extra}"))
}

fn cmd_mc(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let path = file_arg(&args, "mc")?;
    let input = open_graph_input(path)?;
    let r = run_job(Arc::new(MaximalCliqueApp), input.source(), &job_config(&opts))
        .map_err(|e| CliError(format!("job failed: {e}")))?;
    let extra = export_metrics(&opts.metrics, &r.metrics)?;
    Ok(format!("maximal cliques: {} in {:.2?}{extra}", r.global, r.elapsed))
}

fn cmd_qc(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let gamma: f64 = take_parsed(&mut args, "--gamma")?
        .ok_or_else(|| CliError("qc: --gamma required".into()))?;
    let min: usize = take_parsed(&mut args, "--min")?.unwrap_or(3);
    let max: usize = take_parsed(&mut args, "--max")?.unwrap_or(5);
    let path = file_arg(&args, "qc")?;
    let input = open_graph_input(path)?;
    let r =
        run_job(Arc::new(QuasiCliqueApp::new(gamma, min, max)), input.source(), &job_config(&opts))
            .map_err(|e| CliError(format!("job failed: {e}")))?;
    let extra = export_metrics(&opts.metrics, &r.metrics)?;
    Ok(format!(
        "γ={gamma} quasi-cliques of size {min}..{max}: {} in {:.2?}{extra}",
        r.global, r.elapsed
    ))
}

fn cmd_kp(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let k: usize =
        take_parsed(&mut args, "--k")?.ok_or_else(|| CliError("kp: --k required".into()))?;
    let min: usize = take_parsed(&mut args, "--min")?.unwrap_or((2 * k).saturating_sub(1).max(2));
    let max: usize = take_parsed(&mut args, "--max")?.unwrap_or(min + 2);
    let path = file_arg(&args, "kp")?;
    let input = open_graph_input(path)?;
    let r = run_job(Arc::new(KPlexApp::new(k, min, max)), input.source(), &job_config(&opts))
        .map_err(|e| CliError(format!("job failed: {e}")))?;
    let extra = export_metrics(&opts.metrics, &r.metrics)?;
    Ok(format!(
        "connected {k}-plexes of size {min}..{max}: {} in {:.2?}{extra}",
        r.global, r.elapsed
    ))
}

fn cmd_gm(mut args: Vec<String>) -> Result<String, CliError> {
    let opts = mine_opts(&mut args)?;
    let spec = take_flag(&mut args, "--pattern")?
        .ok_or_else(|| CliError("gm: --pattern required".into()))?;
    let pattern = parse_pattern(&spec)?;
    let path = file_arg(&args, "gm")?;
    let input = open_graph_input(path)?;
    let labels = input
        .labels()
        .ok_or_else(|| CliError("gm: the data graph must be labeled (gen --labels K)".into()))?;
    let r =
        run_job(Arc::new(MatchingApp::new(pattern, labels)), input.source(), &job_config(&opts))
            .map_err(|e| CliError(format!("job failed: {e}")))?;
    let extra = export_metrics(&opts.metrics, &r.metrics)?;
    Ok(format!("embeddings of {spec}: {} in {:.2?}{extra}", r.global, r.elapsed))
}

/// The global result type `App` `A` produces.
type GlobalOf<A> = <<A as App>::Agg as Aggregator>::Global;

/// Where this process sits in the multi-process cluster, plus the
/// telemetry it was asked to surface.
struct ClusterSeat {
    manifest: ClusterManifest,
    me: WorkerId,
    /// This process's mesh listener, bound before the graph is loaded
    /// so a peer that finishes loading first finds it listening.
    listener: std::net::TcpListener,
    timeout: Duration,
    /// `--status`: print a cluster progress line to stderr every second
    /// (master only; workers have no cluster view).
    status: bool,
    /// `--telemetry-addr HOST:PORT`: serve the live cluster snapshot in
    /// Prometheus text exposition format (master only).
    telemetry_addr: Option<String>,
    /// Observability exports: cluster-wide on the master, this
    /// process's own on a worker.
    metrics: MetricsOpts,
    /// `--checkpoint-dir` was given: run the crash-surviving cluster
    /// path (periodic checkpoints, abort-to-checkpoint on peer death,
    /// rejoin rendezvous) with these options.
    recovery: Option<RecoveryOptions>,
}

/// `--status`: a detached thread that prints a cluster progress line to
/// stderr every second, built from whatever reports have arrived.
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

/// `--telemetry-addr`: binds a tiny hand-rolled HTTP responder (one
/// short-lived connection per scrape, no keep-alive, no dependencies)
/// exposing the live cluster snapshot for Prometheus & friends.
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

/// Runs this process's share of a cluster job and renders the outcome:
/// the master (worker 0) prints the job result via `render` plus its
/// own byte counters, every other worker prints just its counters.
/// Metrics exports work on both: the master exports the cluster-wide
/// merged snapshot, a worker its own.
fn run_cluster<A: App>(
    app: A,
    input: &GraphInput,
    cfg: &JobConfig,
    seat: ClusterSeat,
    render: impl FnOnce(&JobResult<GlobalOf<A>>) -> String,
) -> Result<String, CliError> {
    let status = seat.status;
    let addr = seat.telemetry_addr.clone();
    let on_telemetry = move |telemetry: Arc<ClusterTelemetry>| {
        if status {
            spawn_status_thread(Arc::clone(&telemetry));
        }
        if let Some(addr) = addr {
            spawn_telemetry_endpoint(&addr, telemetry);
        }
    };
    let mut job = Job::new(Arc::new(app), input.source(), cfg).on_telemetry(on_telemetry);
    if let Some(opts) = seat.recovery {
        job = job.recover(opts);
    }
    let role = job
        .run_process(&seat.manifest, seat.me, seat.listener, seat.timeout)
        .map_err(|e| CliError(format!("cluster job failed: {e}")))?;
    let recovery_line = |r: &RecoveryReport| match seat.recovery {
        Some(_) => format!(
            "\nrecovery: {} recoveries, {} checkpoints, failed workers {:?}",
            r.recoveries,
            r.checkpoints,
            r.failed_workers.iter().map(|w| w.index()).collect::<Vec<_>>()
        ),
        None => String::new(),
    };
    Ok(match role {
        ClusterRole::Master(r) => {
            let extra = export_metrics(&seat.metrics, &r.metrics)?;
            let w = &r.metrics.workers[0];
            format!(
                "{}\nworker 0 (master): sent {} bytes, received {} bytes{}{extra}",
                render(&r),
                w.net_bytes_sent,
                w.net_bytes_received,
                recovery_line(&r.recovery)
            )
        }
        ClusterRole::Worker(snap, recovery) => {
            let extra = export_metrics(&seat.metrics, &snap)?;
            let w = &snap.workers[0];
            format!(
                "worker {} done: sent {} bytes, received {} bytes{}{extra}",
                seat.me.index(),
                w.net_bytes_sent,
                w.net_bytes_received,
                recovery_line(&recovery)
            )
        }
    })
}

/// `gthinker master …` / `gthinker worker …`: one OS process of a
/// multi-process TCP cluster job. Every process must be launched with
/// the same `--hosts` list, graph file and miner options.
fn cmd_cluster(is_master: bool, mut args: Vec<String>) -> Result<String, CliError> {
    let role = if is_master { "master" } else { "worker" };
    let hosts = take_flag(&mut args, "--hosts")?
        .ok_or_else(|| CliError(format!("{role}: --hosts HOST:PORT,HOST:PORT,.. required")))?;
    let manifest = ClusterManifest::parse(&hosts)
        .map_err(|e| CliError(format!("{role}: bad --hosts: {e}")))?;
    let me = if is_master {
        if let Some(i) = take_parsed::<usize>(&mut args, "--me")? {
            if i != 0 {
                return err("master: the master is always worker 0; drop --me");
            }
        }
        0
    } else {
        let i: usize = take_parsed(&mut args, "--me")?
            .ok_or_else(|| CliError("worker: --me INDEX required".into()))?;
        if i == 0 {
            return err("worker: index 0 is the master; run `gthinker master` there");
        }
        i
    };
    if me >= manifest.num_workers() {
        return err(format!("{role}: --me {me} out of range for {} hosts", manifest.num_workers()));
    }
    let timeout =
        Duration::from_secs(take_parsed(&mut args, "--connect-timeout")?.unwrap_or(30u64));
    let status = take_switch(&mut args, "--status");
    let telemetry_addr = take_flag(&mut args, "--telemetry-addr")?;

    // Crash recovery: --checkpoint-dir switches the process onto the
    // recovering cluster path; the rest tune it.
    let checkpoint_dir = take_flag(&mut args, "--checkpoint-dir")?;
    let checkpoint_interval: Option<f64> = take_parsed(&mut args, "--checkpoint-interval")?;
    if let Some(s) = checkpoint_interval {
        if !s.is_finite() || s <= 0.0 {
            return err("--checkpoint-interval must be a positive number of seconds");
        }
    }
    let max_recoveries: u32 = take_parsed(&mut args, "--max-recoveries")?.unwrap_or(8);
    let generation: u32 = take_parsed(&mut args, "--generation")?.unwrap_or(0);
    let rejoin = take_switch(&mut args, "--rejoin");
    if rejoin && generation == 0 {
        return err(format!("{role}: --rejoin requires --generation N with N >= 1"));
    }
    if generation > 0 && checkpoint_dir.is_none() {
        return err(format!("{role}: --generation only makes sense with --checkpoint-dir"));
    }
    // Deterministic process chaos: self-abort once this process's own
    // traffic crosses a mark, standing in for an external kill.
    let die_after_msgs: Option<u64> = take_parsed(&mut args, "--die-after-msgs")?;
    let die_after_ms: Option<u64> = take_parsed(&mut args, "--die-after-ms")?;
    if (die_after_msgs.is_some() || die_after_ms.is_some()) && is_master {
        return err(
            "master: --die-after-* targets a worker; the master hosts the failure detector",
        );
    }

    let mut opts = mine_opts(&mut args)?;
    // The live views need periodic reports; default them on when a view
    // was requested without an explicit interval.
    if (status || telemetry_addr.is_some()) && opts.report_interval.is_none() {
        opts.report_interval = Some(Duration::from_secs(1));
    }
    // The cluster size comes from --hosts; --workers is meaningless here.
    opts.workers = manifest.num_workers();
    let mut cfg = job_config(&opts);
    if let Some(dir) = &checkpoint_dir {
        cfg.checkpoint_dir = Some(dir.into());
        cfg.checkpoint_interval = Some(Duration::from_secs_f64(checkpoint_interval.unwrap_or(1.0)));
    }
    if die_after_msgs.is_some() || die_after_ms.is_some() {
        cfg.fault.crash = Some(CrashSchedule {
            worker: WorkerId(me as u16),
            after_messages: die_after_msgs,
            after: die_after_ms.map(Duration::from_millis),
        });
    }
    let me = WorkerId(me as u16);
    let listener = std::net::TcpListener::bind(manifest.addr(me))
        .map_err(|e| CliError(format!("{role}: cannot bind {}: {e}", manifest.addr(me))))?;
    let seat = ClusterSeat {
        manifest,
        me,
        listener,
        timeout,
        status,
        telemetry_addr,
        metrics: opts.metrics.clone(),
        recovery: checkpoint_dir
            .is_some()
            .then_some(RecoveryOptions { max_recoveries, generation }),
    };

    if args.is_empty() {
        return err(format!("{role}: missing miner subcommand (mcf|tc|mc|qc|kp|gm)"));
    }
    let miner = args.remove(0);
    match miner.as_str() {
        "mcf" => {
            let tau: usize = take_parsed(&mut args, "--tau")?.unwrap_or(40_000);
            let path = file_arg(&args, &format!("{role} mcf"))?;
            let input = open_graph_input(path)?;
            run_cluster(MaxCliqueApp::with_tau(tau), &input, &cfg, seat, |r| {
                format!(
                    "maximum clique: {} vertices in {:.2?}\nmembers: {:?}",
                    r.global.len(),
                    r.elapsed,
                    r.global
                )
            })
        }
        "tc" => {
            let bundle: usize = take_parsed(&mut args, "--bundle")?.unwrap_or(0);
            let path = file_arg(&args, &format!("{role} tc"))?;
            let input = open_graph_input(path)?;
            let render =
                |r: &JobResult<u64>| format!("triangles: {} in {:.2?}", r.global, r.elapsed);
            if bundle > 0 {
                run_cluster(BundledTriangleApp::new(bundle), &input, &cfg, seat, render)
            } else {
                run_cluster(TriangleApp, &input, &cfg, seat, render)
            }
        }
        "mc" => {
            let path = file_arg(&args, &format!("{role} mc"))?;
            let input = open_graph_input(path)?;
            run_cluster(MaximalCliqueApp, &input, &cfg, seat, |r| {
                format!("maximal cliques: {} in {:.2?}", r.global, r.elapsed)
            })
        }
        "qc" => {
            let gamma: f64 = take_parsed(&mut args, "--gamma")?
                .ok_or_else(|| CliError(format!("{role} qc: --gamma required")))?;
            let min: usize = take_parsed(&mut args, "--min")?.unwrap_or(3);
            let max: usize = take_parsed(&mut args, "--max")?.unwrap_or(5);
            let path = file_arg(&args, &format!("{role} qc"))?;
            let input = open_graph_input(path)?;
            run_cluster(QuasiCliqueApp::new(gamma, min, max), &input, &cfg, seat, move |r| {
                format!(
                    "γ={gamma} quasi-cliques of size {min}..{max}: {} in {:.2?}",
                    r.global, r.elapsed
                )
            })
        }
        "kp" => {
            let k: usize = take_parsed(&mut args, "--k")?
                .ok_or_else(|| CliError(format!("{role} kp: --k required")))?;
            let min: usize =
                take_parsed(&mut args, "--min")?.unwrap_or((2 * k).saturating_sub(1).max(2));
            let max: usize = take_parsed(&mut args, "--max")?.unwrap_or(min + 2);
            let path = file_arg(&args, &format!("{role} kp"))?;
            let input = open_graph_input(path)?;
            run_cluster(KPlexApp::new(k, min, max), &input, &cfg, seat, move |r| {
                format!(
                    "connected {k}-plexes of size {min}..{max}: {} in {:.2?}",
                    r.global, r.elapsed
                )
            })
        }
        "gm" => {
            let spec = take_flag(&mut args, "--pattern")?
                .ok_or_else(|| CliError(format!("{role} gm: --pattern required")))?;
            let pattern = parse_pattern(&spec)?;
            let path = file_arg(&args, &format!("{role} gm"))?;
            let input = open_graph_input(path)?;
            let labels = input.labels().ok_or_else(|| {
                CliError(format!("{role} gm: the data graph must be labeled (gen --labels K)"))
            })?;
            run_cluster(MatchingApp::new(pattern, labels), &input, &cfg, seat, move |r| {
                format!("embeddings of {spec}: {} in {:.2?}", r.global, r.elapsed)
            })
        }
        other if other.starts_with("--") => err(format!("{role}: unknown option {other}")),
        other => err(format!("{role}: unknown miner {other} (want mcf|tc|mc|qc|kp|gm)")),
    }
}

/// The argument list a supervised worker is respawned with: the crash
/// flags (`--die-after-*`) are stripped so the scheduled death does not
/// re-fire, any previous rejoin markers are dropped, and
/// `--rejoin --generation G` is appended so the replacement's hellos
/// supersede the dead generation's sockets at every surviving peer.
fn respawn_args(args: &[String], generation: u32) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len() + 3);
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        match a.as_str() {
            "--die-after-msgs" | "--die-after-ms" | "--generation" => skip_value = true,
            "--rejoin" => {}
            _ => out.push(a.clone()),
        }
    }
    out.push("--rejoin".into());
    out.push("--generation".into());
    out.push(generation.to_string());
    out
}

/// `gthinker supervise [--respawn-limit N] worker …`: runs the wrapped
/// `worker` invocation as a child process (stdio inherited) and, when
/// the child dies abnormally, respawns it with a bumped `--generation`
/// so it rejoins the surviving mesh and the cluster resumes from the
/// last validated checkpoint. A clean exit (status 0) ends supervision.
fn cmd_supervise(mut args: Vec<String>) -> Result<String, CliError> {
    let limit: u32 = take_parsed(&mut args, "--respawn-limit")?.unwrap_or(4);
    if args.first().map(String::as_str) != Some("worker") {
        return err("supervise: want `supervise [--respawn-limit N] worker --hosts .. --me I ..`");
    }
    let exe = std::env::current_exe()
        .map_err(|e| CliError(format!("supervise: cannot find own executable: {e}")))?;
    // Respawn generations continue from wherever the first launch
    // started (a supervisor can itself be restarted mid-job).
    let mut generation: u32 = args
        .iter()
        .position(|a| a == "--generation")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut respawns = 0u32;
    loop {
        let status = std::process::Command::new(&exe)
            .args(&args)
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
        args = respawn_args(&args, generation);
    }
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

        let mut a = args(&["--steal", "off", "--compute-budget", "3", "--workers", "2"]);
        let o = mine_opts(&mut a).unwrap();
        assert!(a.is_empty(), "all flags consumed: {a:?}");
        assert!(!o.steal);
        assert_eq!(o.compute_budget, Some(3));
        let cfg = job_config(&o);
        assert!(!cfg.work_stealing);
        assert_eq!(cfg.compute_budget, Some(3));
        // Defaults: stealing on, no budget.
        let cfg = job_config(&MineOpts::default());
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
    fn report_interval_flag_validates() {
        for bad in ["0", "-1", "nan", "soon"] {
            let e = run(args(&["tc", "g.el", "--report-interval", bad])).unwrap_err();
            assert!(e.0.contains("--report-interval"), "{bad}: {e}");
        }
        let mut a = args(&["--report-interval", "0.5"]);
        let o = mine_opts(&mut a).unwrap();
        assert!(a.is_empty(), "flag consumed: {a:?}");
        assert_eq!(o.report_interval, Some(Duration::from_millis(500)));
        assert_eq!(job_config(&o).report_interval, Some(Duration::from_millis(500)));
        // Default: final-only reports.
        assert_eq!(job_config(&MineOpts::default()).report_interval, None);
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
