//! Per-layer probe runner.
//!
//! `gthinker-probes --graph FILE.bin --miner tc|mc|mcf --scratch DIR
//!  [--tau N] [--misses N]`
//!
//! Loads the workload's own graph, times calls into each crate's public
//! leaf functions on it (all of them in `layers.rs`), and prints one
//! line per metric:
//!
//! `probe <name> <value> <unit> <start_us> <duration_us>`
//!
//! where start and duration place the probe on this process's clock, so
//! the driver can draw a `probe.<name>` span for each. A per-operation
//! probe runs its batch at least three times and until [`BUDGET`] is
//! spent, and reports the median batch.

mod layers;

use layers::{Inputs, Miner, Sample};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long a per-operation probe keeps repeating its batch. Fixed, so
/// that any two runs of the benchmark probe alike.
const BUDGET: Duration = Duration::from_millis(60);

struct Args {
    graph: PathBuf,
    miner: Miner,
    tau: usize,
    misses: usize,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut graph = None;
    let mut miner = None;
    let mut scratch = None;
    let (mut tau, mut misses) = (16, 0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag}: missing value"))?;
        let number = || value.parse::<usize>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--graph" => graph = Some(PathBuf::from(&value)),
            "--scratch" => scratch = Some(PathBuf::from(&value)),
            "--miner" => {
                miner = Some(match value.as_str() {
                    "tc" => Miner::Tc,
                    "mc" => Miner::Mc,
                    "mcf" => Miner::Mcf,
                    other => return Err(format!("--miner {other}: want tc, mc or mcf")),
                })
            }
            "--tau" => tau = number()?,
            "--misses" => misses = number()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        graph: graph.ok_or("--graph FILE required")?,
        miner: miner.ok_or("--miner tc|mc|mcf required")?,
        tau,
        misses,
        scratch: scratch.ok_or("--scratch DIR required")?,
    })
}

struct Runner {
    origin: Instant,
}

impl Runner {
    fn report(&self, name: &str, value: f64, unit: &str, started: Instant) {
        let start_us = started.duration_since(self.origin).as_secs_f64() * 1e6;
        let dur_us = started.elapsed().as_secs_f64() * 1e6;
        println!("probe {name} {value} {unit} {start_us:.1} {dur_us:.1}");
    }

    /// Times `f` once: a one-shot probe reported in seconds.
    fn once<T>(&self, name: &str, f: impl FnOnce() -> std::io::Result<T>) -> T {
        let started = Instant::now();
        let out = f().unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        self.report(name, started.elapsed().as_secs_f64(), "s", started);
        out
    }

    /// Median nanoseconds per operation over repeated batches.
    fn median_ns(&self, mut batch: impl FnMut() -> Sample) -> f64 {
        let started = Instant::now();
        let mut per_op = Vec::new();
        while per_op.len() < 3 || (started.elapsed() < BUDGET && per_op.len() < 25) {
            let (ops, took) = batch();
            per_op.push(took.as_secs_f64() * 1e9 / ops.max(1) as f64);
        }
        per_op.sort_by(f64::total_cmp);
        per_op[per_op.len() / 2]
    }

    /// A per-operation probe; `scale` turns ns/op into the reported unit.
    fn per_op(
        &self,
        name: &str,
        unit: &str,
        scale: impl Fn(f64) -> f64,
        batch: impl FnMut() -> Sample,
    ) {
        let started = Instant::now();
        let ns = self.median_ns(batch);
        self.report(name, scale(ns), unit, started);
    }

    fn ns(&self, name: &str, batch: impl FnMut() -> Sample) {
        self.per_op(name, "ns", |ns| ns, batch);
    }

    fn value(&self, name: &str, unit: &str, f: impl FnOnce() -> f64) {
        let started = Instant::now();
        let v = f();
        self.report(name, v, unit, started);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("gthinker-probes: {msg}");
    std::process::exit(1);
}

fn prepare(args: &Args, run: &Runner, gtc_path: &Path) -> Inputs {
    let graph = run.once("graph.load_bin_s", || layers::load_bin(&args.graph));
    let stats = run.once("graph.build_gtc_s", || layers::build_gtc(&graph, gtc_path));
    let gtc = run.once("graph.open_gtc_s", || layers::open_gtc(gtc_path));
    Inputs::new(graph, gtc, stats, args.miner, args.tau, args.misses, &args.scratch)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    std::fs::create_dir_all(&args.scratch).unwrap_or_else(|e| fail(&format!("--scratch: {e}")));
    let run = Runner { origin: Instant::now() };
    let inp = prepare(&args, &run, &args.scratch.join("probe.gtc"));

    run.ns("graph.csr_adj_ns", layers::ram_adjacency(&inp));
    run.ns("graph.gtc_adj_ns", layers::gtc_adjacency(&inp));
    run.value("graph.gtc_bytes_per_edge", "B", || inp.gtc_stats.bytes_per_edge());
    run.ns("graph.to_local_ns", layers::to_local(&inp));

    run.ns("store.hit_ns", layers::cache_hit(&inp));
    run.ns("store.miss_ns", layers::cache_miss(&inp));
    run.ns("store.hit_2t_ns", layers::cache_hit_two_threads(&inp));
    run.ns("store.gc_evict_ns", layers::cache_gc_evict(&inp));
    run.ns("store.local_get_ns", layers::local_get(&inp));
    run.ns("store.lazy_get_ns", layers::lazy_get(&inp));

    run.ns("task.queue_ns", layers::queue(&inp));
    run.ns("task.pending_ns", layers::pending(&inp));
    run.ns("task.encode_ns", layers::task_encode(&inp));
    run.ns("task.decode_ns", layers::task_decode(&inp));
    run.value("task.bytes_per_task", "B", || layers::bytes_per_task(&inp));
    // One byte per nanosecond is 1000 MB/s.
    let mb_per_s = |ns_per_byte: f64| 1e3 / ns_per_byte;
    run.per_op("task.spill_mb_s", "MB/s", mb_per_s, layers::spill(&inp));
    run.per_op("task.refill_mb_s", "MB/s", mb_per_s, layers::refill(&inp));

    run.ns("net.encode_ns", layers::message_encode(&inp));
    run.ns("net.decode_ns", layers::message_decode(&inp));
    run.ns("net.seal_ns", layers::frame_seal(&inp));
    run.ns("net.open_ns", layers::frame_open(&inp));
    run.value("net.bytes_per_pull", "B", || layers::bytes_per_pull(&inp));
    run.per_op("net.tcp_rtt_us", "us", |ns| ns / 1e3, layers::tcp_round_trip(&inp));
    let per_s = |ns_per_msg: f64| 1e9 / ns_per_msg;
    run.per_op("net.tcp_msgs_s", "1/s", per_s, layers::tcp_messages());
    run.per_op("net.sim_msgs_s", "1/s", per_s, layers::sim_messages());

    run.ns("apps.tc_ns", layers::tc_kernel(&inp));
    run.ns("apps.mc_ns", layers::mc_kernel(&inp));
    run.ns("apps.mcf_ns", layers::mcf_kernel(&inp));
}
