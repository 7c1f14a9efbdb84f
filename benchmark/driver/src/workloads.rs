//! The five workloads: how each one's inputs are made, how its job is
//! launched, and how its result is checked.

use crate::json::Json;
use crate::proc::{self, JobOutcome};
use crate::spans::{Recorder, SpanId};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The seed the pinned reference results belong to.
pub const PINNED_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miner {
    Tc,
    Mc,
    Mcf,
}

impl Miner {
    pub fn command(self) -> &'static str {
        match self {
            Miner::Tc => "tc",
            Miner::Mc => "mc",
            Miner::Mcf => "mcf",
        }
    }

    /// The job's answer, read from the line the CLI prints it on:
    /// `triangles: N in ..`, `maximal cliques: N in ..`,
    /// `maximum clique: N vertices in ..`.
    pub fn parse_result(self, stdout: &str) -> Option<u64> {
        let prefix = match self {
            Miner::Tc => "triangles: ",
            Miner::Mc => "maximal cliques: ",
            Miner::Mcf => "maximum clique: ",
        };
        stdout.lines().find_map(|line| {
            let rest = line.strip_prefix(prefix)?;
            rest.split_whitespace().next()?.parse().ok()
        })
    }
}

#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    Ba { n: u32, m: u32 },
    Gnp { n: u32, p: f64 },
    FriendsterS { scale: f64 },
}

impl GraphSpec {
    /// Arguments of `gthinker gen`; `--smoke` makes the big graphs a
    /// tenth of their size (the tiny gnp graph stays as it is).
    fn gen_args(self, smoke: bool) -> Vec<String> {
        let shrink = if smoke { 10 } else { 1 };
        match self {
            GraphSpec::Ba { n, m } => {
                strs(&["ba", "-n", &(n / shrink).to_string(), "-m", &m.to_string()])
            }
            GraphSpec::Gnp { n, p } => strs(&["gnp", "-n", &n.to_string(), "-p", &p.to_string()]),
            GraphSpec::FriendsterS { scale } => {
                strs(&["friendster-s", "--scale", &(scale / shrink as f64).to_string()])
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Layout {
    /// `master` + `worker` OS processes over loopback TCP.
    Tcp { procs: usize, compers: usize },
    /// One process; more than one worker means the in-process sim router.
    Local { workers: usize, compers: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: GraphSpec,
    /// Relabel into degeneracy order (`gthinker order`).
    pub order: bool,
    /// Run off the compressed memory-mapped `.gtc` file.
    pub mapped: bool,
    pub miner: Miner,
    pub miner_args: &'static [&'static str],
    pub layout: Layout,
    /// Repetitions in a suite run (a time-boxed run fits what it can).
    pub reps: usize,
    /// Jobs in the suite's traced pass: a few, or enough for a
    /// percentile where the job itself is the sample.
    pub traced_reps: usize,
    /// The job's answer for [`PINNED_SEED`] at full scale.
    pub pinned: u64,
}

const BA60K: GraphSpec = GraphSpec::Ba { n: 60_000, m: 24 };

/// Every workload uses workers × compers = 2, the cores of the host the
/// bounds were set on.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tc_pull_tcp",
        why: "7 us of compute per task and one pull round each: vertex cache, pending table, task queue, codec, frames and evented sockets do most of the work, the triangle kernel little",
        graph: BA60K,
        order: true,
        mapped: false,
        miner: Miner::Tc,
        miner_args: &[],
        layout: Layout::Tcp { procs: 2, compers: 1 },
        reps: 15,
        traced_reps: 3,
        pinned: 305_312,
    },
    Workload {
        name: "tc_mapped_tcp",
        why: "tc_pull_tcp with storage swapped for the mmap'd .gtc file: its decode is on every spawn and every served pull, and its set-up includes graph build",
        graph: BA60K,
        order: true,
        mapped: true,
        miner: Miner::Tc,
        miner_args: &[],
        layout: Layout::Tcp { procs: 2, compers: 1 },
        reps: 10,
        traced_reps: 3,
        pinned: 305_312,
    },
    Workload {
        name: "mc_compute_local",
        why: "one worker, so zero pulls and zero network: serial clique kernels and to_local are over 85% of CPU; cache, net and storage changes must not move it",
        graph: GraphSpec::FriendsterS { scale: 0.8 },
        order: false,
        mapped: false,
        miner: Miner::Mc,
        miner_args: &[],
        layout: Layout::Local { workers: 1, compers: 2 },
        reps: 12,
        traced_reps: 3,
        pinned: 380_722,
    },
    Workload {
        name: "mcf_split_sim",
        why: "tau=16 decomposition overflows the task queue: exercises queue, task codec, spill write and refill and the sim router, the task layer's write path",
        graph: GraphSpec::FriendsterS { scale: 2.0 },
        order: false,
        mapped: false,
        miner: Miner::Mcf,
        miner_args: &["--tau", "16"],
        layout: Layout::Local { workers: 2, compers: 1 },
        reps: 12,
        traced_reps: 3,
        pinned: 32,
    },
    Workload {
        name: FLOOR_WORKLOAD,
        why: "back-to-back 2-process jobs on a 300-vertex graph: spawn, rendezvous, sync rounds and 3-round termination, the fixed coordination floor; no other layer does measurable work",
        graph: GraphSpec::Gnp { n: 300, p: 0.06 },
        order: false,
        mapped: false,
        miner: Miner::Tc,
        miner_args: &[],
        layout: Layout::Tcp { procs: 2, compers: 1 },
        reps: 40,
        traced_reps: 40,
        pinned: 852,
    },
];

/// The workload whose jobs are too small to do anything but pay the
/// fixed cost of a job.
pub const FLOOR_WORKLOAD: &str = "floor_tiny_tcp";

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where things are and how this run was asked to behave.
pub struct Ctx {
    /// The program under test.
    pub gthinker: PathBuf,
    /// The per-layer probe runner; `None` when it did not build.
    pub probes: Option<PathBuf>,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
    pub seed: u64,
    pub smoke: bool,
    /// Per-process-group limit for one job.
    pub timeout: Duration,
}

impl Ctx {
    /// A `gthinker` invocation with its temporary files (the spill
    /// directory) confined to `tmp` and its output captured in `tmp`.
    fn gthinker(&self, args: &[String], tmp: &Path, tag: &str) -> io::Result<Command> {
        let mut c = Command::new(&self.gthinker);
        c.args(args)
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(File::create(tmp.join(format!("{tag}.out")))?)
            .stderr(File::create(tmp.join(format!("{tag}.err")))?);
        Ok(c)
    }

    /// Runs one `gthinker` process to completion under a span.
    fn step(
        &self,
        span: &str,
        args: &[String],
        tmp: &Path,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> io::Result<JobOutcome> {
        let id = rec.begin(span, parent);
        let job =
            proc::run_job(vec![self.gthinker(args, tmp, "step")?], self.timeout, rec, Some(id));
        rec.end(id);
        let job = job?;
        if job.all_ok() {
            Ok(job)
        } else {
            let err = fs::read_to_string(tmp.join("step.err")).unwrap_or_default();
            Err(io::Error::other(format!("gthinker {} failed: {}", args.join(" "), err.trim())))
        }
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// A workload's generated files.
#[derive(Clone)]
pub struct Inputs {
    /// Plain binary graph (what the reference run and the probes read).
    pub bin: PathBuf,
    /// What the job reads: `bin`, or the `.gtc` built from it.
    pub graph: PathBuf,
}

/// Makes a workload's files in a fresh `dir` through the CLI: `gen`,
/// then `order` and `graph build` where the workload uses them. Returns
/// the files and `setup_s`, the steps' wall time summed.
pub fn setup(
    ctx: &Ctx,
    w: &Workload,
    dir: &Path,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> io::Result<(Inputs, f64)> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    let raw = dir.join("raw.bin");
    let mut args = strs(&["gen"]);
    args.extend(w.graph.gen_args(ctx.smoke));
    args.extend(strs(&["--seed", &ctx.seed.to_string(), "-o", &path_arg(&raw)]));
    let mut setup_s = ctx.step("setup.gen", &args, dir, rec, parent)?.wall_s;

    let bin = if w.order {
        let ordered = dir.join("ordered.bin");
        let args = strs(&["order", &path_arg(&raw), &path_arg(&ordered)]);
        setup_s += ctx.step("setup.order", &args, dir, rec, parent)?.wall_s;
        ordered
    } else {
        raw
    };
    let graph = if w.mapped {
        let gtc = dir.join("graph.gtc");
        let args = strs(&["graph", "build", &path_arg(&bin), &path_arg(&gtc)]);
        setup_s += ctx.step("setup.build", &args, dir, rec, parent)?.wall_s;
        gtc
    } else {
        bin.clone()
    };
    Ok((Inputs { bin, graph }, setup_s))
}

/// The answer every repetition must give: pinned for the pinned seed,
/// otherwise what a 1 worker × 1 comper run of the plain binary file
/// says.
pub fn reference(
    ctx: &Ctx,
    w: &Workload,
    inputs: &Inputs,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> io::Result<u64> {
    if ctx.seed == PINNED_SEED && !ctx.smoke {
        return Ok(w.pinned);
    }
    let tmp = ctx.work.join("reference");
    fs::create_dir_all(&tmp)?;
    let mut args =
        strs(&[w.miner.command(), &path_arg(&inputs.bin), "--workers", "1", "--compers", "1"]);
    args.extend(strs(w.miner_args));
    ctx.step("setup.reference", &args, &tmp, rec, parent)?;
    let out = fs::read_to_string(tmp.join("step.out"))?;
    fs::remove_dir_all(&tmp)?;
    w.miner
        .parse_result(&out)
        .ok_or_else(|| io::Error::other(format!("no result line in the reference run: {out}")))
}

/// One repetition of a workload's job.
#[derive(Clone, Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Wall time of process 0 (the one that prints the result).
    pub master_wall_s: f64,
    /// Why the repetition counts as failed; `None` when it passed.
    pub failure: Option<String>,
    /// The program's `--metrics-json`, on traced repetitions.
    pub metrics: Option<Json>,
}

/// Runs the workload's job once and checks its answer against
/// `expected`. With `traced`, the master also writes `--metrics-json`
/// (the cluster-merged view) and the job's processes get spans.
pub fn run_rep(
    ctx: &Ctx,
    w: &Workload,
    inputs: &Inputs,
    expected: u64,
    traced: bool,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> io::Result<Rep> {
    let tmp = ctx.work.join("rep");
    if tmp.exists() {
        fs::remove_dir_all(&tmp)?;
    }
    fs::create_dir_all(&tmp)?;
    let metrics_path = tmp.join("metrics.json");

    // Per process: what comes before the miner command; for all: what
    // comes after it. Process 0 prints the result.
    let (heads, tail) = match w.layout {
        Layout::Tcp { procs, compers } => {
            let ports = proc::reserve_ports(procs)?;
            let hosts =
                ports.iter().map(|p| format!("127.0.0.1:{p}")).collect::<Vec<_>>().join(",");
            let mut heads = vec![strs(&["master", "--hosts", &hosts])];
            heads.extend(
                (1..procs).map(|me| strs(&["worker", "--hosts", &hosts, "--me", &me.to_string()])),
            );
            (heads, strs(&["--compers", &compers.to_string()]))
        }
        Layout::Local { workers, compers } => (
            vec![Vec::new()],
            strs(&["--workers", &workers.to_string(), "--compers", &compers.to_string()]),
        ),
    };
    let mut commands = Vec::new();
    for (me, mut args) in heads.into_iter().enumerate() {
        args.extend(strs(&[w.miner.command(), &path_arg(&inputs.graph)]));
        args.extend(strs(w.miner_args));
        args.extend(tail.iter().cloned());
        if me == 0 && traced {
            args.extend(strs(&["--metrics-json", &path_arg(&metrics_path)]));
        }
        commands.push(ctx.gthinker(&args, &tmp, &format!("p{me}"))?);
    }

    let span = rec.begin(if traced { "job.traced" } else { "job" }, parent);
    let job = proc::run_job(commands, ctx.timeout, rec, Some(span));
    rec.end(span);
    let job = job?;

    let stdout = fs::read_to_string(tmp.join("p0.out")).unwrap_or_default();
    let failure = if job.timed_out {
        Some(format!("timed out after {:?}", ctx.timeout))
    } else if !job.all_ok() {
        let err = fs::read_to_string(tmp.join("p0.err")).unwrap_or_default();
        Some(format!("non-zero exit: {}", err.trim()))
    } else {
        match w.miner.parse_result(&stdout) {
            Some(got) if got == expected => None,
            Some(got) => Some(format!("wrong result: got {got}, expected {expected}")),
            None => Some(format!("no result line in: {}", stdout.trim())),
        }
    };
    let metrics = match fs::read_to_string(&metrics_path) {
        Ok(text) if traced => match Json::parse(&text) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("warning: {}: unreadable --metrics-json: {e}", w.name);
                None
            }
        },
        _ => None,
    };
    fs::remove_dir_all(&tmp)?;
    Ok(Rep {
        wall_s: job.wall_s,
        cpu_s: job.cpu_s(),
        peak_rss_mb: job.peak_rss_mb(),
        master_wall_s: job.procs.first().map_or(job.wall_s, |p| p.wall_s),
        failure,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line_of_each_miner() {
        let tc = "triangles: 423535 in 2.68s\nworker 0 (master): sent 1 bytes, received 2 bytes\n";
        assert_eq!(Miner::Tc.parse_result(tc), Some(423_535));
        let local_tc = "triangles: 36 in 91.02ms (298 tasks)\nmetrics JSON written to m.json";
        assert_eq!(Miner::Tc.parse_result(local_tc), Some(36));
        assert_eq!(Miner::Mc.parse_result("maximal cliques: 1473928 in 3.55s"), Some(1_473_928));
        let mcf = "maximum clique: 32 vertices in 2.98s\nmembers: [v3397, v19069]";
        assert_eq!(Miner::Mcf.parse_result(mcf), Some(32));
    }

    #[test]
    fn a_missing_or_foreign_result_line_is_not_a_result() {
        assert_eq!(Miner::Tc.parse_result(""), None);
        assert_eq!(Miner::Tc.parse_result("maximal cliques: 5 in 1s"), None);
        assert_eq!(Miner::Mc.parse_result("maximal cliques: many in 1s"), None);
        assert_eq!(Miner::Mcf.parse_result("error: maximum clique: 3"), None);
    }

    #[test]
    fn workload_names_are_unique_and_use_two_threads() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name), "{}", w.name);
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
            let threads = match w.layout {
                Layout::Tcp { procs, compers } => procs * compers,
                Layout::Local { workers, compers } => workers * compers,
            };
            assert_eq!(threads, 2, "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn smoke_shrinks_the_big_graphs_tenfold() {
        assert_eq!(BA60K.gen_args(true), ["ba", "-n", "6000", "-m", "24"]);
        assert_eq!(BA60K.gen_args(false), ["ba", "-n", "60000", "-m", "24"]);
        let fr = GraphSpec::FriendsterS { scale: 2.0 };
        assert_eq!(fr.gen_args(true), ["friendster-s", "--scale", "0.2"]);
        let tiny = GraphSpec::Gnp { n: 300, p: 0.06 };
        assert_eq!(tiny.gen_args(true), tiny.gen_args(false));
    }
}
