//! The one option table: every option `gthinker` accepts is a row of
//! it, and the parser ([`Args`]), the usage text ([`usage`]) and
//! `respawn_args` know nothing about options but what the rows say.
//!
//! [`Args`] keeps its tokens to itself: a command can only take an
//! option out by its row or hand the rest to [`Args::finish`], which
//! rejects whatever is left — so nothing on a command line is ever
//! silently ignored.

use crate::{err, CliError};

/// Which command lines accept an option.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Scope {
    /// The named subcommands only.
    Only(&'static [&'static str]),
    /// The six miners, alone or under `master` / `worker`.
    Mining,
    /// `master` and `worker`.
    Cluster,
    /// `master` only: it is the one process with the cluster-wide view.
    Master,
    /// `worker` only: flags about one incarnation of a worker process,
    /// which `supervise` replaces when it respawns the worker.
    Worker,
}

/// One row of the option table.
pub(crate) struct Opt {
    pub(crate) name: &'static str,
    /// Placeholder of the value in the usage text; `None` for a switch.
    pub(crate) value: Option<&'static str>,
    pub(crate) scope: Scope,
    help: &'static str,
}

/// Declares the option table, scope by scope: a row becomes a constant
/// by which the code that reads the option names it, and an entry of
/// `OPTIONS`, which is all the parser, [`usage`] and `respawn_args`
/// know about options.
macro_rules! option_table {
    (@value) => { None };
    (@value $value:literal) => { Some($value) };
    ($($scope:expr => { $($id:ident = $name:literal $([$value:literal])? $help:literal;)* })*) => {
        $($(pub(crate) const $id: Opt = Opt {
            name: $name,
            value: option_table!(@value $($value)?),
            scope: $scope,
            help: $help,
        };)*)*
        pub(crate) const OPTIONS: &[Opt] = &[$($($id),*),*];
    };
}

option_table! {
    Scope::Only(&["gen"]) => {
        GEN_N = "-n" ["N"] "vertices of ba / gnp (default 10000)";
        GEN_M = "-m" ["M"] "edges each new ba vertex attaches (default 5)";
        GEN_P = "-p" ["P"] "gnp edge probability (default 0.001)";
        SEED = "--seed" ["S"] "generator seed (default 1)";
        LABELS = "--labels" ["K"] "give every vertex one of K random labels (for gm)";
        SCALE = "--scale" ["F"] "size factor of a dataset stand-in (default 1)";
        STREAM = "--stream" "write edges (text or .bel) as generated, graph never in RAM";
        OUT = "-o" ["FILE"] "where to write the graph (required)";
    }
    Scope::Only(&["graph build"]) => {
        ORDER = "--order" "apply a degeneracy relabel first";
    }
    Scope::Only(&["mcf"]) => {
        TAU = "--tau" ["T"] "split tasks over subgraphs of more than T vertices (default 40000)";
    }
    Scope::Only(&["tc"]) => {
        BUNDLE = "--bundle" ["D"] "one task for many vertices of at most D larger neighbours each";
        LIST = "--list" ["DIR"] "enumerate: stream every triangle to DIR/part-<worker>.out";
    }
    Scope::Only(&["qc"]) => {
        GAMMA = "--gamma" ["G"] "minimum degree ratio γ (required)";
    }
    Scope::Only(&["kp"]) => {
        K = "--k" ["K"] "the k of k-plex (required)";
    }
    Scope::Only(&["qc", "kp"]) => {
        MIN = "--min" ["N"] "smallest size reported (default: qc 3, kp max(2k-1, 2))";
        MAX = "--max" ["N"] "largest size reported (default: qc 5, kp min+2)";
    }
    Scope::Only(&["gm"]) => {
        PATTERN = "--pattern" ["SPEC"] "triangle:0,1,2 | path:.. | star:.. | clique4:.. (required)";
    }
    Scope::Mining => {
        WORKERS = "--workers" ["N"] "machines simulated in this process (default 1)";
        COMPERS = "--compers" ["N"] "mining threads per machine (default 4)";
        STEAL = "--steal" ["on|off"] "cluster-wide work stealing (default on)";
        COMPUTE_BUDGET = "--compute-budget" ["N"]
            "yield a task after N extension steps so its rest can be split and stolen";
        METRICS_JSON = "--metrics-json" ["PATH"]
            "write counters + latency quantiles as JSON (on the master: the whole cluster's)";
        TRACE_OUT = "--trace-out" ["PATH"]
            "write the scheduler/cache timeline as Chrome trace_event JSON (Perfetto)";
        TAIL = "--tail" "print the per-comper tail-latency report";
        REPORT_INTERVAL = "--report-interval" ["S"]
            "(cluster) push metrics to the master every S seconds (default: at the end)";
    }
    Scope::Cluster => {
        HOSTS = "--hosts" ["H0:P0,H1:P1,.."]
            "one host:port per process, the same list everywhere; the first is the master";
        ME = "--me" ["I"] "this process's index into the host list (required on a worker)";
        CONNECT_TIMEOUT = "--connect-timeout" ["SECS"] "bound on each rendezvous (default 30)";
        CHECKPOINT_DIR = "--checkpoint-dir" ["DIR"]
            "survive crashes: checkpoint epochs under DIR, which every process must reach";
        CHECKPOINT_INTERVAL = "--checkpoint-interval" ["S"]
            "seconds between checkpoint epochs (default 1)";
        MAX_RECOVERIES = "--max-recoveries" ["N"]
            "recovery rounds tolerated before the job is abandoned (default 8)";
    }
    Scope::Master => {
        STATUS = "--status" "print a cluster progress line to stderr every second";
        TELEMETRY_ADDR = "--telemetry-addr" ["H:P"]
            "serve the live cluster snapshot at http://H:P/ as Prometheus text";
    }
    Scope::Worker => {
        REJOIN = "--rejoin" "this is the respawned replacement of a dead generation";
        GENERATION = "--generation" ["G"] "which incarnation this is; supervise counts them";
        DIE_AFTER_MSGS = "--die-after-msgs" ["N"] "(chaos) abort after N of its own messages";
        DIE_AFTER_MS = "--die-after-ms" ["T"] "(chaos) abort after T milliseconds";
    }
    Scope::Only(&["supervise"]) => {
        RESPAWN_LIMIT = "--respawn-limit" ["N"] "respawns before giving up (default 4)";
    }
}

/// The hand-written half of the usage text: the subcommands and their
/// arguments. No option is named here; [`usage`] lists those.
const SYNOPSIS: &str = "usage: gthinker <command> [options anywhere after it]
  gen <ba|gnp|youtube-s|skitter-s|orkut-s|btc-s|friendster-s>
  stats <FILE>
  convert <IN> <OUT>                  formats go by extension: .el/.txt edge
                                      list, .adj adjacency lines, .bin binary,
                                      .bel binary edge stream, .gtc compressed
  order <IN> <OUT>                    relabel into degeneracy order
  graph build <IN> <OUT.gtc>          build the compressed mmap format
                                      (edge-list inputs stream in two passes)
  graph stats <FILE>                  storage stats: |V|, |E|, degree
                                      p50/p95/max, plain vs compressed bytes
  mcf|tc|mc|qc|kp|gm <FILE>           mine; a .gtc file is mined memory-mapped
  master <miner> <FILE>               a multi-process job runs one OS process
  worker <miner> <FILE>               per entry of the host list, all given the
                                      same file and miner options; the master is
                                      worker 0 and prints the result, each
                                      worker prints its own byte counters
  supervise worker ..                 run that worker; if it dies, respawn it
                                      as the next generation
";

/// Usage text: the subcommands and their arguments, then every row of
/// the option table under the commands that accept it.
pub fn usage() -> String {
    let mut out = String::from(SYNOPSIS);
    let mut section = None;
    for o in OPTIONS {
        if section != Some(o.scope) {
            section = Some(o.scope);
            out.push_str(&match o.scope {
                Scope::Only(cmds) => format!("\n{}:\n", cmds.join(", ")),
                Scope::Mining => "\nevery miner, alone or under master/worker:\n".into(),
                Scope::Cluster => "\nmaster and worker:\n".into(),
                Scope::Master => "\nmaster alone, as it holds the cluster-wide view:\n".into(),
                Scope::Worker => "\nworker alone:\n".into(),
            });
        }
        let head = format!("  {} {}", o.name, o.value.unwrap_or_default());
        out.push_str(&format!("{head:<25} {}\n", o.help));
    }
    out.truncate(out.trim_end().len());
    out
}

/// A command line split by the option table: the options given, each
/// taken out by the code that reads it, and the positional arguments.
pub(crate) struct Args {
    /// The command so far, as error messages name it: `tc`,
    /// `master tc`, `graph build`.
    pub(crate) path: String,
    /// The options given, a switch with an empty value.
    opts: Vec<(&'static Opt, String)>,
    positional: std::collections::VecDeque<String>,
}

impl Args {
    /// Splits `raw`, the arguments after `cmd`: a token naming a row of
    /// [`OPTIONS`] is that option and — arity comes from the row —
    /// takes the next token as its value; everything else is positional
    /// until [`Args::finish`] judges it.
    pub(crate) fn parse(cmd: &str, raw: Vec<String>) -> Result<Args, CliError> {
        let mut a = Args { path: cmd.into(), opts: Vec::new(), positional: Default::default() };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            let Some(o) = OPTIONS.iter().find(|o| o.name == arg) else {
                a.positional.push_back(arg);
                continue;
            };
            if a.opts.iter().any(|(seen, _)| seen.name == o.name) {
                return err(format!("{} given more than once", o.name));
            }
            let value = match o.value.map(|_| raw.next()) {
                None => String::new(),
                Some(Some(v)) => v,
                Some(None) => return err(format!("{} requires a value", o.name)),
            };
            a.opts.push((o, value));
        }
        Ok(a)
    }

    /// Takes the next positional argument — a generator kind, a
    /// subcommand — out of the line.
    pub(crate) fn word(&mut self, what: &str) -> Result<String, CliError> {
        match self.positional.pop_front() {
            Some(w) if w.starts_with('-') => err(format!("{}: unknown option {w}", self.path)),
            Some(w) => Ok(w),
            None => err(format!("{}: missing {what}", self.path)),
        }
    }

    /// [`Args::word`] for a subcommand, which extends [`Args::path`].
    pub(crate) fn enter(&mut self, what: &str) -> Result<String, CliError> {
        let sub = self.word(what)?;
        self.path = format!("{} {sub}", self.path);
        Ok(sub)
    }

    /// Takes option `o` out of the line, if it was given.
    pub(crate) fn take(&mut self, o: &Opt) -> Option<String> {
        let at = self.opts.iter().position(|(seen, _)| seen.name == o.name)?;
        Some(self.opts.remove(at).1)
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&mut self, o: &Opt) -> Result<Option<T>, CliError> {
        match self.take(o) {
            None => Ok(None),
            Some(s) => match s.parse() {
                Ok(v) => Ok(Some(v)),
                Err(_) => err(format!("bad value for {}: {s}", o.name)),
            },
        }
    }

    pub(crate) fn required<T: std::str::FromStr>(&mut self, o: &Opt) -> Result<T, CliError> {
        let missing = format!("{}: {} {} required", self.path, o.name, o.value.unwrap_or_default());
        self.parsed(o)?.ok_or(CliError(missing))
    }

    /// The end of every subcommand's parsing: the line must hold
    /// nothing but the `N` positional arguments named by `want`.
    /// Whatever else is left — an option this command did not take out,
    /// a token no row of the table names, a positional too many — is an
    /// error, never ignored.
    pub(crate) fn finish<const N: usize>(self, want: [&str; N]) -> Result<[String; N], CliError> {
        let path = &self.path;
        if let Some((o, _)) = self.opts.first() {
            return err(match (o.scope, path.split(' ').next()) {
                (Scope::Worker, Some("master")) => format!(
                    "master: {} targets a worker; the master hosts the failure detector",
                    o.name
                ),
                (Scope::Master, Some("worker")) => {
                    format!("worker: {} is the master's; a worker has no cluster view", o.name)
                }
                _ => format!("{path}: unknown option {}", o.name),
            });
        }
        if let Some(flag) = self.positional.iter().find(|a| a.starts_with('-')) {
            return err(format!("{path}: unknown option {flag}"));
        }
        if let Some(extra) = self.positional.get(N) {
            return err(format!("{path}: unexpected argument {extra}"));
        }
        if let Some(name) = want.get(self.positional.len()) {
            return err(format!("{path}: missing {name}"));
        }
        Ok(Vec::from(self.positional).try_into().expect("exactly N arguments are left"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_shows_every_row_once_and_names_no_option_by_hand() {
        assert!(!SYNOPSIS.contains(" -"), "an option named outside the table:\n{SYNOPSIS}");
        let text = usage();
        for o in OPTIONS {
            let shown = format!("\n  {} {}", o.name, o.value.unwrap_or_default());
            assert_eq!(text.matches(shown.trim_end()).count(), 1, "{} in:\n{text}", o.name);
            assert!(text.contains(o.help), "{}", o.name);
            assert_eq!(OPTIONS.iter().filter(|p| p.name == o.name).count(), 1, "{}", o.name);
        }
    }
}
