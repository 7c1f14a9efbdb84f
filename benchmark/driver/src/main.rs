//! End-to-end driver of the G-thinker benchmark.
//!
//! Runs the real `gthinker` binary as OS processes — closed loop, one
//! job at a time — checks every answer, and reports end-to-end numbers
//! from untraced runs only. Per-layer numbers come from a separate
//! traced pass: the program's own `--metrics-json`, the driver's spans
//! around every process and probe, and the probe runner's timings of
//! each crate's public functions on the workload's own graph.
//!
//! Two ways in (see `../README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1`: one workload,
//!   time-boxed; the last line of stdout is one JSON object with
//!   `correct`, `attempted`, `failed` and `metrics`.
//! * no `--workload`: the whole suite with fixed repetitions
//!   interleaved in rounds, `out/results.json` and `out/trace.json`;
//!   `--check-repeat` runs it twice and compares, `--smoke` is the
//!   20-second version.

mod catalog;
mod json;
mod measure;
mod metrics;
mod model;
mod proc;
mod spans;
mod stats;
mod suite;
mod tracing;
mod workloads;

use json::Json;
use measure::Measured;
use spans::Recorder;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Ctx, Rep, Workload};

pub struct Args {
    gthinker: PathBuf,
    probes: Option<PathBuf>,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        gthinker: PathBuf::new(),
        probes: None,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: workloads::PINNED_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            _ => {
                let v = it.next().ok_or(format!("{flag}: missing value"))?;
                let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
                match flag.as_str() {
                    "--gthinker" => a.gthinker = PathBuf::from(&v),
                    "--probes" => a.probes = Some(PathBuf::from(&v)),
                    "--out" => a.out = PathBuf::from(&v),
                    "--workload" => a.workload = Some(v),
                    "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
                    "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
                    "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
                    _ => return Err(format!("unknown flag {flag}")),
                }
            }
        }
    }
    if a.gthinker.as_os_str().is_empty() {
        return Err("--gthinker PATH (the binary under test) is required".into());
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(a)
}

/// Six significant-ish digits for the tables; files and the result line
/// carry every digit.
pub fn show(v: Option<f64>) -> String {
    match v {
        None => "null".into(),
        Some(x) if x.abs() >= 1000.0 => format!("{x:.1}"),
        Some(x) if x.abs() >= 1.0 => format!("{x:.4}"),
        Some(x) => format!("{x:.6}"),
    }
}

pub fn metric_json(value: Option<f64>, unit: &str) -> Json {
    Json::obj([("value", Json::num(value)), ("unit", Json::Str(unit.into()))])
}

pub fn print_metric((name, unit, value): &tracing::Metric) {
    println!("  {name:<28} {:>14} {unit}", show(*value));
}

/// One workload, time-boxed: the contract `BENCHMARK.json` describes.
fn run_one(args: &Args, ctx: &Ctx, w: &'static Workload) -> std::io::Result<()> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rec = Recorder::new(args.trace);
    let mut measured = Measured::prepare(ctx, w, if args.trace { 1 } else { 3 }, &mut rec)?;
    let mut tiny = None;

    let started = Instant::now();
    let metrics: Vec<tracing::Metric> = if args.trace {
        // The time box starts with the tiny jobs the floor is measured
        // on, unless they are this workload's own, and then alternates
        // untraced and traced jobs; the probes come after it.
        if w.name != workloads::FLOOR_WORKLOAD {
            let floor = workloads::find(workloads::FLOOR_WORKLOAD).expect("the floor workload");
            let mut jobs = Measured::prepare(ctx, floor, 1, &mut rec)?;
            for _ in 0..tracing::FLOOR_JOBS {
                jobs.job(ctx, true, &mut rec)?;
            }
            tiny = Some(jobs);
        }
        while measured.traced.is_empty() || started.elapsed() < budget {
            measured.job(ctx, false, &mut rec)?;
            measured.job(ctx, true, &mut rec)?;
        }
        let floor = tracing::floor_numbers(ctx, tiny.as_ref().unwrap_or(&measured), &mut rec)?;
        let layer = tracing::per_layer(ctx, &measured, &floor, &mut rec)?;
        std::fs::create_dir_all(&args.out)?;
        std::fs::write(args.out.join("trace.json"), rec.chrome_trace().pretty())?;
        layer
    } else {
        while measured.untraced.reps.len() < 3 || started.elapsed() < budget {
            measured.job(ctx, false, &mut rec)?;
        }
        catalog::END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name, unit, measured.untraced.median(name)))
            .collect()
    };

    let all: Vec<&Rep> = measured.jobs().chain(tiny.iter().flat_map(Measured::jobs)).collect();
    let failed = all.iter().filter(|r| r.failure.is_some()).count();
    for (i, r) in measured.jobs().enumerate() {
        let verdict = r.failure.as_deref().unwrap_or("ok");
        eprintln!(
            "{} job {i}: wall {:.4} s, cpu {:.4} s, rss {:.1} MB, {verdict}",
            w.name, r.wall_s, r.cpu_s, r.peak_rss_mb
        );
    }
    println!("workload {} seed {} ({} jobs, {failed} failed)", w.name, ctx.seed, all.len());
    metrics.iter().for_each(print_metric);
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(all.len() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics.iter().map(|&(n, u, v)| (n, metric_json(v, u))))),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("gthinker-e2e: {e}");
        std::process::exit(2);
    });
    let ctx = Ctx {
        gthinker: args.gthinker.clone(),
        probes: args.probes.clone(),
        work: args.out.join(format!("work-{}", std::process::id())),
        seed: args.seed,
        smoke: args.smoke,
        timeout: Duration::from_secs(60),
    };
    let outcome = std::fs::create_dir_all(&ctx.work).and_then(|()| match &args.workload {
        // A time-boxed run whose jobs failed has still measured and
        // reported: its result line says so, its exit code does not.
        Some(name) => match workloads::find(name) {
            Some(w) => run_one(&args, &ctx, w).map(|()| true),
            None => {
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                Err(std::io::Error::other(format!("no workload {name}; have {}", known.join(", "))))
            }
        },
        None => suite::run(&args, &ctx),
    });
    // The scratch directory goes whatever happened.
    let _ = std::fs::remove_dir_all(&ctx.work);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("gthinker-e2e: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is the contract other
    /// tools read; it must list exactly what this driver reports.
    #[test]
    fn benchmark_json_matches_the_catalog_and_the_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let str_of = |v: &Json, key: &str| match v.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };

        let listed: Vec<(String, String)> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> =
            workloads::WORKLOADS.iter().map(|w| (w.name.into(), w.why.into())).collect();
        assert_eq!(listed, ours);

        let e2e: Vec<(String, String, String, f64)> = b
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = catalog::END_TO_END
            .iter()
            .map(|&(n, u, bound)| (n.into(), u.into(), "lower".into(), bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = b
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = catalog::PER_LAYER
            .iter()
            .map(|&(n, u, higher)| {
                (n.into(), u.into(), if higher { "higher" } else { "lower" }.into())
            })
            .collect();
        assert_eq!(layers, ours);
    }
}
