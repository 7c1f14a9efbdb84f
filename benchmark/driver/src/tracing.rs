//! The traced pass: turns traced repetitions, the probe runner's output
//! and a few tiny jobs into the per-layer metrics.

use crate::catalog::PER_LAYER;
use crate::measure::Measured;
use crate::spans::Recorder;
use crate::workloads::{Ctx, Inputs, Rep, Workload};
use crate::{metrics, model, proc, stats};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io;
use std::process::{Command, Stdio};

pub type Metric = (&'static str, &'static str, Option<f64>);

/// The fixed cost every job pays, measured on jobs too small to do
/// anything else.
pub struct Floor {
    /// p75 of the program's own job time over the tiny jobs.
    pub p75_ms: Option<f64>,
    /// Median wall time of `gthinker stats` on the tiny graph: process
    /// start, argument parsing, a 300-vertex load, exit.
    pub noop_ms: Option<f64>,
}

fn job_s(rep: &Rep) -> Option<f64> {
    rep.metrics.as_ref()?.get("elapsed_ms")?.as_f64().map(|ms| ms / 1e3)
}

/// Traced tiny jobs the floor needs: the fewest that leave ten samples
/// beyond the p75 (`stats::tail_percentile`).
pub const FLOOR_JOBS: usize = 40;

/// Measures the floor on `tiny`, the tiny-job workload with its traced
/// jobs run. With fewer than [`FLOOR_JOBS`] good ones a p75 would rest
/// on a handful of samples, so there is none.
pub fn floor_numbers(ctx: &Ctx, tiny: &Measured, rec: &mut Recorder) -> io::Result<Floor> {
    let job_s: Vec<f64> =
        tiny.traced.iter().filter(|r| r.failure.is_none()).filter_map(job_s).collect();
    let p75_ms = stats::tail_percentile(job_s.len())
        .and_then(|_| stats::percentile(&job_s, 75.0))
        .map(|s| s * 1e3);

    let span = rec.begin("floor.noop", None);
    let mut noop_ms = Vec::new();
    for _ in 0..9 {
        let mut c = Command::new(&ctx.gthinker);
        c.arg("stats").arg(&tiny.inputs.bin);
        c.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
        let job = proc::run_job(vec![c], ctx.timeout, rec, Some(span))?;
        noop_ms.extend(job.all_ok().then_some(job.wall_s * 1e3));
    }
    rec.end(span);
    Ok(Floor { p75_ms, noop_ms: stats::median(&noop_ms) })
}

/// Runs the probe runner on the workload's graph and returns what it
/// printed, with a `probe.<metric>` span per line. No runner (it did
/// not build) or a failed run gives no probe metrics, with a warning.
fn run_probes(
    ctx: &Ctx,
    w: &Workload,
    inputs: &Inputs,
    misses: f64,
    rec: &mut Recorder,
) -> io::Result<Vec<(String, f64)>> {
    let Some(runner) = &ctx.probes else {
        eprintln!("warning: no probe runner: graph/store/task/net/apps metrics are null");
        return Ok(Vec::new());
    };
    let tmp = ctx.work.join("probes");
    fs::create_dir_all(&tmp)?;
    let miner = w.miner.command();
    let tau = w.miner_args.windows(2).find(|p| p[0] == "--tau").map_or("16", |p| p[1]);
    let mut c = Command::new(runner);
    c.arg("--graph").arg(&inputs.bin).arg("--scratch").arg(&tmp);
    c.args(["--miner", miner, "--tau", tau, "--misses", &format!("{misses:.0}")]);
    c.stdin(Stdio::null()).stdout(File::create(tmp.join("probes.out"))?).stderr(Stdio::inherit());

    let span = rec.begin("probes", None);
    let base_us = rec.now_us();
    let job = proc::run_job(vec![c], ctx.timeout, rec, Some(span))?;
    rec.end(span);
    if !job.all_ok() {
        eprintln!("warning: {}: the probe runner failed: its metrics are null", w.name);
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for line in fs::read_to_string(tmp.join("probes.out"))?.lines() {
        // probe <name> <value> <unit> <start_us> <duration_us>
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            ["probe", name, value, _unit, start, dur] => value
                .parse()
                .ok()
                .zip(start.parse::<f64>().ok())
                .zip(dur.parse::<f64>().ok())
                .map(|((v, s), d): ((f64, f64), f64)| (name.to_string(), v, s, d)),
            _ => None,
        };
        match parsed {
            Some((name, value, start, dur)) => {
                let at = base_us + start;
                rec.add(&format!("probe.{name}"), Some(span), at, at + dur, 0);
                out.push((name, value));
            }
            None => eprintln!("warning: unreadable probe line: {line}"),
        }
    }
    fs::remove_dir_all(&tmp)?;
    Ok(out)
}

fn put(found: &mut HashMap<String, f64>, name: &str, value: Option<f64>) {
    found.extend(value.map(|v| (name.to_string(), v)));
}

/// Every per-layer metric of one workload, in catalog order. A metric
/// nothing could supply is `None`, and says so on stderr.
pub fn per_layer(
    ctx: &Ctx,
    measured: &Measured,
    floor: &Floor,
    rec: &mut Recorder,
) -> io::Result<Vec<Metric>> {
    let Measured { w, inputs, traced, .. } = measured;
    let mut found: HashMap<String, f64> = HashMap::new();

    // gthinker-core: the median over the traced repetitions, by name.
    let per_rep: Vec<Vec<Metric>> = traced
        .iter()
        .filter(|r| r.failure.is_none())
        .filter_map(|r| Some(metrics::core_metrics(r.metrics.as_ref()?, r.cpu_s)))
        .collect();
    if let Some(first) = per_rep.first() {
        for (i, (name, ..)) in first.iter().enumerate() {
            let values: Vec<f64> = per_rep.iter().filter_map(|m| m[i].2).collect();
            put(&mut found, name, stats::median(&values));
        }
    }
    put(&mut found, "core.floor_p75_ms", floor.p75_ms);
    let exits: Vec<f64> = traced.iter().filter_map(|r| Some(r.master_wall_s - job_s(r)?)).collect();
    put(&mut found, "cli.load_exit_s", stats::median(&exits));
    put(&mut found, "cli.noop_ms", floor.noop_ms);

    if !ctx.smoke {
        let misses = found.get("core.cache_misses").copied().unwrap_or(0.0);
        found.extend(run_probes(ctx, w, inputs, misses, rec)?);
    }

    // The benchmark's own layer.
    let median_of = |f: fn(&Rep) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let overhead = median_of(|r| r.wall_s)
        .zip(measured.untraced.median("wall_s"))
        .map(|(t, u)| (t - u) / u * 100.0);
    let modelled = model::layer_seconds(w, &|name| found.get(name).copied());
    let total = modelled.map(|layers| layers.iter().sum::<f64>());
    put(&mut found, "bench.trace_overhead_pct", overhead);
    put(&mut found, "bench.model_cpu_s", total);
    put(&mut found, "bench.model_coverage", total.zip(median_of(|r| r.cpu_s)).map(|(m, c)| m / c));
    for (i, layer) in model::LAYERS.iter().enumerate() {
        let share = modelled.zip(total).map(|(layers, t)| layers[i] / t);
        put(&mut found, &format!("bench.model_share_{layer}"), share);
    }

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = found.get(name).copied();
            // A smoke run skips the probes knowingly.
            if value.is_none() && !ctx.smoke {
                eprintln!("warning: {}: no value for {name}: reported as null", w.name);
            }
            (name, unit, value)
        })
        .collect())
}

/// The counts that must repeat exactly between jobs of one build
/// (`mcf` excepted: what it prunes depends on which task finds a big
/// clique first).
pub const EXACT_COUNTS: [&str; 2] = ["core.tasks", "core.cache_misses"];

/// The [`EXACT_COUNTS`] of each traced repetition; `None` where the
/// repetition left no `--metrics-json` or the file lacks the name.
pub fn exact_counts(traced: &[Rep]) -> Vec<[Option<f64>; 2]> {
    traced
        .iter()
        .map(|r| {
            let m = r.metrics.as_ref().map(|m| metrics::core_metrics(m, r.cpu_s));
            EXACT_COUNTS.map(|name| m.as_ref()?.iter().find(|(n, ..)| *n == name)?.2)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn a_job_without_metrics_json_has_no_counts_rather_than_no_entry() {
        let rep = |metrics: Option<&str>| Rep {
            wall_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            master_wall_s: 1.0,
            failure: None,
            metrics: metrics.map(|text| Json::parse(text).unwrap()),
        };
        let counted = r#"{"workers": [{"tasks_finished": 5, "cache": {"misses": 2}}]}"#;
        let counts = exact_counts(&[rep(Some(counted)), rep(None), rep(Some("{}"))]);
        assert_eq!(counts, [[Some(5.0), Some(2.0)], [None, None], [None, None]]);
    }
}
