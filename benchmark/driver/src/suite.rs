//! The whole suite: every workload with its fixed number of
//! repetitions, interleaved in rounds so that drift of the host hits
//! all workloads alike; then the traced pass; then the report.

use crate::catalog::{END_TO_END, FAILED_SHARE};
use crate::json::Json;
use crate::measure::{Measured, Samples};
use crate::spans::Recorder;
use crate::tracing::{self, EXACT_COUNTS};
use crate::workloads::{Ctx, Miner, Rep, Workload, FLOOR_WORKLOAD, WORKLOADS};
use crate::{metric_json, print_metric, show, stats, Args};
use std::io;

/// A smoke run does one job each, and a few of the tiny jobs that are
/// the point of their workload.
fn reps(w: &Workload, smoke: bool) -> usize {
    if smoke {
        (w.reps / 10).max(1)
    } else {
        w.reps
    }
}

/// One set of runs: the untraced jobs, where round `r` runs repetition
/// `r` of every workload that still has one to do, then each workload's
/// traced jobs.
fn run_set(ctx: &Ctx, set: &mut [Measured], rec: &mut Recorder) -> io::Result<()> {
    let rounds = set.iter().map(|m| reps(m.w, ctx.smoke)).max().unwrap_or(0);
    let mut no_spans = Recorder::new(false);
    for round in 0..rounds {
        for m in set.iter_mut().filter(|m| round < reps(m.w, ctx.smoke)) {
            m.job(ctx, false, &mut no_spans)?;
        }
        eprintln!("round {}/{rounds} done", round + 1);
    }
    for m in set {
        for _ in 0..if ctx.smoke { 1 } else { m.w.traced_reps } {
            m.job(ctx, true, rec)?;
        }
    }
    Ok(())
}

fn exact_counts_json(traced: &[Rep]) -> Json {
    let counts = tracing::exact_counts(traced);
    Json::obj(
        EXACT_COUNTS
            .iter()
            .enumerate()
            .map(|(i, name)| (*name, Json::Arr(counts.iter().map(|c| Json::num(c[i])).collect()))),
    )
}

/// Median, range, IQR (also as a share of the median) and sample count;
/// with forty samples or more also the highest percentile that still
/// has ten samples beyond it.
fn summary(values: &[f64], unit: &str, bound: f64) -> Json {
    let min = values.iter().copied().reduce(f64::min);
    let max = values.iter().copied().reduce(f64::max);
    let tail = stats::tail_percentile(values.len());
    Json::obj([
        ("unit", Json::Str(unit.into())),
        ("median", Json::num(stats::median(values))),
        ("min", Json::num(min)),
        ("max", Json::num(max)),
        ("iqr", Json::num(stats::iqr(values))),
        ("spread", Json::num(stats::spread(values))),
        ("tail_percentile", Json::num(tail)),
        ("tail", Json::num(tail.and_then(|p| stats::percentile(values, p)))),
        ("n", Json::Num(values.len() as f64)),
        ("bound", Json::Num(bound)),
    ])
}

fn failed_share(set: &Samples) -> f64 {
    set.failed() as f64 / set.reps.len().max(1) as f64
}

fn end_to_end_json(set: &Samples) -> Json {
    let mut fields: Vec<(&str, Json)> = END_TO_END
        .iter()
        .map(|&(name, unit, bound)| (name, summary(&set.values(name), unit, bound)))
        .collect();
    let (name, unit, bound) = FAILED_SHARE;
    fields.insert(3, (name, summary(&[failed_share(set)], unit, bound)));
    Json::obj(fields)
}

fn print_end_to_end(name: &str, set: &Samples) {
    println!("{name}: {} repetitions, {} failed", set.reps.len(), set.failed());
    for &(metric, unit, bound) in &END_TO_END {
        let v = set.values(metric);
        println!(
            "  {metric:<28} {:>14} {unit:<5} iqr {} n {} bound {:.0}%",
            show(stats::median(&v)),
            show(stats::iqr(&v)),
            v.len(),
            bound * 100.0
        );
    }
    println!("  {:<28} {:>14} {}", FAILED_SHARE.0, show(Some(failed_share(set))), FAILED_SHARE.1);
}

/// `--check-repeat`: both sets' medians per workload × metric, their
/// relative difference, each set's IQR, and the verdict against the
/// metric's bound. Returns the rows and whether every row passed.
fn compare(first: &[Measured], second: &[Measured]) -> (Json, bool) {
    let mut rows = Vec::new();
    let mut all_pass = true;
    println!("\nrepeat check: two sets of runs of the same build");
    for (first, second) in first.iter().zip(second) {
        let (name, a, b) = (first.w.name, &first.untraced, &second.untraced);
        // Both sets share one measured set-up, so `setup_s` has nothing
        // to compare.
        for &(metric, unit, bound) in END_TO_END.iter().filter(|m| m.0 != "setup_s") {
            let (va, vb) = (a.values(metric), b.values(metric));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let diff = ma.zip(mb).map(|(x, y)| (y - x).abs() / x);
            let pass = diff.is_some_and(|d| d <= bound);
            all_pass &= pass;
            let verdict = if pass { "PASS" } else { "UNRESOLVED" };
            println!(
                "  {:<18} {metric:<12} a {:>10} (iqr {}) b {:>10} (iqr {}) {unit:<3} diff {:>6.2}% bound {:.0}% {verdict}",
                name,
                show(ma),
                show(stats::iqr(&va)),
                show(mb),
                show(stats::iqr(&vb)),
                diff.unwrap_or(f64::NAN) * 100.0,
                bound * 100.0,
            );
            rows.push(Json::obj([
                ("workload", Json::Str(name.into())),
                ("metric", Json::Str(metric.into())),
                ("a_median", Json::num(ma)),
                ("b_median", Json::num(mb)),
                ("a_iqr", Json::num(stats::iqr(&va))),
                ("b_iqr", Json::num(stats::iqr(&vb))),
                ("relative_difference", Json::num(diff)),
                ("bound", Json::Num(bound)),
                ("verdict", Json::Str(verdict.into())),
            ]));
        }
        let failures = first.failed() + second.failed();
        if failures > 0 {
            println!("  {name:<18} failed_share: {failures} failed repetitions UNRESOLVED");
            all_pass = false;
        }
        all_pass &= counts_repeat(first, second);
    }
    (Json::Arr(rows), all_pass)
}

/// Whether the [`EXACT_COUNTS`] are the same in every traced job of
/// both sets, as they must be (`mcf` excepted). Jobs that left no
/// counts do not count as agreeing.
fn counts_repeat(first: &Measured, second: &Measured) -> bool {
    let counts = [tracing::exact_counts(&first.traced), tracing::exact_counts(&second.traced)];
    let counts = counts.concat();
    let same = !counts.is_empty()
        && counts.iter().all(|c| c.iter().all(Option::is_some) && *c == counts[0]);
    let (verdict, pass) = match (same, first.w.miner) {
        (true, _) => ("yes", true),
        (false, Miner::Mcf) => ("no (not expected to: pruning depends on task order)", true),
        (false, _) => ("NO", false),
    };
    println!("  {:<18} {} repeat exactly: {verdict}", first.w.name, EXACT_COUNTS.join(", "));
    pass
}

pub fn run(args: &Args, ctx: &Ctx) -> io::Result<bool> {
    let mut rec = Recorder::new(true);
    let mut set = Vec::new();
    for w in &WORKLOADS {
        set.push(Measured::prepare(ctx, w, if ctx.smoke { 1 } else { 3 }, &mut rec)?);
    }
    run_set(ctx, &mut set, &mut rec)?;
    let tiny = set.iter().find(|m| m.w.name == FLOOR_WORKLOAD).expect("the floor workload");
    let floor = tracing::floor_numbers(ctx, tiny, &mut rec)?;
    let mut ok = set.iter().all(|m| m.failed() == 0);

    println!(
        "\nseed {}{}",
        ctx.seed,
        if ctx.smoke { " (smoke: 1/10 scale, no probes)" } else { "" }
    );
    let mut workloads_json = Vec::new();
    for m in &set {
        let layer = tracing::per_layer(ctx, m, &floor, &mut rec)?;
        print_end_to_end(m.w.name, &m.untraced);
        layer.iter().for_each(print_metric);
        let per_layer = layer.iter().map(|&(name, unit, value)| (name, metric_json(value, unit)));
        workloads_json.push((
            m.w.name,
            Json::obj([
                ("why", Json::Str(m.w.why.into())),
                ("expected_result", Json::Num(m.expected as f64)),
                ("end_to_end", end_to_end_json(&m.untraced)),
                ("per_layer", Json::obj(per_layer)),
                ("exact_counts", exact_counts_json(&m.traced)),
            ]),
        ));
    }
    let mut report = vec![
        ("seed", Json::Num(ctx.seed as f64)),
        ("smoke", Json::Bool(ctx.smoke)),
        (
            "host_parallelism",
            Json::num(std::thread::available_parallelism().ok().map(|n| n.get() as f64)),
        ),
        ("workloads", Json::obj(workloads_json)),
    ];

    if args.check_repeat {
        // The second set's traced jobs only feed the exact-count check;
        // their spans would double the trace for nothing.
        let mut second: Vec<Measured> = set.iter().map(Measured::again).collect();
        run_set(ctx, &mut second, &mut Recorder::new(false))?;
        let (rows, pass) = compare(&set, &second);
        ok &= pass;
        report.push(("repeat_check", rows));
        report.push((
            "repeat_set_b",
            Json::obj(second.iter().map(|m| (m.w.name, end_to_end_json(&m.untraced)))),
        ));
    }

    std::fs::create_dir_all(&args.out)?;
    std::fs::write(args.out.join("results.json"), Json::obj(report).pretty())?;
    std::fs::write(args.out.join("trace.json"), rec.chrome_trace().pretty())?;
    println!("\nwrote {0}/results.json and {0}/trace.json", args.out.display());
    Ok(ok)
}
