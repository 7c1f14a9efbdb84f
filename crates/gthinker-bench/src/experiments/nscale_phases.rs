//! NScale's construct-then-mine dataflow vs G-thinker's overlap (§II).
//!
//! The paper criticizes NScale because "all subgraphs \[must\] be
//! constructed before any of them can begin its mining, leading to
//! poor CPU utilization". This harness makes that visible: for TC and
//! MCF on each dataset stand-in it reports the NScale-like engine's
//! construction phase (mining CPU idle), its mining phase, and its
//! materialized store size — against G-thinker, which never
//! materializes the store at all (tasks construct, mine and discard
//! their own subgraphs concurrently).
//!
//! `cargo run -p gthinker-bench --release -- nscale_phases [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_baselines::nscale::{nscale_max_clique, nscale_triangle_count, NScaleConfig};
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use std::sync::Arc;

pub fn run(scale: f64) {
    println!("NScale-like phases vs G-thinker (1 machine, 4 threads each; scale {scale})\n");
    println!(
        "{:<13} {:<4} | {:>12} {:>12} {:>12} | {:>12} | store",
        "dataset", "app", "construct", "mine", "total", "G-thinker"
    );
    crate::rule(92);
    for &kind in &DatasetKind::ALL {
        let d = generate(kind, scale);
        let cfg = NScaleConfig {
            threads: 4,
            dir: std::env::temp_dir().join("nscale-phases"),
            ..Default::default()
        };
        // TC
        let (out, phases) = nscale_triangle_count(&d.graph, &cfg);
        let gt = run_job(Arc::new(TriangleApp), &d.graph, &JobConfig::single_machine(4)).unwrap();
        if let (Some(count), true) = (out.result, out.completed()) {
            assert_eq!(count, gt.global, "engines disagree");
        }
        let p = phases.expect("completed");
        println!(
            "{:<13} {:<4} | {:>12} {:>12} {:>12} | {:>12} | {}",
            kind.name(),
            "TC",
            fmt_duration(p.construction),
            fmt_duration(p.mining),
            fmt_duration(out.elapsed),
            fmt_duration(gt.elapsed),
            fmt_bytes(out.peak_bytes)
        );
        // MCF
        let (out, phases) = nscale_max_clique(&d.graph, &cfg);
        let gt =
            run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &JobConfig::single_machine(4))
                .unwrap();
        if let Some(found) = &out.result {
            assert_eq!(found.len(), gt.global.len(), "engines disagree");
        }
        let p = phases.expect("completed");
        println!(
            "{:<13} {:<4} | {:>12} {:>12} {:>12} | {:>12} | {}",
            "",
            "MCF",
            fmt_duration(p.construction),
            fmt_duration(p.mining),
            fmt_duration(out.elapsed),
            fmt_duration(gt.elapsed),
            fmt_bytes(out.peak_bytes)
        );
    }
    println!(
        "\nG-thinker materializes no store: construction overlaps mining inside each task\n\
         (its column is total wall-clock including a few ms of job set-up and teardown)"
    );
}
