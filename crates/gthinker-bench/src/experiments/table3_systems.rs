//! Table III — running time and peak memory of the three applications
//! (MCF, TC, GM) across systems and datasets.
//!
//! Systems: G-thinker (this reproduction, 4 simulated workers × 2
//! compers), Giraph-like vertex-centric BSP, Arabesque-like
//! filter-process, and the G-Miner-like disk-queue engine. GM
//! (subgraph matching) runs on G-thinker only, matching the paper
//! (Giraph/Arabesque provided only MCF and TC implementations).
//!
//! Budgets reproduce the paper's failure modes: baselines that
//! materialize too much are cut off and reported as OOM or, like the
//! paper's "> 24 hr" cells, as `> budget`, the way Table III reports
//! Giraph and Arabesque on BTC/Friendster. Every baseline engine runs
//! under the time budget, so every row ends at every scale.
//!
//! `cargo run -p gthinker-bench --release -- table3_systems [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::{MatchingApp, MaxCliqueApp, Pattern, TriangleApp};
use gthinker_baselines::arabesque::{
    run_filter_process, ArabesqueMaxClique, ArabesqueTriangles, FilterProcessConfig,
};
use gthinker_baselines::gminer::{gminer_max_clique, gminer_triangle_count, GMinerConfig};
use gthinker_baselines::vertexcentric::{run_bsp, BspConfig, BspMaxClique, BspTriangleCount};
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use gthinker_graph::gen;
use std::sync::Arc;
use std::time::Duration;

/// Memory budget for the in-memory baselines (scaled down with the
/// datasets; the real systems had 64 GB VMs for graphs 1000× larger).
const BASELINE_MEM_BUDGET: u64 = 192 << 20;
/// Time budget standing in for the paper's 24-hour cutoff, at scale 1;
/// like the datasets, it shrinks with the scale.
const TIME_BUDGET: Duration = Duration::from_secs(120);

/// Decomposition threshold used for BOTH task engines (G-thinker and
/// the G-Miner-like baseline). The paper's τ = 40,000 never triggers
/// on 1000×-scaled stand-ins, which would hide the engines' actual
/// architectural difference: decomposed subtasks stay in memory queues
/// on G-thinker but must round-trip the disk queue on G-Miner.
const TAU: usize = 64;

fn gt_config() -> JobConfig {
    JobConfig::cluster(4, 2)
}

pub fn run(scale: f64) {
    println!("Table III — systems × applications × datasets (scale {scale})\n");
    let time_budget = TIME_BUDGET.mul_f64(scale);
    let cell = |elapsed: Duration, peak: u64, status: &str| match status {
        "ok" => format!("{} / {}", fmt_duration(elapsed), fmt_bytes(peak)),
        "timeout" => format!("> {}", fmt_duration(time_budget)),
        failed => format!("{failed} ({})", fmt_duration(elapsed)),
    };
    println!(
        "{:<13} {:<4} | {:>22} | {:>22} | {:>22} | {:>22}",
        "dataset", "app", "Giraph-like", "Arabesque-like", "G-Miner-like", "G-thinker"
    );
    crate::rule(120);

    for &kind in &DatasetKind::ALL {
        let d = generate(kind, scale);
        let g = &d.graph;

        // ---- MCF ----
        let giraph = {
            let out = run_bsp(
                g,
                &BspMaxClique::new(),
                &BspConfig { threads: 2, memory_budget: BASELINE_MEM_BUDGET, time_budget },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let arabesque = {
            let app = ArabesqueMaxClique::new(d.planted_clique.len() + 4);
            let out = run_filter_process(
                g,
                &app,
                &FilterProcessConfig {
                    threads: 2,
                    memory_budget: BASELINE_MEM_BUDGET,
                    time_budget,
                },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let gminer = {
            let out = gminer_max_clique(
                g,
                &GMinerConfig {
                    threads: 2,
                    dir: std::env::temp_dir().join("t3-gm-mcf"),
                    time_budget,
                    tau: TAU,
                    ..Default::default()
                },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let gthinker = {
            let r = run_job(Arc::new(MaxCliqueApp::with_tau(TAU)), g, &gt_config()).unwrap();
            assert!(r.global.len() >= d.planted_clique.len(), "missed the planted clique");
            cell(r.elapsed, r.peak_mem_bytes(), "ok")
        };
        println!(
            "{:<13} {:<4} | {giraph:>22} | {arabesque:>22} | {gminer:>22} | {gthinker:>22}",
            kind.name(),
            "MCF"
        );

        // ---- TC ----
        let giraph = {
            let out = run_bsp(
                g,
                &BspTriangleCount::new(),
                &BspConfig { threads: 2, memory_budget: BASELINE_MEM_BUDGET, time_budget },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let arabesque = {
            let app = ArabesqueTriangles::new();
            let out = run_filter_process(
                g,
                &app,
                &FilterProcessConfig {
                    threads: 2,
                    memory_budget: BASELINE_MEM_BUDGET,
                    time_budget,
                },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let gminer = {
            let out = gminer_triangle_count(
                g,
                &GMinerConfig {
                    threads: 2,
                    dir: std::env::temp_dir().join("t3-gm-tc"),
                    time_budget,
                    ..Default::default()
                },
            );
            cell(out.elapsed, out.peak_bytes, out.status_label())
        };
        let gthinker = {
            let r = run_job(Arc::new(TriangleApp::default()), g, &gt_config()).unwrap();
            cell(r.elapsed, r.peak_mem_bytes(), "ok")
        };
        println!(
            "{:<13} {:<4} | {giraph:>22} | {arabesque:>22} | {gminer:>22} | {gthinker:>22}",
            "", "TC"
        );

        // ---- GM (G-thinker only, like the paper) ----
        let labeled = gen::random_labels(g.clone(), 4, 0x006d_6174_6368 ^ kind.name().len() as u64);
        let gthinker = {
            let app = MatchingApp::new(
                Pattern::triangle(Label(0), Label(1), Label(2)),
                labeled.labels().unwrap().to_vec(),
            );
            let r = run_job(Arc::new(app), &labeled, &gt_config()).unwrap();
            cell(r.elapsed, r.peak_mem_bytes(), "ok")
        };
        println!(
            "{:<13} {:<4} | {:>22} | {:>22} | {:>22} | {gthinker:>22}",
            "", "GM", "n/a", "n/a", "n/a"
        );
        crate::rule(120);
    }
    println!("\ncells: time / peak bytes of the engine's dominant structure; failures as in the paper's table");
}
