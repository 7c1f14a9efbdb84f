//! §VI "Comparison with Single-Machine Systems" — RStream and Nuri.
//!
//! The paper: RStream takes 53/283/3713 s for TC on Youtube / Skitter /
//! Orkut where single-machine G-thinker takes 4/30/210 s, and runs out
//! of disk on BTC/Friendster; Nuri (single-threaded) needs >1000 s for
//! MCF on Youtube where G-thinker with 8 threads needs ~9.4 s.
//!
//! `cargo run -p gthinker-bench --release -- table_single_machine [--scale f]`

use crate::{fmt_bytes, fmt_duration, modeled_parallel_time};
use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_baselines::nuri::{nuri_max_clique, NuriConfig};
use gthinker_baselines::rstream::{rstream_triangle_count, RStreamConfig};
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{generate, DatasetKind};
use gthinker_graph::gen;
use std::sync::Arc;

/// Disk budget standing in for the paper's full disks.
const DISK_BUDGET: u64 = 1 << 30;

pub fn run(scale: f64) {
    println!("Single-machine comparison (scale {scale})\n");

    println!("Triangle counting: RStream-like (out-of-core) vs G-thinker (1 machine, 4 compers)");
    println!(
        "{:<14} | {:>26} | {:>26} | {:>8}",
        "dataset", "RStream-like", "G-thinker (1 machine)", "speedup"
    );
    crate::rule(86);
    for &kind in &DatasetKind::ALL {
        let d = generate(kind, scale);
        let rs = rstream_triangle_count(
            &d.graph,
            &RStreamConfig {
                dir: std::env::temp_dir().join("tsm-rstream"),
                disk_budget: DISK_BUDGET,
            },
        );
        let gt = run_job(Arc::new(TriangleApp::default()), &d.graph, &JobConfig::single_machine(4))
            .unwrap();
        let rs_cell = if rs.completed() {
            assert_eq!(rs.result.unwrap(), gt.global, "engines disagree!");
            format!("{} / {} wedges", fmt_duration(rs.elapsed), fmt_bytes(rs.peak_bytes))
        } else {
            format!("{} ({})", rs.status_label(), fmt_bytes(rs.peak_bytes))
        };
        let speedup = if rs.completed() {
            format!("{:.1}×", rs.elapsed.as_secs_f64() / gt.elapsed.as_secs_f64().max(1e-9))
        } else {
            "∞".to_string()
        };
        println!(
            "{:<14} | {:>26} | {:>26} | {:>8}",
            kind.name(),
            rs_cell,
            format!("{} / {}", fmt_duration(gt.elapsed), fmt_bytes(gt.peak_mem_bytes())),
            speedup
        );
    }

    println!(
        "\nMaximum clique: Nuri-like (single-threaded best-first) vs G-thinker (1 machine, 8 compers)\n\
         workload: a dense Youtube-sized G(n, p) core where branch-and-bound has real work"
    );
    println!(
        "{:<14} | {:>26} | {:>16} {:>12} | {:>10}",
        "graph", "Nuri-like", "G-thinker wall", "modeled ∥", "speedup ∥"
    );
    crate::rule(92);
    let n = (1_500.0 * scale) as usize;
    let hard = gen::gnp(n.max(200), 0.1, 0xCAFE);
    let nuri = nuri_max_clique(
        &hard,
        &NuriConfig { dir: std::env::temp_dir().join("tsm-nuri"), ..Default::default() },
    );
    let gt =
        run_job(Arc::new(MaxCliqueApp::default()), &hard, &JobConfig::single_machine(8)).unwrap();
    if let Some(found) = &nuri.result {
        assert_eq!(found.len(), gt.global.len(), "engines disagree!");
    }
    let modeled = modeled_parallel_time(&gt, 8);
    println!(
        "{:<14} | {:>26} | {:>16} {:>12} | {:>10}",
        format!("gnp({}, 0.1)", hard.num_vertices()),
        format!("{} / {} spilled", fmt_duration(nuri.elapsed), fmt_bytes(nuri.peak_bytes)),
        fmt_duration(gt.elapsed),
        fmt_duration(modeled),
        format!("{:.1}×", nuri.elapsed.as_secs_f64() / modeled.as_secs_f64().max(1e-9)),
    );
    println!(
        "\nnote: G-thinker carries a few ms of fixed set-up and teardown per job; at the\n\
         paper's data scales (runs of seconds to hours) it vanishes, and on this single-core\n\
         host the modeled ∥ column is the honest parallel-time comparison (see crate docs)"
    );
}
