//! Task bundling effect — the paper's future-work optimization \[38\]
//! ("bundling tasks of low-degree vertices into big tasks"), proposed
//! to fix the weak 8→16-comper scaling of Table IV(b).
//!
//! Runs the triangle task on a heavy-tailed graph with growing
//! `TriangleApp::bundle` thresholds and reports task counts, network
//! traffic and runtime.
//! On scale-free graphs most vertices are low-degree, so the task
//! count collapses while the answer stays identical.
//!
//! `cargo run -p gthinker-bench --release -- bundling_effect [--scale f]`

use crate::{fmt_bytes, fmt_duration};
use gthinker_apps::TriangleApp;
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;

pub fn run(scale: f64) {
    let n = (30_000.0 * scale) as usize;
    let g = gen::barabasi_albert(n.max(100), 4, 77);
    println!(
        "Bundling effect — TC on a BA graph ({} V, {} E), 4 workers × 2 compers\n",
        g.num_vertices(),
        g.num_edges()
    );
    println!(
        "{:>16} | {:>10} {:>10} {:>12} {:>12} | count",
        "bundle ≤ deg", "wall", "tasks", "net bytes", "misses"
    );
    crate::rule(84);
    let mut reference = None;
    for threshold in [0usize, 2, 8, 32, 128] {
        let app = TriangleApp { bundle: threshold, list: false };
        let r = run_job(Arc::new(app), &g, &JobConfig::cluster(4, 2)).unwrap();
        let count = *reference.get_or_insert(r.global);
        assert_eq!(r.global, count, "bundling changed the answer!");
        let misses: u64 = r.metrics.totals().cache.misses;
        println!(
            "{threshold:>16} | {:>10} {:>10} {:>12} {:>12} | {}",
            fmt_duration(r.elapsed),
            r.total_tasks(),
            fmt_bytes(r.total_net_bytes()),
            misses,
            r.global
        );
    }
    println!("\nlarger thresholds collapse the low-degree task tail into few bundled tasks");
}
