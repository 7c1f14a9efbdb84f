//! All engines — G-thinker and every baseline — must agree on the
//! answers; they may only differ in time and resource usage.

use gthinker_apps::{MaxCliqueApp, TriangleApp};
use gthinker_baselines::arabesque::{
    run_filter_process, ArabesqueMaxClique, ArabesqueTriangles, FilterProcessConfig,
};
use gthinker_baselines::gminer::{gminer_max_clique, gminer_triangle_count, GMinerConfig};
use gthinker_baselines::nscale::{nscale_max_clique, nscale_triangle_count, NScaleConfig};
use gthinker_baselines::nuri::{nuri_max_clique, NuriConfig};
use gthinker_baselines::rstream::{rstream_triangle_count, RStreamConfig};
use gthinker_baselines::vertexcentric::{run_bsp, BspConfig, BspMaxClique, BspTriangleCount};
use gthinker_core::prelude::*;
use gthinker_graph::gen;
use std::sync::Arc;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gthinker-ba-{tag}-{}", std::process::id()))
}

#[test]
fn every_engine_counts_the_same_triangles() {
    let g = gen::barabasi_albert(400, 5, 2);
    let expected = run_job(Arc::new(TriangleApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;

    let bsp = run_bsp(&g, &BspTriangleCount::new(), &BspConfig::default());
    assert_eq!(bsp.result.unwrap(), expected, "vertex-centric");

    let arab = ArabesqueTriangles::new();
    let out = run_filter_process(&g, &arab, &FilterProcessConfig::default());
    assert!(out.completed());
    assert_eq!(arab.count(), expected, "arabesque-like");

    let rs = rstream_triangle_count(&g, &RStreamConfig { dir: tmp("rs"), ..Default::default() });
    assert_eq!(rs.result.unwrap(), expected, "rstream-like");

    let gm = gminer_triangle_count(
        &g,
        &GMinerConfig { dir: tmp("gm-tc"), threads: 2, ..Default::default() },
    );
    assert_eq!(gm.result.unwrap(), expected, "g-miner-like");

    let cfg = NScaleConfig { dir: tmp("ns-tc"), threads: 2, ..Default::default() };
    assert_eq!(nscale_triangle_count(&g, &cfg).0.result.unwrap(), expected, "nscale-like");
}

#[test]
fn every_engine_finds_the_same_max_clique() {
    let base = gen::barabasi_albert(300, 4, 3);
    let (g, planted) = gen::plant_clique(&base, 9, 4);
    let expected = run_job(Arc::new(MaxCliqueApp::default()), &g, &JobConfig::single_machine(2))
        .unwrap()
        .global;
    assert!(expected.len() >= planted.len());

    let bsp = run_bsp(&g, &BspMaxClique::new(), &BspConfig::default());
    assert_eq!(bsp.result.unwrap().len(), expected.len(), "vertex-centric");

    let arab = ArabesqueMaxClique::new(expected.len() + 2);
    let out = run_filter_process(&g, &arab, &FilterProcessConfig::default());
    assert!(out.completed());
    assert_eq!(arab.best().len(), expected.len(), "arabesque-like");

    let gm =
        gminer_max_clique(&g, &GMinerConfig { dir: tmp("gm"), threads: 2, ..Default::default() });
    assert_eq!(gm.result.unwrap().len(), expected.len(), "g-miner-like");

    let nuri = nuri_max_clique(&g, &NuriConfig { dir: tmp("nuri"), ..Default::default() });
    assert_eq!(nuri.result.unwrap().len(), expected.len(), "nuri-like");

    let cfg = NScaleConfig { dir: tmp("ns-mcf"), threads: 2, ..Default::default() };
    assert_eq!(nscale_max_clique(&g, &cfg).0.result.unwrap().len(), expected.len(), "nscale-like");
}

#[test]
fn gthinker_spills_negligible_bytes_compared_to_gminer() {
    // The paper: G-thinker's disk usage is negligible because refills
    // prioritize spilled tasks, whereas G-Miner's disk queue holds
    // every task. Compare disk traffic on the same workload.
    let base = gen::barabasi_albert(500, 6, 4);
    let (g, _) = gen::plant_clique(&base, 10, 5);
    let gt =
        run_job(Arc::new(MaxCliqueApp::with_tau(64)), &g, &JobConfig::single_machine(2)).unwrap();
    let gm = gminer_max_clique(
        &g,
        &GMinerConfig { dir: tmp("spill"), threads: 2, tau: 64, ..Default::default() },
    );
    assert!(gm.completed());
    assert!(
        gm.peak_bytes > gt.total_spill_bytes(),
        "G-Miner wrote {} bytes to its disk queue, G-thinker spilled {}",
        gm.peak_bytes,
        gt.total_spill_bytes()
    );
}
