//! Cross-crate end-to-end tests: every application on every dataset
//! stand-in, checked against independent serial implementations.

use gthinker_apps::serial::triangle::count_triangles;
use gthinker_apps::{MatchingApp, MaxCliqueApp, Pattern, QuasiCliqueApp, TriangleApp};
use gthinker_core::prelude::*;
use gthinker_graph::datasets::{self, DatasetKind};
use gthinker_graph::gen;
use std::sync::Arc;

#[test]
fn triangle_counts_on_all_dataset_standins() {
    for &kind in &DatasetKind::ALL {
        let d = datasets::generate(kind, 0.05);
        let expected = count_triangles(&d.graph);
        let result =
            run_job(Arc::new(TriangleApp), &d.graph, &JobConfig::single_machine(4)).unwrap();
        assert_eq!(result.global, expected, "{}", kind.name());
    }
}

#[test]
fn max_clique_finds_planted_clique_on_all_standins() {
    for &kind in &DatasetKind::ALL {
        let d = datasets::generate(kind, 0.05);
        let result =
            run_job(Arc::new(MaxCliqueApp::default()), &d.graph, &JobConfig::single_machine(4))
                .unwrap();
        assert!(
            result.global.len() >= d.planted_clique.len(),
            "{}: found {} < planted {}",
            kind.name(),
            result.global.len(),
            d.planted_clique.len()
        );
        // Witness is a real clique.
        let c = &result.global;
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert!(d.graph.has_edge(c[i], c[j]));
            }
        }
    }
}

#[test]
fn matching_distributed_agrees_with_brute_force() {
    let g = gen::random_labels(gen::gnp(40, 0.15, 5), 2, 6);
    let pattern = Pattern::triangle(Label(0), Label(0), Label(1));
    // Brute force on the full graph.
    let sg = gthinker_graph::subgraph::Subgraph::from_graph(&g);
    let expected =
        gthinker_apps::serial::matching::count_embeddings_brute(&sg.to_local(), &pattern);
    let result = run_job(
        Arc::new(MatchingApp::new(pattern, g.labels().unwrap().to_vec())),
        &g,
        &JobConfig::cluster(3, 2),
    )
    .unwrap();
    assert_eq!(result.global, expected);
}

#[test]
fn quasi_cliques_distributed_agree_with_brute_force() {
    let g = gen::gnp(14, 0.3, 8);
    let sg = gthinker_graph::subgraph::Subgraph::from_graph(&g);
    let expected =
        gthinker_apps::serial::quasi::count_quasi_cliques_brute(&sg.to_local(), 0.6, 3, 5);
    let result =
        run_job(Arc::new(QuasiCliqueApp::new(0.6, 3, 5)), &g, &JobConfig::cluster(2, 2)).unwrap();
    assert_eq!(result.global, expected);
}

#[test]
fn spilling_path_preserves_results() {
    // Spills happen when add_task bursts overflow Q_task: MCF with a
    // tiny τ decomposes every top-level task into many children, and
    // C = 2 (capacity 6) cannot absorb them.
    let base = gen::gnp(120, 0.2, 12);
    let (g, planted) = gen::plant_clique(&base, 9, 13);
    let mut cfg = JobConfig::single_machine(2);
    cfg.task_batch = 2;
    let result = run_job(Arc::new(MaxCliqueApp::with_tau(6)), &g, &cfg).unwrap();
    assert!(result.global.len() >= planted.len());
    assert!(
        result.total_spill_bytes() > 0,
        "τ=6 decomposition with C=2 must have spilled at least one batch"
    );
}

#[test]
fn decomposition_under_pressure_is_correct() {
    // τ = 8 forces MCF to decompose nearly every top-level task, and a
    // small cache forces constant GC, together stressing the whole
    // pipeline.
    let base = gen::gnp(200, 0.15, 21);
    let (g, planted) = gen::plant_clique(&base, 9, 22);
    let mut cfg = JobConfig::cluster(3, 2);
    cfg.cache.capacity = 64;
    cfg.cache.num_buckets = 16;
    let result = run_job(Arc::new(MaxCliqueApp::with_tau(8)), &g, &cfg).unwrap();
    assert!(result.global.len() >= planted.len());
}
