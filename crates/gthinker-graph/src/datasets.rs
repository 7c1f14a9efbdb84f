//! Scaled-down synthetic stand-ins for the paper's datasets (Table II).
//!
//! The paper evaluates on Youtube, Skitter, Orkut, BTC and Friendster.
//! Those files are unavailable offline, so each gets a deterministic
//! synthetic stand-in that preserves the property the evaluation leans
//! on: relative size ordering, degree skew (BTC is called out as
//! extremely uneven), density (Orkut/Friendster are dense), and a
//! *planted clique* so maximum-clique finding has a known nontrivial
//! answer (Friendster's real maximum clique has 129 vertices; the
//! stand-in plants one scaled accordingly).
//!
//! All stand-ins scale with a `scale` factor so benches can trade
//! fidelity for runtime.

use crate::gen;
use crate::graph::Graph;
use crate::ids::VertexId;

/// Which paper dataset a stand-in mimics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatasetKind {
    /// Youtube social network: smallest, moderately sparse.
    Youtube,
    /// Skitter internet topology: mid-size, moderate density.
    Skitter,
    /// Orkut social network: dense.
    Orkut,
    /// BTC semantic graph: large with extremely uneven degrees.
    Btc,
    /// Friendster social network: largest and densest.
    Friendster,
}

impl DatasetKind {
    /// All five stand-ins in the paper's Table II order.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Youtube,
        DatasetKind::Skitter,
        DatasetKind::Orkut,
        DatasetKind::Btc,
        DatasetKind::Friendster,
    ];

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Youtube => "youtube-s",
            DatasetKind::Skitter => "skitter-s",
            DatasetKind::Orkut => "orkut-s",
            DatasetKind::Btc => "btc-s",
            DatasetKind::Friendster => "friendster-s",
        }
    }

    /// The real dataset's `(|V|, |E|)` from the paper, for reporting
    /// alongside the stand-in's numbers.
    pub fn paper_size(self) -> (u64, u64) {
        match self {
            DatasetKind::Youtube => (1_134_890, 2_987_624),
            DatasetKind::Skitter => (1_696_415, 11_095_298),
            DatasetKind::Orkut => (3_072_441, 117_184_899),
            DatasetKind::Btc => (164_660_997, 772_822_094),
            DatasetKind::Friendster => (65_608_366, 1_806_067_135),
        }
    }
}

/// A generated stand-in dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which paper dataset this mimics.
    pub kind: DatasetKind,
    /// The generated graph.
    pub graph: Graph,
    /// Members of the planted clique (sorted): the known lower bound on
    /// the maximum clique, and in practice the maximum itself because
    /// the background graphs are clique-poor.
    pub planted_clique: Vec<VertexId>,
}

/// Per-dataset generation parameters at `scale == 1.0`.
struct Spec {
    vertices: usize,
    /// Barabási–Albert attachment count — controls density.
    ba_m: usize,
    /// Extra hub overlay: `hubs` vertices each wired to `hub_degree`
    /// random others (models BTC's extreme skew). Zero disables it.
    hubs: usize,
    hub_degree: usize,
    /// Planted clique size.
    clique: usize,
    seed: u64,
}

fn spec(kind: DatasetKind) -> Spec {
    match kind {
        DatasetKind::Youtube => {
            Spec { vertices: 6_000, ba_m: 3, hubs: 0, hub_degree: 0, clique: 12, seed: 0x59_54 }
        }
        DatasetKind::Skitter => {
            Spec { vertices: 9_000, ba_m: 6, hubs: 0, hub_degree: 0, clique: 16, seed: 0x53_4b }
        }
        DatasetKind::Orkut => {
            Spec { vertices: 12_000, ba_m: 18, hubs: 0, hub_degree: 0, clique: 24, seed: 0x4f_52 }
        }
        DatasetKind::Btc => Spec {
            vertices: 20_000,
            ba_m: 3,
            hubs: 12,
            hub_degree: 2_000,
            clique: 10,
            seed: 0x42_54,
        },
        DatasetKind::Friendster => {
            Spec { vertices: 24_000, ba_m: 22, hubs: 0, hub_degree: 0, clique: 32, seed: 0x46_52 }
        }
    }
}

/// Generates the stand-in for `kind` at the given scale factor
/// (`1.0` = the default size used by the bench harness; smaller values
/// shrink vertex counts proportionally for quick tests).
pub fn generate(kind: DatasetKind, scale: f64) -> Dataset {
    assert!(scale > 0.0, "scale must be positive");
    let s = spec(kind);
    let n = ((s.vertices as f64 * scale) as usize).max(s.ba_m + 2).max(64);
    let clique = s.clique.min(n / 4).max(4);
    let mut g = gen::barabasi_albert(n, s.ba_m, s.seed);
    if s.hubs > 0 {
        g = overlay_hubs(&g, s.hubs, s.hub_degree.min(n / 2), s.seed ^ 0xdead_beef);
    }
    let (graph, planted_clique) = gen::plant_clique(&g, clique, s.seed ^ 0x5eed);
    Dataset { kind, graph, planted_clique }
}

/// Wires `hubs` extra high-degree vertices into `g` to produce BTC-like
/// degree skew.
fn overlay_hubs(g: &Graph, hubs: usize, hub_degree: usize, seed: u64) -> Graph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    for h in 0..hubs.min(n) {
        let hub = VertexId(h as u32);
        for _ in 0..hub_degree {
            let t = VertexId(rng.gen_range(0..n as u32));
            if t != hub {
                edges.push((hub, t));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn all_kinds_generate_and_validate() {
        for &k in &DatasetKind::ALL {
            let d = generate(k, 0.1);
            d.graph.validate_undirected().unwrap();
            assert!(d.graph.num_vertices() >= 64, "{} too small", k.name());
            assert!(!d.planted_clique.is_empty());
        }
    }

    #[test]
    fn planted_clique_is_complete() {
        let d = generate(DatasetKind::Youtube, 0.2);
        let c = &d.planted_clique;
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert!(d.graph.has_edge(c[i], c[j]));
            }
        }
    }

    #[test]
    fn density_ordering_matches_paper() {
        // Orkut/Friendster stand-ins must be denser than Youtube's.
        let yt = GraphStats::of(&generate(DatasetKind::Youtube, 0.2).graph);
        let ok = GraphStats::of(&generate(DatasetKind::Orkut, 0.2).graph);
        let fr = GraphStats::of(&generate(DatasetKind::Friendster, 0.2).graph);
        assert!(ok.avg_degree > 2.0 * yt.avg_degree);
        assert!(fr.avg_degree > 2.0 * yt.avg_degree);
        assert!(fr.num_vertices > yt.num_vertices);
    }

    #[test]
    fn btc_standin_is_skewed() {
        let d = generate(DatasetKind::Btc, 0.2);
        let s = GraphStats::of(&d.graph);
        assert!(
            s.max_degree as f64 > 20.0 * s.avg_degree,
            "BTC stand-in lacks skew: max {} avg {}",
            s.max_degree,
            s.avg_degree
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetKind::Skitter, 0.1);
        let b = generate(DatasetKind::Skitter, 0.1);
        assert_eq!(a.planted_clique, b.planted_clique);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    #[test]
    fn paper_sizes_reported() {
        let (v, e) = DatasetKind::Friendster.paper_size();
        assert_eq!(v, 65_608_366);
        assert_eq!(e, 1_806_067_135);
    }
}
