//! Property-based tests for the graph substrate.

use gthinker_graph::adj::{count_intersect_sorted, intersect_sorted, AdjList};
use gthinker_graph::compressed::{write_compressed, CompressedGraph};
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::VertexId;
use gthinker_graph::load;
use gthinker_graph::partition::HashPartitioner;
use gthinker_graph::stats::GraphStats;
use gthinker_graph::store::AdjacencyStore;
use gthinker_graph::subgraph::Subgraph;
use gthinker_graph::vbyte;
use proptest::prelude::*;
use std::sync::Arc;

fn ids(v: Vec<u32>) -> Vec<VertexId> {
    v.into_iter().map(VertexId).collect()
}

/// Bytes the single-run record layout would take — one count, the first
/// neighbor as a zig-zagged delta from the owner, ascending gaps after
/// it — which is the yardstick for the owner-split layout's size.
fn single_run_len(v: u32, nbrs: &[VertexId]) -> usize {
    let mut len = vbyte::varint_len(nbrs.len() as u64);
    if let Some(first) = nbrs.first() {
        let delta = i64::from(first.0) - i64::from(v);
        len += vbyte::varint_len(((delta << 1) ^ (delta >> 63)) as u64);
    }
    len + nbrs.windows(2).map(|w| vbyte::varint_len(u64::from(w[1].0 - w[0].0) - 1)).sum::<usize>()
}

#[test]
fn owner_split_costs_at_most_the_shorter_runs_count() {
    // The worst case: 128 neighbors on each side, so both counts take
    // two bytes where the one count took two, and gaps of 129 next to the
    // owner, so neither the lost sign bit nor the split gap saves a byte.
    let v = 1_000_000u32;
    let below = (0..128).rev().map(|i| v - 129 - 2 * i);
    let above = (0..128).map(|i| v + 129 + 2 * i);
    let nbrs = ids(below.chain(above).collect());
    let mut buf = Vec::new();
    vbyte::encode_adjacency(VertexId(v), &nbrs, &mut buf);
    assert_eq!(vbyte::decode_adjacency(VertexId(v), &buf).unwrap(), nbrs);
    assert_eq!(buf.len(), single_run_len(v, &nbrs) + vbyte::varint_len(128));
}

/// Three probes against a long list just short of, at and past the
/// length where `long / 32 > short` switches the count to galloping.
#[test]
fn count_intersect_agrees_on_both_sides_of_the_galloping_threshold() {
    let short = ids(vec![5, 64, 200]);
    for len in [3u32, 95, 96, 127, 128, 129, 400] {
        let long: Vec<VertexId> = (0..len).map(|i| VertexId(i * 2)).collect();
        let want = short.iter().filter(|v| long.contains(v)).count();
        assert_eq!(count_intersect_sorted(&short, &long), want, "long = {len}");
        assert_eq!(count_intersect_sorted(&long, &short), want, "long = {len}, swapped");
    }
}

proptest! {
    #[test]
    fn count_intersect_matches_a_naive_filter(
        a in proptest::collection::vec(0u32..3000, 0..40),
        b in proptest::collection::vec(0u32..3000, 0..1400),
    ) {
        // Up to 40 against up to 1400: merged or galloped, case by case.
        let (la, lb) = (AdjList::from_unsorted(ids(a)), AdjList::from_unsorted(ids(b)));
        let (a, b) = (la.as_slice(), lb.as_slice());
        let want = a.iter().filter(|v| b.contains(v)).count();
        prop_assert_eq!(count_intersect_sorted(a, b), want);
        prop_assert_eq!(count_intersect_sorted(b, a), want);
        prop_assert_eq!(count_intersect_sorted(a, a), a.len(), "equal lists");
        prop_assert_eq!(count_intersect_sorted(b, b), b.len(), "equal lists");
        prop_assert_eq!(count_intersect_sorted(a, &[]), 0);
        prop_assert_eq!(count_intersect_sorted(&[], b), 0);
        let even: Vec<VertexId> = a.iter().map(|v| VertexId(v.0 * 2)).collect();
        let odd: Vec<VertexId> = b.iter().map(|v| VertexId(v.0 * 2 + 1)).collect();
        prop_assert_eq!(count_intersect_sorted(&even, &odd), 0, "disjoint lists");
    }

    #[test]
    fn intersect_matches_naive_set_intersection(
        a in proptest::collection::vec(0u32..200, 0..60),
        b in proptest::collection::vec(0u32..200, 0..60),
    ) {
        let la = AdjList::from_unsorted(ids(a.clone()));
        let lb = AdjList::from_unsorted(ids(b.clone()));
        let fast = intersect_sorted(la.as_slice(), lb.as_slice());
        let sa: std::collections::BTreeSet<u32> = a.into_iter().collect();
        let sb: std::collections::BTreeSet<u32> = b.into_iter().collect();
        let naive: Vec<VertexId> = sa.intersection(&sb).map(|&x| VertexId(x)).collect();
        prop_assert_eq!(fast.clone(), naive);
        prop_assert_eq!(count_intersect_sorted(la.as_slice(), lb.as_slice()), fast.len());
    }

    #[test]
    fn greater_than_is_strict_and_complete(
        a in proptest::collection::vec(0u32..100, 0..50),
        pivot in 0u32..100,
    ) {
        let l = AdjList::from_unsorted(ids(a));
        let suffix = l.greater_than(VertexId(pivot));
        for &u in suffix {
            prop_assert!(u > VertexId(pivot));
        }
        let below = l.degree() - suffix.len();
        prop_assert_eq!(l.iter().filter(|&u| u <= VertexId(pivot)).count(), below);
    }

    #[test]
    fn from_edges_graph_is_undirected_and_loop_free(
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(40, &pairs);
        prop_assert!(g.validate_undirected().is_ok());
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
        }
        // Degree sum is twice the edge count.
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn edge_list_round_trips_any_graph(
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(30, &pairs);
        let mut buf = Vec::new();
        load::write_edge_list(&g, &mut buf).unwrap();
        let g2 = load::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn adjacency_format_round_trips(
        edges in proptest::collection::vec((0u32..25, 0u32..25), 1..60),
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(25, &pairs);
        let mut buf = Vec::new();
        load::write_adjacency(&g, &mut buf).unwrap();
        let g2 = load::read_adjacency(buf.as_slice()).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn partitioner_assigns_every_vertex_exactly_once(
        n in 1usize..500,
        workers in 1u16..16,
    ) {
        let p = HashPartitioner::new(workers);
        let mut sizes = vec![0usize; workers as usize];
        for v in (0..n as u32).map(VertexId) {
            sizes[p.owner(v).index()] += 1;
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
    }

    #[test]
    fn subgraph_to_local_preserves_edge_count(
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(20, &pairs);
        // Build a subgraph holding the whole graph, one-directional.
        let mut sg = Subgraph::new();
        for v in g.vertices() {
            sg.add_vertex(v, AdjList::from_sorted(g.neighbors(v).greater_than(v).to_vec()));
        }
        prop_assert_eq!(sg.num_edges(), g.num_edges());
        let local = sg.to_local();
        prop_assert_eq!(local.num_edges(), g.num_edges());
        // Every edge survives with the same endpoints (via global IDs).
        for (u, v) in g.edges() {
            prop_assert!(sg.has_edge(u, v));
        }
    }

    #[test]
    fn local_id_inverts_global_id_on_members_and_is_none_off_them(
        members in proptest::collection::vec(0u32..200, 0..40),
        probes in proptest::collection::vec(0u32..220, 0..40),
    ) {
        // Inserted in descending order: the snapshot renumbers by ID.
        let members: std::collections::BTreeSet<u32> = members.into_iter().collect();
        let mut sg = Subgraph::new();
        for &v in members.iter().rev() {
            sg.add_vertex(VertexId(v), AdjList::new());
        }
        let local = sg.to_local();
        for i in 0..local.num_vertices() as u32 {
            prop_assert_eq!(local.local_id(local.global_id(i)), Some(i));
        }
        for v in probes {
            let found = local.local_id(VertexId(v));
            prop_assert_eq!(found.is_some(), members.contains(&v));
            if let Some(i) = found {
                prop_assert_eq!(local.global_id(i), VertexId(v));
            }
        }
    }

    #[test]
    fn varint_round_trips_any_u64(value in any::<u64>()) {
        let mut buf = Vec::new();
        vbyte::write_varint(value, &mut buf);
        prop_assert_eq!(buf.len(), vbyte::varint_len(value));
        let mut pos = 0;
        prop_assert_eq!(vbyte::read_varint(&buf, &mut pos).unwrap(), value);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn adjacency_codec_round_trips_at_every_owner_position(
        v in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        shape in 0usize..4,
        offsets in proptest::collection::vec(1u32..5000, 0..100),
        extremes in any::<bool>(),
    ) {
        // Neighbors are laid out relative to the owner: none, all below,
        // all above, or straddling it; `extremes` adds vertex 0 and
        // vertex u32::MAX, the widest gaps either run can hold.
        let mut raw: Vec<u32> = offsets
            .iter()
            .enumerate()
            .filter_map(|(i, &off)| match shape {
                0 => None,
                1 => v.checked_sub(off),
                2 => v.checked_add(off),
                _ if i % 2 == 0 => v.checked_sub(off),
                _ => v.checked_add(off),
            })
            .collect();
        if extremes {
            raw.extend([0, u32::MAX].into_iter().filter(|&u| u != v));
        }
        raw.sort_unstable();
        raw.dedup();
        let owner = VertexId(v);
        let nbrs: Vec<VertexId> = raw.into_iter().map(VertexId).collect();
        let above = AdjList::from_sorted(nbrs.clone()).greater_than(owner).to_vec();
        let mut buf = Vec::new();
        vbyte::encode_adjacency(owner, &nbrs, &mut buf);
        prop_assert_eq!(vbyte::decode_degree(&buf).unwrap(), nbrs.len());
        prop_assert_eq!(&vbyte::decode_adjacency_above(owner, &buf).unwrap(), &above);
        prop_assert_eq!(&vbyte::decode_adjacency(owner, &buf).unwrap(), &nbrs);
        // The split costs a second count and saves the sign bit of the
        // first delta: never more than the shorter run's count on top of
        // the single-run layout — one byte here, with under 128 neighbors.
        prop_assert!(buf.len() <= single_run_len(v, &nbrs) + 1, "{} bytes", buf.len());
    }

    #[test]
    fn truncated_adjacency_records_error_cleanly(
        v in 0u32..100_000,
        raw in proptest::collection::vec(0u32..100_000, 1..40),
    ) {
        let mut raw = raw;
        raw.retain(|&u| u != v);
        raw.sort_unstable();
        raw.dedup();
        let nbrs: Vec<VertexId> = raw.into_iter().map(VertexId).collect();
        let mut buf = Vec::new();
        vbyte::encode_adjacency(VertexId(v), &nbrs, &mut buf);
        for cut in 0..buf.len() {
            let result = vbyte::decode_adjacency(VertexId(v), &buf[..cut]);
            prop_assert!(result.is_err(), "cut to {} of {} bytes must fail", cut, buf.len());
            // The prefix decoders may succeed on a cut behind what they
            // read; they must not panic.
            let _ = vbyte::decode_adjacency_above(VertexId(v), &buf[..cut]);
            let _ = vbyte::decode_degree(&buf[..cut]);
        }
    }

    #[test]
    fn corrupt_adjacency_bytes_never_panic(
        v in prop_oneof![Just(0u32), Just(u32::MAX), 0u32..1000],
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Arbitrary bytes either decode to something or give a typed
        // error — no panic, no out-of-bounds, and no allocation beyond
        // one ID per input byte.
        let decoded = [
            vbyte::decode_adjacency(VertexId(v), &garbage),
            vbyte::decode_adjacency_above(VertexId(v), &garbage),
        ];
        for list in decoded.into_iter().flatten() {
            prop_assert!(list.len() <= garbage.len());
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
        let _ = vbyte::decode_degree(&garbage);
    }

    #[test]
    fn adjacency_above_is_the_greater_than_suffix_on_every_backend(
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..200),
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(60, &pairs);
        let dir = std::env::temp_dir().join(format!("gthinker-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("above.gtc");
        write_compressed(&g, &path).unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let shared: Arc<dyn AdjacencyStore> = Arc::new(g.clone());
        let backends: [&dyn AdjacencyStore; 3] = [&g, &c, &shared];
        for store in backends {
            for v in g.vertices() {
                let full = store.adjacency(v);
                prop_assert_eq!(store.adjacency_above(v).as_slice(), full.greater_than(v));
            }
        }
    }

    #[test]
    fn compressed_file_round_trips_any_graph(
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..200),
        extra_vertices in 0usize..5,
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(60 + extra_vertices, &pairs);
        let dir = std::env::temp_dir().join(format!("gthinker-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prop.gtc");
        write_compressed(&g, &path).unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(c.num_vertices(), g.num_vertices());
        prop_assert_eq!(c.num_edges() as usize, g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(&c.adjacency(v), g.neighbors(v));
        }
    }

    #[test]
    fn corrupt_compressed_files_error_not_panic(
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..60),
        flip_byte in any::<u8>(),
        flip_frac in 0.0f64..1.0,
    ) {
        let pairs: Vec<(VertexId, VertexId)> =
            edges.iter().map(|&(u, v)| (VertexId(u), VertexId(v))).collect();
        let g = Graph::from_edges(30, &pairs);
        let dir = std::env::temp_dir().join(format!("gthinker-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt-{flip_byte}.gtc"));
        write_compressed(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        if flip_byte != 0 {
            bytes[at] ^= flip_byte;
            prop_assert!(CompressedGraph::from_bytes(bytes).is_err());
        }
    }

    #[test]
    fn gnm_stats_are_consistent(n in 2usize..200, m in 0usize..400) {
        let g = gen::gnm(n, m, 99);
        let s = GraphStats::of(&g);
        prop_assert_eq!(s.num_vertices, n);
        prop_assert_eq!(s.num_edges, g.num_edges());
        prop_assert!(s.degree_p50 <= s.degree_p90);
        prop_assert!(s.degree_p90 <= s.degree_p99);
        prop_assert!(s.degree_p99 <= s.max_degree);
    }
}
