//! Partition reads: for every in-RAM format, what a worker reads of a
//! file is exactly the whole-graph read filtered to that worker's
//! vertices — the lists, their order, `|V|` and the labels — and a
//! malformed record fails every worker's read the way it fails the
//! whole-graph read.

use gthinker_graph::adj::AdjList;
use gthinker_graph::gen;
use gthinker_graph::graph::Graph;
use gthinker_graph::ids::{Label, VertexId};
use gthinker_graph::load::{self, Format, LoadError, Partition};
use gthinker_graph::partition::HashPartitioner;
use std::path::{Path, PathBuf};

/// A labeled BA graph with isolated vertices: every third ID, and the
/// last three.
fn graph() -> Graph {
    let ba = gen::barabasi_albert(150, 3, 21);
    let spread = |v: VertexId| VertexId(v.0 + v.0 / 2);
    let n = spread(VertexId(ba.num_vertices() as u32)).index() + 3;
    let edges: Vec<_> = ba.edges().map(|(u, v)| (spread(u), spread(v))).collect();
    gen::random_labels(Graph::from_edges(n, &edges), 4, 5)
}

/// A scratch directory, removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Dir {
        let dir =
            std::env::temp_dir().join(format!("gthinker-partitions-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    /// `g` written as `graph.<ext>`, one file per in-RAM format.
    fn write_all(&self, g: &Graph) -> Vec<PathBuf> {
        let file = |ext: &str| {
            let path = self.0.join(format!("graph.{ext}"));
            (std::fs::File::create(&path).unwrap(), path)
        };
        let (f, bin) = file("bin");
        load::write_binary(g, f).unwrap();
        let (f, adj) = file("adj");
        load::write_adjacency(g, f).unwrap();
        let (f, el) = file("el");
        load::write_edge_list(g, f).unwrap();
        let bel = self.0.join("graph.bel");
        let mut w = load::EdgeFileWriter::create(&bel).unwrap();
        for (u, v) in g.edges() {
            w.edge(u, v).unwrap();
        }
        w.finish().unwrap();
        vec![bin, adj, el, bel]
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn whole(path: &Path) -> Result<Graph, LoadError> {
    load::read_graph(Format::of(path), std::fs::File::open(path)?).map_err(|e| e.in_file(path))
}

/// The `(v, label)` pairs a read's finish hook saw, in order.
type Finished = Vec<(VertexId, Option<Label>)>;

/// Worker `w`'s read of `path` among `workers`, and what its finish
/// hook saw.
fn read(path: &Path, workers: u16, w: usize) -> Result<(Partition, Finished), LoadError> {
    let owner = HashPartitioner::new(workers);
    let mut finished = Vec::new();
    let part = load::read_partition_file(
        path,
        |v| owner.owner(v).index() == w,
        |v, label, _| finished.push((v, label)),
    )?;
    Ok((part, finished))
}

#[test]
fn each_worker_reads_its_share_of_the_whole_graph_read() {
    let g = graph();
    let dir = Dir::new("shares");
    for path in dir.write_all(&g) {
        let whole = whole(&path).unwrap();
        match Format::of(&path) {
            // The adjacency formats carry every vertex and the labels.
            Format::Binary | Format::Adjacency => {
                assert_eq!(whole.num_vertices(), g.num_vertices(), "{path:?}");
                assert_eq!(whole.labels(), g.labels(), "{path:?}");
            }
            // An edge list ends at its largest endpoint and has no labels.
            Format::EdgeList | Format::EdgeBinary => {
                let last = g.vertices().filter(|&v| g.degree(v) > 0).last().unwrap();
                assert_eq!(whole.num_vertices(), last.index() + 1, "{path:?}");
                assert!(!whole.is_labeled(), "{path:?}");
            }
        }
        for v in whole.vertices() {
            assert_eq!(whole.neighbors(v), g.neighbors(v), "{path:?}: Γ({v})");
        }
        for workers in 1..=3u16 {
            let owner = HashPartitioner::new(workers);
            let mut union: Vec<(VertexId, AdjList)> = Vec::new();
            for w in 0..workers as usize {
                let what = format!("{path:?}, worker {w} of {workers}");
                let (part, finished) = read(&path, workers, w).unwrap();
                let owned: Vec<VertexId> =
                    whole.vertices().filter(|&v| owner.owner(v).index() == w).collect();
                let want: Vec<(VertexId, AdjList)> =
                    owned.iter().map(|&v| (v, whole.neighbors(v).clone())).collect();
                assert_eq!(part.num_vertices, whole.num_vertices(), "{what}");
                assert_eq!(part.labels.as_deref(), whole.labels(), "{what}");
                assert_eq!(part.records, want, "{what}");
                let labels: Vec<_> = owned.iter().map(|&v| (v, whole.label(v))).collect();
                assert_eq!(finished, labels, "{what}: each kept list finished once, labeled");
                union.extend(part.records);
            }
            union.sort_unstable_by_key(|&(v, _)| v);
            let all: Vec<_> = whole.vertices().map(|v| (v, whole.neighbors(v).clone())).collect();
            assert_eq!(union, all, "{path:?}: the {workers} partitions are the graph");
        }
    }
}

#[test]
fn a_corrupt_record_fails_every_workers_read_as_it_fails_the_whole_read() {
    let g = graph();
    let owner = HashPartitioner::new(2);
    // A vertex worker 1 owns, whose last two neighbors can be swapped.
    let x = g
        .vertices()
        .find(|&v| owner.owner(v).index() == 1 && g.neighbors(v).greater_than(v).len() >= 2)
        .expect("a worker-1 vertex with two larger neighbors");
    let dir = Dir::new("corrupt");
    for path in dir.write_all(&g) {
        let mut bytes = std::fs::read(&path).unwrap();
        match Format::of(&path) {
            Format::Binary => {
                // Swap x's last two neighbors: no longer ascending.
                let at =
                    17 + g.vertices().take(x.index()).map(|v| 4 + 4 * g.degree(v)).sum::<usize>();
                let end = at + 4 + 4 * g.degree(x);
                let (a, b) = (end - 8, end - 4);
                let last = bytes[b..end].to_vec();
                bytes.copy_within(a..b, b);
                bytes[a..b].copy_from_slice(&last);
            }
            Format::Adjacency => {
                let text = String::from_utf8(bytes).unwrap();
                let prefix = format!("{x}:");
                let lines: Vec<String> = text
                    .lines()
                    .map(|l| match l.starts_with(&prefix) {
                        true => format!("{x}\t2 {} banana", x.0 + 2),
                        false => l.to_string(),
                    })
                    .collect();
                bytes = (lines.join("\n") + "\n").into_bytes();
            }
            Format::EdgeList => bytes.extend_from_slice(format!("{x} banana\n").as_bytes()),
            // A torn trailing pair: the edge stream's only record error.
            Format::EdgeBinary => bytes.extend_from_slice(&x.0.to_le_bytes()),
        }
        std::fs::write(&path, &bytes).unwrap();
        let want = whole(&path).expect_err("the whole-graph read fails").to_string();
        for w in 0..2 {
            let got = read(&path, 2, w).map(|_| ()).expect_err("a worker's read fails").to_string();
            assert_eq!(got, want, "{path:?}, worker {w}");
        }
        assert!(want.contains("graph."), "{path:?}: the error names the file: {want}");
    }
}
