//! Text and binary loaders/writers for graph files.
//!
//! G-thinker loads its input from HDFS as one `(v, Γ(v))` record per
//! line. We reproduce that format ([`read_adjacency`] /
//! [`write_adjacency`]) plus the ubiquitous SNAP-style edge-list format
//! ([`read_edge_list`] / [`write_edge_list`]), a compact binary
//! adjacency format ([`read_binary`] / [`write_binary`]) and a binary
//! *edge stream* format ([`EdgeFileWriter`] / [`for_each_edge_file`])
//! that the streaming generators write without ever holding the edge
//! list in memory. Lines starting with `#` are comments in both text
//! formats.
//!
//! ## One partition at a time
//!
//! Each [`Format`] has one parser, [`read_partition`]: it reads and
//! validates every record of the file and keeps the `(v, Γ(v))`
//! records of the vertices a `keep` predicate accepts. A worker passes
//! its hash-owner test and so reads only its own partition (§V: each
//! machine loads its part of the input into `T_local`) without ever
//! allocating a list another worker owns. The whole-graph readers are
//! the keep-everything case of the same parser.
//!
//! ## Malformed input policy
//!
//! * Parse failures report the **file name** (when known) and 1-based
//!   line number — never a panic.
//! * **Self-loops** (`u u`) are *dropped* by the lenient text loaders
//!   (real-world SNAP dumps contain them) — consistently in both the
//!   edge-list and adjacency formats. The strict binary formats, which
//!   only our own writers produce, *reject* them as corruption.
//! * **Duplicate edges** collapse in the text loaders; the binary
//!   adjacency format rejects them (its writer never emits any).
//! * A malformed record fails every partition read, whoever owns it,
//!   with the error the whole-graph read gives.

use crate::adj::AdjList;
use crate::graph::Graph;
use crate::hash::FastMap;
use crate::ids::{Label, VertexId};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced while parsing graph files.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A malformed line, with the source file (when known), its 1-based
    /// line number (0 for binary formats) and the offending content.
    Parse { file: Option<String>, line: usize, content: String },
}

impl LoadError {
    fn parse(line: usize, content: impl Into<String>) -> Self {
        LoadError::Parse { file: None, line, content: content.into() }
    }

    /// Attaches the source file name to a parse error (IO errors keep
    /// their own context).
    pub fn in_file(mut self, path: &Path) -> Self {
        if let LoadError::Parse { file, .. } = &mut self {
            *file = Some(path.display().to_string());
        }
        self
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse { file, line, content } => {
                match file {
                    Some(name) => write!(f, "{name}:")?,
                    None => write!(f, "parse error at ")?,
                }
                if *line > 0 {
                    write!(f, "line {line}: ")?;
                }
                write!(f, "{content:?}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<LoadError> for io::Error {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(e) => e,
            parse => io::Error::new(io::ErrorKind::InvalidData, parse.to_string()),
        }
    }
}

/// The on-disk formats [`read_partition`] parses, named by extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// `.bin`: the strict binary adjacency of [`write_binary`].
    Binary,
    /// `.adj`: the paper's `v<TAB>n u1 … un` text adjacency.
    Adjacency,
    /// `.bel`: the binary edge stream of [`EdgeFileWriter`].
    EdgeBinary,
    /// Any other extension (`.el`, `.txt`, …): a text edge list.
    EdgeList,
}

impl Format {
    /// The format the extension of `path` names.
    pub fn of(path: &Path) -> Format {
        match path.extension().and_then(|e| e.to_str()) {
            Some("bin") => Format::Binary,
            Some("adj") => Format::Adjacency,
            Some("bel") => Format::EdgeBinary,
            _ => Format::EdgeList,
        }
    }
}

/// What [`read_partition`] keeps of a graph file.
#[derive(Debug)]
pub struct Partition {
    /// `|V|` of the whole graph.
    pub num_vertices: usize,
    /// `(v, Γ(v))` for every kept `v < num_vertices`, in ascending ID
    /// order; an isolated vertex has an empty list.
    pub records: Vec<(VertexId, AdjList)>,
    /// The whole graph's label table, kept vertices or not, when the
    /// file is labeled.
    pub labels: Option<Vec<Label>>,
}

impl Partition {
    /// The graph of a read that kept every vertex.
    fn into_graph(self) -> Graph {
        let g = Graph::from_adjacency(self.records.into_iter().map(|(_, adj)| adj).collect());
        match self.labels {
            Some(labels) => g.with_labels(labels),
            None => g,
        }
    }
}

type Keep<'a> = &'a dyn Fn(VertexId) -> bool;
type Finish<'a> = &'a mut dyn FnMut(VertexId, Option<Label>, &mut AdjList);

/// Reads a graph in `format`, keeping the records of the vertices
/// `keep` accepts. Every record is parsed and checked whoever keeps it,
/// so a malformed one fails the read with the error the whole-graph
/// reader gives; only kept lists are ever allocated.
///
/// `finish(v, label, Γ(v))` runs once on each kept list, with `v`'s
/// final label, before the list is stored: as soon as it is read where
/// the file has settled every label by then (an unlabeled `.bin`),
/// after the pass otherwise. A caller that trims there holds each
/// untrimmed `.bin` list only while it reads it.
pub fn read_partition<R: Read>(
    format: Format,
    reader: R,
    keep: impl Fn(VertexId) -> bool,
    mut finish: impl FnMut(VertexId, Option<Label>, &mut AdjList),
) -> Result<Partition, LoadError> {
    match format {
        Format::Binary => binary_partition(reader, &keep, &mut finish),
        Format::Adjacency => adjacency_partition(reader, &keep, &mut finish),
        Format::EdgeBinary => {
            edge_partition(|sink| for_each_edge_binary(reader, sink), &keep, &mut finish)
        }
        Format::EdgeList => {
            edge_partition(|sink| for_each_edge_text(reader, sink), &keep, &mut finish)
        }
    }
}

/// [`read_partition`] of the file at `path`, in the format its
/// extension names; parse errors name the file.
pub fn read_partition_file(
    path: &Path,
    keep: impl Fn(VertexId) -> bool,
    finish: impl FnMut(VertexId, Option<Label>, &mut AdjList),
) -> Result<Partition, LoadError> {
    let f = std::fs::File::open(path)?;
    read_partition(Format::of(path), f, keep, finish).map_err(|e| e.in_file(path))
}

/// Reads a whole graph in `format`: [`read_partition`] keeping every
/// vertex.
pub fn read_graph<R: Read>(format: Format, reader: R) -> Result<Graph, LoadError> {
    read_partition(format, reader, |_| true, |_, _, _| {}).map(Partition::into_graph)
}

/// Streams the edges of a whitespace-separated text edge list (`u v`
/// per line) into `sink`. Self-loops are dropped; duplicates pass
/// through. Returns the number of edges delivered.
pub fn for_each_edge_text<R: Read>(
    reader: R,
    sink: &mut dyn FnMut(VertexId, VertexId) -> io::Result<()>,
) -> Result<u64, LoadError> {
    let buf = BufReader::new(reader);
    let mut count = 0u64;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => {
                let parse = |s: &str| {
                    s.parse::<u32>().map_err(|_| LoadError::parse(lineno + 1, line.clone()))
                };
                (parse(a)?, parse(b)?)
            }
            _ => return Err(LoadError::parse(lineno + 1, line)),
        };
        if u == v {
            continue; // lenient: drop self-loops (see module docs)
        }
        sink(VertexId(u), VertexId(v))?;
        count += 1;
    }
    Ok(count)
}

/// Reads a whitespace-separated edge list. Vertex count is `max id + 1`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, LoadError> {
    read_graph(Format::EdgeList, reader)
}

/// The edge-list parser of either stream (text or `.bel`): the lists
/// of kept endpoints grow as their edges go by, and are complete, so
/// finished, only at the end. `|V|` is `max id + 1` over the edges that
/// are not self-loops.
fn edge_partition(
    stream: impl FnOnce(&mut dyn FnMut(VertexId, VertexId) -> io::Result<()>) -> Result<u64, LoadError>,
    keep: Keep<'_>,
    finish: Finish<'_>,
) -> Result<Partition, LoadError> {
    let mut lists: FastMap<VertexId, Vec<VertexId>> = FastMap::default();
    let mut n = 0usize;
    stream(&mut |u, v| {
        n = n.max(u.index().max(v.index()) + 1);
        for (a, b) in [(u, v), (v, u)] {
            if keep(a) {
                lists.entry(a).or_default().push(b);
            }
        }
        Ok(())
    })?;
    let mut records = Vec::new();
    for v in (0..n).map(VertexId::from_index).filter(|&v| keep(v)) {
        let mut nbrs = lists.remove(&v).unwrap_or_default();
        nbrs.shrink_to_fit(); // grown by doubling, edge by edge
        let mut adj = AdjList::from_unsorted(nbrs);
        finish(v, None, &mut adj);
        records.push((v, adj));
    }
    Ok(Partition { num_vertices: n, records, labels: None })
}

/// Writes `g` as an edge list, each undirected edge once.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# edges: {}", g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Reads the G-thinker adjacency format: `v<TAB>n u1 u2 ... un` per line
/// (the layout the paper's HDFS loader parses). Labeled variant:
/// `v:label<TAB>n u1 ...`. Self-loops (`v` listing itself) are dropped;
/// a vertex appearing on two lines is a parse error.
pub fn read_adjacency<R: Read>(reader: R) -> Result<Graph, LoadError> {
    read_graph(Format::Adjacency, reader)
}

/// The adjacency parser: rows may come in any order and a vertex may
/// have none, so kept rows are collected, then finished in ID order
/// once `|V|` and the labels are known.
fn adjacency_partition(
    reader: impl Read,
    keep: Keep<'_>,
    finish: Finish<'_>,
) -> Result<Partition, LoadError> {
    let mut kept: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
    let mut labels: Vec<Label> = Vec::new();
    let mut seen: Vec<bool> = Vec::new();
    let mut duplicate = None;
    let mut max_id: Option<u32> = None;
    let mut labeled = false;
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let err = || LoadError::parse(lineno + 1, line.clone());
        let (head, rest) = t.split_once(char::is_whitespace).ok_or_else(err)?;
        let (v, label) = if let Some((vs, ls)) = head.split_once(':') {
            labeled = true;
            (
                vs.parse::<u32>().map_err(|_| err())?,
                Some(Label(ls.parse::<u16>().map_err(|_| err())?)),
            )
        } else {
            (head.parse::<u32>().map_err(|_| err())?, None)
        };
        let mut it = rest.split_whitespace();
        let count: usize = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let keeps = keep(VertexId(v));
        let mut nbrs = Vec::with_capacity(if keeps { count.min(1 << 20) } else { 0 });
        let mut listed = 0usize;
        let mut top = v;
        for tok in it {
            let u = tok.parse::<u32>().map_err(|_| err())?;
            top = top.max(u);
            listed += 1;
            // Lenient: drop self-loops (see module docs).
            if keeps && u != v {
                nbrs.push(VertexId(u));
            }
        }
        // The declared count covers the list as written, including any
        // self-loops just dropped.
        if listed != count {
            return Err(err());
        }
        max_id = max_id.max(Some(top));
        let i = v as usize;
        if seen.len() <= i {
            seen.resize(i + 1, false);
        }
        if std::mem::replace(&mut seen[i], true) {
            duplicate.get_or_insert(v);
            continue;
        }
        if let Some(l) = label {
            if labels.len() <= i {
                labels.resize(i + 1, Label::default());
            }
            labels[i] = l;
        }
        if keeps {
            kept.push((VertexId(v), nbrs));
        }
    }
    // A parse error anywhere in the file wins over a vertex defined twice.
    if let Some(v) = duplicate {
        return Err(LoadError::parse(0, format!("vertex {v} defined on more than one line")));
    }
    let n = max_id.map_or(0, |m| m as usize + 1);
    let labels = labeled.then(|| {
        labels.resize(n, Label::default());
        labels
    });
    kept.sort_unstable_by_key(|&(v, _)| v);
    let mut rows = kept.into_iter().peekable();
    let mut records = Vec::new();
    for v in (0..n).map(VertexId::from_index).filter(|&v| keep(v)) {
        let nbrs = rows.next_if(|&(u, _)| u == v).map(|(_, nbrs)| nbrs).unwrap_or_default();
        let mut adj = AdjList::from_unsorted(nbrs);
        finish(v, labels.as_ref().map(|l| l[v.index()]), &mut adj);
        records.push((v, adj));
    }
    Ok(Partition { num_vertices: n, records, labels })
}

/// Writes `g` in the adjacency format (labeled if `g` is labeled).
pub fn write_adjacency<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for v in g.vertices() {
        let adj = g.neighbors(v);
        match g.label(v) {
            Some(l) => write!(w, "{v}:{l}\t{}", adj.degree())?,
            None => write!(w, "{v}\t{}", adj.degree())?,
        }
        for u in adj.iter() {
            write!(w, " {u}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Convenience: loads an edge-list file from disk, naming the file in
/// any parse error.
pub fn load_edge_list_file(path: &Path) -> Result<Graph, LoadError> {
    read_edge_list(std::fs::File::open(path)?).map_err(|e| e.in_file(path))
}

/// Convenience: loads a binary adjacency file from disk, naming the
/// file in any parse error.
pub fn load_binary_file(path: &Path) -> Result<Graph, LoadError> {
    read_binary(std::fs::File::open(path)?).map_err(|e| e.in_file(path))
}

/// Magic header of the binary adjacency format.
const BINARY_MAGIC: &[u8; 8] = b"GTHINK01";

/// Writes `g` in a compact binary format (little-endian; much faster
/// to parse than text). Layout: magic, `n: u64`,
/// `labeled: u8`, per-vertex `degree: u32` + neighbor `u32`s, then the
/// label table when labeled.
pub fn write_binary<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&[g.is_labeled() as u8])?;
    for v in g.vertices() {
        let adj = g.neighbors(v);
        w.write_all(&(adj.degree() as u32).to_le_bytes())?;
        for u in adj.iter() {
            w.write_all(&u.0.to_le_bytes())?;
        }
    }
    if let Some(labels) = g.labels() {
        for l in labels {
            w.write_all(&l.0.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Reads the binary format written by [`write_binary`]. Strict: rejects
/// unsorted/duplicate adjacency and self-loops (our writer emits
/// neither, so their presence means corruption).
pub fn read_binary<R: Read>(reader: R) -> Result<Graph, LoadError> {
    read_graph(Format::Binary, reader)
}

/// Neighbor IDs of a binary record read and checked at a time: a
/// corrupt degree word runs into the end of the file instead of
/// allocating its claim.
const BINARY_CHUNK: usize = 4096;

/// The binary parser: records come in ID order, so each kept one is
/// finished as it is read — unless the file is labeled, whose table
/// comes after the records.
fn binary_partition(
    reader: impl Read,
    keep: Keep<'_>,
    finish: Finish<'_>,
) -> Result<Partition, LoadError> {
    let mut r = BufReader::new(reader);
    let bad = |what: &str| LoadError::parse(0, what);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let n = u64::from_le_bytes(u64buf) as usize;
    let mut flag = [0u8; 1];
    r.read_exact(&mut flag)?;
    let labeled = match flag[0] {
        0 => false,
        1 => true,
        _ => return Err(bad("bad label flag")),
    };
    let mut records = Vec::new();
    let mut scratch = Vec::new();
    let mut u32buf = [0u8; 4];
    for v in (0..n).map(VertexId::from_index) {
        r.read_exact(&mut u32buf)?;
        let degree = u32::from_le_bytes(u32buf) as usize;
        if !keep(v) {
            read_binary_record(&mut r, v, degree, &mut scratch, None)?;
            continue;
        }
        let mut nbrs = Vec::with_capacity(degree.min(1 << 20));
        read_binary_record(&mut r, v, degree, &mut scratch, Some(&mut nbrs))?;
        let mut adj = AdjList::from_sorted(nbrs);
        if !labeled {
            finish(v, None, &mut adj);
        }
        records.push((v, adj));
    }
    let labels = if labeled {
        let mut bytes = vec![0u8; 2 * n];
        r.read_exact(&mut bytes)?;
        let labels: Vec<Label> =
            bytes.chunks_exact(2).map(|b| Label(u16::from_le_bytes([b[0], b[1]]))).collect();
        for (v, adj) in &mut records {
            finish(*v, Some(labels[v.index()]), adj);
        }
        Some(labels)
    } else {
        None
    };
    Ok(Partition { num_vertices: n, records, labels })
}

/// Reads the `degree` neighbor IDs of `v`'s binary record through
/// `scratch`, appending them to `out` when there is one, and checks
/// them either way: strictly ascending, then no self-loop (our writer
/// emits neither, so either means corruption).
fn read_binary_record(
    r: &mut impl Read,
    v: VertexId,
    degree: usize,
    scratch: &mut Vec<u8>,
    mut out: Option<&mut Vec<VertexId>>,
) -> Result<(), LoadError> {
    let (mut prev, mut unsorted, mut self_loop) = (-1i64, false, false);
    let mut left = degree;
    while left > 0 {
        let take = left.min(BINARY_CHUNK);
        scratch.resize(4 * take, 0);
        r.read_exact(scratch)?;
        for b in scratch.chunks_exact(4) {
            let u = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            unsorted |= i64::from(u) <= prev;
            self_loop |= u == v.0;
            prev = i64::from(u);
            if let Some(out) = out.as_deref_mut() {
                out.push(VertexId(u));
            }
        }
        left -= take;
    }
    if unsorted {
        return Err(LoadError::parse(0, "unsorted or duplicate adjacency"));
    }
    if self_loop {
        return Err(LoadError::parse(0, "self-loop in adjacency"));
    }
    Ok(())
}

/// Magic header of the binary edge-stream format (`.bel`).
const EDGE_BINARY_MAGIC: &[u8; 8] = b"GTEDGE01";

/// Appends edges to a binary edge-stream file: magic, then `(u, v)`
/// pairs of `u32` little-endian until EOF. The format is what the
/// streaming generators write — sequential, append-only, 8 bytes per
/// edge, no in-memory edge list anywhere.
pub struct EdgeFileWriter {
    w: BufWriter<std::fs::File>,
    count: u64,
}

impl EdgeFileWriter {
    /// Creates (truncates) the file at `path` and writes the magic.
    pub fn create(path: &Path) -> io::Result<EdgeFileWriter> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        w.write_all(EDGE_BINARY_MAGIC)?;
        Ok(EdgeFileWriter { w, count: 0 })
    }

    /// Appends one edge.
    pub fn edge(&mut self, u: VertexId, v: VertexId) -> io::Result<()> {
        self.w.write_all(&u.0.to_le_bytes())?;
        self.w.write_all(&v.0.to_le_bytes())?;
        self.count += 1;
        Ok(())
    }

    /// Flushes and returns the number of edges written.
    pub fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        Ok(self.count)
    }
}

/// Streams the edges of a binary edge-stream file into `sink`.
/// Self-loops are dropped (same lenient policy as the text loader); a
/// trailing partial pair is a clean parse error.
pub fn for_each_edge_binary<R: Read>(
    reader: R,
    sink: &mut dyn FnMut(VertexId, VertexId) -> io::Result<()>,
) -> Result<u64, LoadError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != EDGE_BINARY_MAGIC {
        return Err(LoadError::parse(0, "bad magic: not a GTEDGE01 edge stream"));
    }
    let mut pair = [0u8; 8];
    let mut count = 0u64;
    loop {
        // Byte-exact fill so clean EOF (0 bytes) and a torn trailing
        // pair (1..7 bytes) are distinguishable.
        let mut got = 0usize;
        while got < 8 {
            match r.read(&mut pair[got..]) {
                Ok(0) => break,
                Ok(k) => got += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if got == 0 {
            return Ok(count);
        }
        if got < 8 {
            return Err(LoadError::parse(0, "truncated edge pair at end of file"));
        }
        let u = u32::from_le_bytes(pair[..4].try_into().unwrap());
        let v = u32::from_le_bytes(pair[4..].try_into().unwrap());
        if u == v {
            continue;
        }
        sink(VertexId(u), VertexId(v))?;
        count += 1;
    }
}

/// Streams every edge of the file at `path` into `sink`, dispatching on
/// extension: `.bel` is the binary edge stream, anything else is the
/// text edge list. Parse errors name the file.
pub fn for_each_edge_file(
    path: &Path,
    sink: &mut dyn FnMut(VertexId, VertexId) -> io::Result<()>,
) -> Result<u64, LoadError> {
    let f = std::fs::File::open(path)?;
    let result = if Format::of(path) == Format::EdgeBinary {
        for_each_edge_binary(f, sink)
    } else {
        for_each_edge_text(f, sink)
    };
    result.map_err(|e| e.in_file(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::testing::TempPath;

    #[test]
    fn edge_list_round_trip() {
        let g = gen::gnp(60, 0.1, 4);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    #[test]
    fn adjacency_round_trip_unlabeled() {
        let g = gen::barabasi_albert(80, 2, 5);
        let mut buf = Vec::new();
        write_adjacency(&g, &mut buf).unwrap();
        let g2 = read_adjacency(buf.as_slice()).unwrap();
        assert!(!g2.is_labeled());
        assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    #[test]
    fn adjacency_round_trip_labeled() {
        let g = gen::random_labels(gen::gnp(40, 0.15, 6), 5, 7);
        let mut buf = Vec::new();
        write_adjacency(&g, &mut buf).unwrap();
        let g2 = read_adjacency(buf.as_slice()).unwrap();
        assert!(g2.is_labeled());
        for v in g.vertices() {
            assert_eq!(g.label(v), g2.label(v));
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_lines_reported_with_position() {
        let text = "0 1\nbogus\n";
        match read_edge_list(text.as_bytes()) {
            Err(LoadError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let text2 = "0\tx 1 2\n"; // degree field is not a number
        assert!(matches!(read_adjacency(text2.as_bytes()), Err(LoadError::Parse { line: 1, .. })));
    }

    #[test]
    fn parse_errors_name_the_file() {
        let path = TempPath::new("load", "broken.el");
        std::fs::write(&path, "0 1\n7 banana\n").unwrap();
        let err = load_edge_list_file(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken.el"), "missing file name: {msg}");
        assert!(msg.contains("line 2"), "missing line number: {msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn self_loops_dropped_consistently_in_text_formats() {
        // Edge list: 1-1 dropped, 0-1 kept.
        let g = read_edge_list("0 1\n1 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
        // Adjacency: vertex 1 lists itself; the loop is dropped, the
        // real neighbor survives.
        let g = read_adjacency("0\t1 1\n1\t2 0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        g.validate_undirected().unwrap();
    }

    #[test]
    fn duplicate_adjacency_rows_rejected() {
        let err = read_adjacency("0\t1 1\n0\t1 1\n1\t1 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("more than one line"), "{err}");
    }

    #[test]
    fn binary_round_trip_unlabeled() {
        let g = gen::barabasi_albert(300, 4, 8);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        for v in g.vertices() {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
        }
        // Size is deterministic: header + per-vertex records.
        let expected =
            8 + 8 + 1 + g.num_vertices() * 4 + g.vertices().map(|v| 4 * g.degree(v)).sum::<usize>();
        assert_eq!(buf.len(), expected);
    }

    #[test]
    fn binary_round_trip_labeled() {
        let g = gen::random_labels(gen::gnp(50, 0.1, 2), 6, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert!(g2.is_labeled());
        for v in g.vertices() {
            assert_eq!(g2.label(v), g.label(v));
        }
    }

    #[test]
    fn binary_rejects_corruption_and_self_loops() {
        let g = gen::cycle(5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(read_binary(bad.as_slice()).is_err());
        // Truncation.
        assert!(read_binary(&buf[..buf.len() - 3]).is_err());
        // Hand-craft a record with a self-loop: n=1, unlabeled, Γ(0)={0}.
        let mut evil = Vec::new();
        evil.extend_from_slice(b"GTHINK01");
        evil.extend_from_slice(&1u64.to_le_bytes());
        evil.push(0);
        evil.extend_from_slice(&1u32.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        let err = read_binary(evil.as_slice()).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
    }

    #[test]
    fn binary_edge_stream_round_trips() {
        let path = TempPath::new("bel", "edges.bel");
        let mut w = EdgeFileWriter::create(&path).unwrap();
        let written = vec![(0u32, 1u32), (5, 2), (3, 3), (2, 9)]; // (3,3) is a self-loop
        for &(u, v) in &written {
            w.edge(VertexId(u), VertexId(v)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 4);
        let mut got = Vec::new();
        let n = for_each_edge_file(&path, &mut |u, v| {
            got.push((u.0, v.0));
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 3, "self-loop must be dropped");
        assert_eq!(got, vec![(0, 1), (5, 2), (2, 9)]);
        // Torn trailing pair is a clean error naming the file.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.pop();
        std::fs::write(&path, &bytes).unwrap();
        let err = for_each_edge_file(&path, &mut |_, _| Ok(())).unwrap_err();
        assert!(err.to_string().contains("edges.bel"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn text_edge_streaming_matches_loader() {
        let g = gen::gnp(40, 0.2, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let mut streamed = Vec::new();
        let n = for_each_edge_text(buf.as_slice(), &mut |u, v| {
            streamed.push((u, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(n as usize, g.num_edges());
        assert_eq!(streamed, g.edges().collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs_yield_empty_graphs() {
        assert_eq!(read_edge_list("".as_bytes()).unwrap().num_vertices(), 0);
        assert_eq!(read_adjacency("# x\n".as_bytes()).unwrap().num_vertices(), 0);
    }
}
