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

use crate::adj::AdjList;
use crate::graph::Graph;
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
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut any = false;
    for_each_edge_text(reader, &mut |u, v| {
        any = true;
        max_id = max_id.max(u.0).max(v.0);
        edges.push((u, v));
        Ok(())
    })?;
    let n = if any { max_id as usize + 1 } else { 0 };
    Ok(Graph::from_edges(n, &edges))
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
    let buf = BufReader::new(reader);
    let mut rows: Vec<(u32, Option<Label>, Vec<VertexId>)> = Vec::new();
    let mut max_id: u32 = 0;
    let mut labeled = false;
    for (lineno, line) in buf.lines().enumerate() {
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
        let mut nbrs = Vec::with_capacity(count);
        let mut dropped_loops = 0usize;
        for tok in it {
            let u = tok.parse::<u32>().map_err(|_| err())?;
            max_id = max_id.max(u);
            if u == v {
                dropped_loops += 1; // lenient: drop self-loops (see module docs)
                continue;
            }
            nbrs.push(VertexId(u));
        }
        // The declared count covers the list as written, including any
        // self-loops we just dropped.
        if nbrs.len() + dropped_loops != count {
            return Err(err());
        }
        max_id = max_id.max(v);
        rows.push((v, label, nbrs));
    }
    if rows.is_empty() {
        return Ok(Graph::with_vertices(0));
    }
    let n = max_id as usize + 1;
    let mut adj = vec![AdjList::new(); n];
    let mut seen = vec![false; n];
    let mut labels = vec![Label::default(); n];
    for (v, label, nbrs) in rows {
        if seen[v as usize] {
            return Err(LoadError::parse(0, format!("vertex {v} defined on more than one line")));
        }
        seen[v as usize] = true;
        adj[v as usize] = AdjList::from_unsorted(nbrs);
        if let Some(l) = label {
            labels[v as usize] = l;
        }
    }
    let g = Graph::from_adjacency(adj);
    Ok(if labeled { g.with_labels(labels) } else { g })
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
    let mut u32buf = [0u8; 4];
    let mut adj = Vec::with_capacity(n);
    for v in 0..n {
        r.read_exact(&mut u32buf)?;
        let deg = u32::from_le_bytes(u32buf) as usize;
        let mut nbrs = Vec::with_capacity(deg.min(1 << 20));
        for _ in 0..deg {
            r.read_exact(&mut u32buf)?;
            nbrs.push(VertexId(u32::from_le_bytes(u32buf)));
        }
        if nbrs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(bad("unsorted or duplicate adjacency"));
        }
        if nbrs.binary_search(&VertexId(v as u32)).is_ok() {
            return Err(bad("self-loop in adjacency"));
        }
        adj.push(AdjList::from_sorted(nbrs));
    }
    let g = Graph::from_adjacency(adj);
    if labeled {
        let mut labels = Vec::with_capacity(n);
        let mut u16buf = [0u8; 2];
        for _ in 0..n {
            r.read_exact(&mut u16buf)?;
            labels.push(Label(u16::from_le_bytes(u16buf)));
        }
        Ok(g.with_labels(labels))
    } else {
        Ok(g)
    }
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
    let result = if path.extension().is_some_and(|e| e == "bel") {
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
        let dir = std::env::temp_dir().join(format!("gthinker-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.el");
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
        let dir = std::env::temp_dir().join(format!("gthinker-bel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.bel");
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
