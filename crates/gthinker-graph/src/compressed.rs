//! The `GTCGRF02` compressed on-disk graph format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (32 B): magic "GTCGRF02" | n u64 | m u64              │
//! │                flags u8 (bit0 = labeled)                     │
//! │                offset_width u8 (4 or 8) | 6 reserved zeros   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ offset index: (n+1) × offset_width bytes, payload-relative,  │
//! │               offsets[0] = 0, monotone, offsets[n] = |P|     │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payload P: per-vertex record for v = 0..n, split at v        │
//! │   varint(k_gt) varint(k_lt)                                  │
//! │   k_gt × varint(gap − 1)   Γ_>(v), ascending from v          │
//! │   k_lt × varint(gap − 1)   Γ_<(v), descending from v         │
//! ├──────────────────────────────────────────────────────────────┤
//! │ labels: n × u16 (only if flags bit0)                         │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer: CRC32 (u32) of every byte above                     │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`CompressedGraph::open`] memory-maps the file, verifies the CRC and
//! the offset index once (one sequential pass), and thereafter decodes
//! single adjacency lists on demand — the per-vertex record boundary is
//! `payload[offsets[v]..offsets[v+1]]`, so a lookup touches only the
//! pages holding that record. The offset index is fixed-stride on
//! purpose: `offsets[v]` is one mapped read, no auxiliary RAM structure.
//!
//! The record is split at its owner (codec in [`crate::vbyte`]) so that
//! `Γ_>(v)` is a prefix of it: [`CompressedGraph::adjacency_above`]
//! decodes `k_gt` gaps and never touches the rest, which on a
//! degeneracy-ordered graph is the difference between ≤ degeneracy and
//! a hub's whole degree. [`CompressedGraph::adjacency`] fills one
//! exact-size vector from both runs; [`CompressedGraph::degree`] is the
//! two counts.
//!
//! This is the only version a build reads. A `.gtc` file is derived
//! from its source graph by `gthinker graph build`, so a file of
//! another version is rebuilt, not migrated; `open` says so.
//!
//! [`StreamBuilder`] writes the format without ever holding the whole
//! graph: records stream to a temp file while the (n+1)-entry offset
//! table accumulates in RAM, then header/offsets/payload/labels are
//! concatenated through a CRC-tracking writer.

use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::adj::AdjList;
use crate::crc::{crc32, Crc32Writer};
use crate::graph::Graph;
use crate::ids::{Label, VertexId};
use crate::mmap::{Advice, Backing};
use crate::vbyte::{
    decode_adjacency, decode_adjacency_above, decode_degree, encode_adjacency, VbyteError,
};

/// File magic: format name + two-digit version in 8 bytes.
pub const MAGIC: &[u8; 8] = b"GTCGRF02";
/// The format version [`MAGIC`] ends in — the only one this build reads.
pub const FORMAT_VERSION: u32 = (MAGIC[6] - b'0') as u32 * 10 + (MAGIC[7] - b'0') as u32;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;
const FLAG_LABELED: u8 = 0b0000_0001;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Accepts [`MAGIC`] alone. A `.gtc` file of another format version is
/// told apart from a file that is no `.gtc` at all, because the fix
/// differs: it is a derived artifact, so the answer is to rebuild it.
fn check_magic(magic: &[u8]) -> io::Result<()> {
    if magic == MAGIC {
        return Ok(());
    }
    let (name, version) = magic.split_at(6);
    let version = std::str::from_utf8(version).ok().and_then(|v| v.parse::<u32>().ok());
    match version {
        Some(found) if name == &MAGIC[..6] => {
            let whose = if found < FORMAT_VERSION { "an older" } else { "a newer" };
            Err(corrupt(format!(
                "format version {found}, built by {whose} gthinker (this one reads version \
                 {FORMAT_VERSION} only); rebuild it from its source graph: \
                 gthinker graph build IN OUT.gtc"
            )))
        }
        _ => Err(corrupt("bad magic: not a .gtc compressed graph")),
    }
}

/// Summary returned by the writers, consumed by `graph build`/`stats`
/// and the storage bench.
#[derive(Clone, Copy, Debug)]
pub struct CompressedStats {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub payload_bytes: u64,
    pub file_bytes: u64,
    pub offset_width: u8,
    pub labeled: bool,
}

impl CompressedStats {
    /// Mean encoded bytes per directed edge (payload only).
    pub fn bytes_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            return 0.0;
        }
        self.payload_bytes as f64 / (2.0 * self.num_edges as f64)
    }
}

/// Streams a graph into the compressed format vertex-by-vertex.
///
/// `push` must be called exactly once per vertex in ascending ID order
/// with that vertex's sorted adjacency; `finish` assembles the final
/// file. Peak memory is the offset table (`(n+1) × 8` bytes) plus I/O
/// buffers — independent of edge count.
pub struct StreamBuilder {
    out_path: PathBuf,
    tmp_path: PathBuf,
    payload: BufWriter<std::fs::File>,
    offsets: Vec<u64>,
    payload_len: u64,
    degree_sum: u64,
    n: u64,
    labels: Option<Vec<Label>>,
    record: Vec<u8>,
}

impl StreamBuilder {
    /// Starts a build of an `n`-vertex graph at `path`. `labels`, when
    /// given, must hold one entry per vertex.
    pub fn new(path: &Path, n: u64, labels: Option<Vec<Label>>) -> io::Result<StreamBuilder> {
        if let Some(ls) = &labels {
            if ls.len() as u64 != n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{} labels for {n} vertices", ls.len()),
                ));
            }
        }
        let tmp_path = path.with_extension("payload.tmp");
        let payload = BufWriter::new(std::fs::File::create(&tmp_path)?);
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0);
        Ok(StreamBuilder {
            out_path: path.to_path_buf(),
            tmp_path,
            payload,
            offsets,
            payload_len: 0,
            degree_sum: 0,
            n,
            labels,
            record: Vec::new(),
        })
    }

    /// Appends the record for the next vertex (IDs are implicit and
    /// ascending: the k-th call encodes vertex k−1).
    pub fn push(&mut self, neighbors: &[VertexId]) -> io::Result<()> {
        let v = self.offsets.len() as u64 - 1;
        if v >= self.n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("push for vertex {v} beyond declared n = {}", self.n),
            ));
        }
        let v = VertexId(v as u32);
        if neighbors.binary_search(&v).is_ok() {
            // The record is two runs of gaps leading away from v.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("adjacency of vertex {v} holds {v} itself"),
            ));
        }
        self.record.clear();
        encode_adjacency(v, neighbors, &mut self.record);
        self.payload.write_all(&self.record)?;
        self.payload_len += self.record.len() as u64;
        self.degree_sum += neighbors.len() as u64;
        self.offsets.push(self.payload_len);
        Ok(())
    }

    /// Assembles header | offsets | payload | labels | CRC into the
    /// output file and removes the temp payload.
    pub fn finish(self) -> io::Result<CompressedStats> {
        let StreamBuilder {
            out_path,
            tmp_path,
            payload,
            offsets,
            payload_len,
            degree_sum,
            n,
            labels,
            ..
        } = self;
        if offsets.len() as u64 != n + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("only {} of {n} vertices pushed", offsets.len() - 1),
            ));
        }
        payload.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        let m = degree_sum / 2;
        let offset_width: u8 = if payload_len <= u64::from(u32::MAX) { 4 } else { 8 };

        let mut out = Crc32Writer::new(BufWriter::new(std::fs::File::create(&out_path)?));
        out.write_all(MAGIC)?;
        out.write_all(&n.to_le_bytes())?;
        out.write_all(&m.to_le_bytes())?;
        let flags = if labels.is_some() { FLAG_LABELED } else { 0 };
        out.write_all(&[flags, offset_width, 0, 0, 0, 0, 0, 0])?;
        for &off in &offsets {
            if offset_width == 4 {
                out.write_all(&(off as u32).to_le_bytes())?;
            } else {
                out.write_all(&off.to_le_bytes())?;
            }
        }
        let mut src = std::fs::File::open(&tmp_path)?;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let got = src.read(&mut buf)?;
            if got == 0 {
                break;
            }
            out.write_all(&buf[..got])?;
        }
        if let Some(ls) = &labels {
            for l in ls {
                out.write_all(&l.0.to_le_bytes())?;
            }
        }
        let crc = out.crc();
        let body_bytes = out.bytes_written();
        let mut inner = out.into_inner();
        inner.write_all(&crc.to_le_bytes())?;
        inner.flush()?;
        inner.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        let _ = std::fs::remove_file(&tmp_path);
        Ok(CompressedStats {
            num_vertices: n,
            num_edges: m,
            payload_bytes: payload_len,
            file_bytes: body_bytes + 4,
            offset_width,
            labeled: labels.is_some(),
        })
    }
}

/// Builds a compressed graph at `path` from a **replayable** edge
/// stream, without ever materializing the edge list: `stream` is
/// invoked twice (degree-counting pass, then fill pass) and must emit
/// the same edges both times — re-reading a file or re-running a seeded
/// generator both qualify. Self-loops are dropped and duplicate edges
/// collapse, matching the loaders' policy.
///
/// Peak memory is the CSR fill state — 4 bytes per directed edge plus
/// ~16 bytes per vertex — independent of the source representation
/// (a 10⁸-edge build peaks under 1 GB where the text edge list alone
/// would exceed that and an `AdjList`-of-`Vec`s graph several times it).
///
/// `n_hint` raises the vertex count above `max id + 1` (for trailing
/// isolated vertices); `labels`, when given, fixes it exactly.
pub fn build_from_edge_stream<F>(
    path: &Path,
    n_hint: u64,
    labels: Option<Vec<Label>>,
    mut stream: F,
) -> io::Result<CompressedStats>
where
    F: FnMut(&mut dyn FnMut(VertexId, VertexId) -> io::Result<()>) -> io::Result<()>,
{
    // Pass 1: directed degree counts (self-loops excluded).
    let mut counts: Vec<u32> = Vec::new();
    stream(&mut |u, v| {
        if u == v {
            return Ok(());
        }
        let hi = u.index().max(v.index());
        if hi >= counts.len() {
            counts.resize(hi + 1, 0);
        }
        counts[u.index()] += 1;
        counts[v.index()] += 1;
        Ok(())
    })?;
    if (n_hint as usize) > counts.len() {
        counts.resize(n_hint as usize, 0);
    }
    if let Some(ls) = &labels {
        if ls.len() < counts.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{} labels but the stream names vertex {}", ls.len(), counts.len() - 1),
            ));
        }
        counts.resize(ls.len(), 0);
    }
    let n = counts.len();
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut total = 0u64;
    offsets.push(0);
    for &c in &counts {
        total += u64::from(c);
        offsets.push(total);
    }
    drop(counts);

    // Pass 2: CSR fill. `cursor` walks each vertex's window.
    let mut targets: Vec<u32> = vec![0; total as usize];
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    stream(&mut |u, v| {
        if u == v {
            return Ok(());
        }
        if u.index() >= n || v.index() >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "edge stream changed between passes (new vertex in pass 2)",
            ));
        }
        if cursor[u.index()] >= offsets[u.index() + 1]
            || cursor[v.index()] >= offsets[v.index() + 1]
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "edge stream changed between passes (extra edge in pass 2)",
            ));
        }
        targets[cursor[u.index()] as usize] = v.0;
        cursor[u.index()] += 1;
        targets[cursor[v.index()] as usize] = u.0;
        cursor[v.index()] += 1;
        Ok(())
    })?;
    for v in 0..n {
        if cursor[v] != offsets[v + 1] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "edge stream changed between passes (count mismatch)",
            ));
        }
    }
    drop(cursor);

    // Sort + dedup each window and stream records out.
    let mut builder = StreamBuilder::new(path, n as u64, labels)?;
    let mut scratch: Vec<VertexId> = Vec::new();
    for v in 0..n {
        let window = &mut targets[offsets[v] as usize..offsets[v + 1] as usize];
        window.sort_unstable();
        scratch.clear();
        for &t in window.iter() {
            if scratch.last().is_none_or(|&last| last.0 != t) {
                scratch.push(VertexId(t));
            }
        }
        builder.push(&scratch)?;
    }
    builder.finish()
}

/// Compresses an in-memory [`Graph`] to `path`.
pub fn write_compressed(g: &Graph, path: &Path) -> io::Result<CompressedStats> {
    let mut b = StreamBuilder::new(path, g.num_vertices() as u64, g.labels().map(<[_]>::to_vec))?;
    for v in g.vertices() {
        b.push(g.neighbors(v).as_slice())?;
    }
    b.finish()
}

/// A read-only compressed graph, usually backed by a memory mapping.
///
/// Construction validates the whole file (CRC, header consistency,
/// offset monotonicity and bounds); per-vertex decoding afterwards
/// cannot read out of bounds.
pub struct CompressedGraph {
    backing: Backing,
    n: usize,
    m: u64,
    labeled: bool,
    offset_width: usize,
    payload_start: usize,
    payload_len: usize,
    labels_start: usize,
}

impl std::fmt::Debug for CompressedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedGraph")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("labeled", &self.labeled)
            .field("payload_len", &self.payload_len)
            .field("mapped", &matches!(self.backing, Backing::Mapped(_)))
            .finish()
    }
}

impl CompressedGraph {
    /// Memory-maps and validates the file at `path`.
    pub fn open(path: &Path) -> io::Result<CompressedGraph> {
        let backing = Backing::map_file(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        if let Backing::Mapped(region) = &backing {
            // The validation pass below reads front-to-back.
            region.advise(Advice::Sequential);
        }
        let g = Self::from_backing(backing)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        if let Backing::Mapped(region) = &g.backing {
            // Steady state is point lookups into the payload.
            region.advise(Advice::Random);
        }
        Ok(g)
    }

    /// Builds from an in-memory byte buffer (tests, non-unix fallback).
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<CompressedGraph> {
        Self::from_backing(Backing::Owned(bytes))
    }

    fn from_backing(backing: Backing) -> io::Result<CompressedGraph> {
        let data = backing.as_slice();
        // Magic first: a file of another version gets the rebuild hint
        // however little of it there is.
        if let Some(magic) = data.get(..8) {
            check_magic(magic)?;
        }
        if data.len() < HEADER_LEN + 4 {
            return Err(corrupt(format!("file too short ({} bytes) for a header", data.len())));
        }
        let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
        let actual_crc = crc32(&data[..data.len() - 4]);
        if stored_crc != actual_crc {
            return Err(corrupt(format!(
                "CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        let n64 = u64::from_le_bytes(data[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(data[16..24].try_into().unwrap());
        let flags = data[24];
        let offset_width = data[25] as usize;
        if flags & !FLAG_LABELED != 0 {
            return Err(corrupt(format!("unknown flag bits {flags:#04x}")));
        }
        if offset_width != 4 && offset_width != 8 {
            return Err(corrupt(format!("offset width {offset_width} (must be 4 or 8)")));
        }
        if n64 > u64::from(u32::MAX) {
            return Err(corrupt(format!("{n64} vertices exceed the u32 ID domain")));
        }
        let n = n64 as usize;
        let labeled = flags & FLAG_LABELED != 0;

        let offsets_len = (n as u64 + 1)
            .checked_mul(offset_width as u64)
            .ok_or_else(|| corrupt("offset table size overflow"))?;
        let labels_len = if labeled { n as u64 * 2 } else { 0 };
        let fixed = HEADER_LEN as u64 + offsets_len + labels_len + 4;
        let payload_len = (data.len() as u64)
            .checked_sub(fixed)
            .ok_or_else(|| corrupt("file too short for its own offset/label tables"))?
            as usize;
        let payload_start = HEADER_LEN + offsets_len as usize;
        let labels_start = payload_start + payload_len;

        let g = CompressedGraph {
            backing,
            n,
            m,
            labeled,
            offset_width,
            payload_start,
            payload_len,
            labels_start,
        };
        // Monotone offsets ending exactly at the payload boundary mean
        // every record window is in bounds forever after.
        let mut prev = g.offset(0);
        if prev != 0 {
            return Err(corrupt("offsets[0] must be 0"));
        }
        for v in 1..=n {
            let cur = g.offset(v);
            if cur < prev {
                return Err(corrupt(format!("offset index not monotone at vertex {v}")));
            }
            prev = cur;
        }
        if prev != payload_len as u64 {
            return Err(corrupt(format!(
                "offsets end at {prev} but payload is {payload_len} bytes"
            )));
        }
        Ok(g)
    }

    #[inline]
    fn offset(&self, v: usize) -> u64 {
        let data = self.backing.as_slice();
        let at = HEADER_LEN + v * self.offset_width;
        if self.offset_width == 4 {
            u64::from(u32::from_le_bytes(data[at..at + 4].try_into().unwrap()))
        } else {
            u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `|E|` (from the header).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// True if the file carries per-vertex labels.
    pub fn is_labeled(&self) -> bool {
        self.labeled
    }

    /// Runs `decode` on the record of `v`. Errors only on a corrupt
    /// record, which the open-time CRC makes practically unreachable.
    #[inline]
    fn decode_record<T>(
        &self,
        v: VertexId,
        decode: impl FnOnce(VertexId, &[u8]) -> Result<T, VbyteError>,
    ) -> io::Result<T> {
        if v.index() >= self.n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range (n = {})", self.n),
            ));
        }
        let start = self.payload_start + self.offset(v.index()) as usize;
        let end = self.payload_start + self.offset(v.index() + 1) as usize;
        decode(v, &self.backing.as_slice()[start..end])
            .map_err(|e| corrupt(format!("vertex {v}: {e}")))
    }

    /// Decodes `Γ(v)`; an error means a corrupt record.
    pub fn try_adjacency(&self, v: VertexId) -> io::Result<AdjList> {
        self.decode_record(v, decode_adjacency).map(AdjList::from_sorted)
    }

    /// Decodes `Γ(v)`, panicking on corruption (which open-time
    /// validation rules out for any file that parsed successfully).
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> AdjList {
        self.try_adjacency(v).expect("record validated by open-time CRC")
    }

    /// Decodes `Γ_>(v)` from the head of the record at a cost of
    /// `|Γ_>(v)|` gaps, not `deg(v)`: the `Γ_<(v)` run behind it is not
    /// read. Panics on corruption like [`CompressedGraph::adjacency`].
    #[inline]
    pub fn adjacency_above(&self, v: VertexId) -> AdjList {
        let above = self.decode_record(v, decode_adjacency_above);
        AdjList::from_sorted(above.expect("record validated by open-time CRC"))
    }

    /// Degree of `v` without decoding the neighbor list (reads only the
    /// two leading counts of the record).
    pub fn degree(&self, v: VertexId) -> usize {
        self.decode_record(v, |_, record| decode_degree(record))
            .expect("record validated by open-time CRC")
    }

    /// Iterates degrees for `v = 0..n` (cheap: two varints per vertex).
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n as u32).map(move |v| self.degree(VertexId(v)))
    }

    /// The label of `v`, if the file is labeled.
    pub fn label(&self, v: VertexId) -> Option<Label> {
        if !self.labeled {
            return None;
        }
        assert!(v.index() < self.n, "vertex {v} out of range (n = {})", self.n);
        let at = self.labels_start + v.index() * 2;
        let data = self.backing.as_slice();
        Some(Label(u16::from_le_bytes(data[at..at + 2].try_into().unwrap())))
    }

    /// All labels as an owned vector, if labeled.
    pub fn labels(&self) -> Option<Vec<Label>> {
        if !self.labeled {
            return None;
        }
        Some((0..self.n as u32).map(|v| self.label(VertexId(v)).unwrap()).collect())
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.backing.as_slice().len() as u64
    }

    /// Encoded payload size in bytes (excludes header/offsets/labels).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_len as u64
    }

    /// Heap bytes held by this structure. Near zero when mapped — the
    /// decoded working set lives in the page cache and in whatever the
    /// caller retains.
    pub fn heap_bytes(&self) -> usize {
        self.backing.heap_bytes() + std::mem::size_of::<Self>()
    }

    /// Fully decodes into an in-memory [`Graph`] (tests, small inputs).
    pub fn to_graph(&self) -> Graph {
        let adj = (0..self.n as u32).map(|v| self.adjacency(VertexId(v))).collect();
        let g = Graph::from_adjacency(adj);
        match self.labels() {
            Some(ls) => g.with_labels(ls),
            None => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gthinker-gtc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_same(g: &Graph, c: &CompressedGraph) {
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges() as usize, g.num_edges());
        assert_eq!(c.is_labeled(), g.is_labeled());
        for v in g.vertices() {
            assert_eq!(c.adjacency(v).as_slice(), g.neighbors(v).as_slice(), "Γ({v})");
            assert_eq!(c.adjacency_above(v).as_slice(), g.neighbors(v).greater_than(v), "Γ_>({v})");
            assert_eq!(c.degree(v), g.degree(v), "deg({v})");
            assert_eq!(c.label(v), g.label(v), "label({v})");
        }
    }

    #[test]
    fn round_trips_a_random_graph_via_file() {
        let g = gen::gnp(500, 0.05, 42);
        let path = tmp("gnp.gtc");
        let stats = write_compressed(&g, &path).unwrap();
        assert_eq!(stats.num_edges as usize, g.num_edges());
        assert_eq!(stats.offset_width, 4);
        assert_eq!(stats.file_bytes, std::fs::metadata(&path).unwrap().len());
        let c = CompressedGraph::open(&path).unwrap();
        assert_same(&g, &c);
        assert_eq!(c.heap_bytes(), std::mem::size_of::<CompressedGraph>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_trips_labels_and_isolated_vertices() {
        let mut g = gen::gnp(80, 0.1, 7);
        // Append isolated vertices by rebuilding with a larger n.
        let edges: Vec<_> = g.edges().collect();
        g = gen::random_labels(Graph::from_edges(100, &edges), 4, 3);
        let path = tmp("labeled.gtc");
        write_compressed(&g, &path).unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        assert_same(&g, &c);
        assert_eq!(c.labels().unwrap().len(), 100);
        let back = c.to_graph();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.labels(), g.labels());
        for v in g.vertices() {
            assert_eq!(back.neighbors(v).as_slice(), g.neighbors(v).as_slice());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::with_vertices(0);
        let path = tmp("empty.gtc");
        write_compressed(&g, &path).unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.num_edges(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_flips_anywhere_are_detected() {
        let g = gen::gnp(60, 0.1, 3);
        let path = tmp("flip.gtc");
        write_compressed(&g, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let step = (clean.len() / 37).max(1);
        for at in (0..clean.len()).step_by(step) {
            let mut bad = clean.clone();
            bad[at] ^= 0x40;
            assert!(CompressedGraph::from_bytes(bad).is_err(), "flip at byte {at} went undetected");
        }
    }

    #[test]
    fn truncations_are_clean_errors() {
        let g = gen::gnp(60, 0.1, 3);
        let path = tmp("trunc.gtc");
        write_compressed(&g, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, clean.len() / 2, clean.len() - 1] {
            assert!(
                CompressedGraph::from_bytes(clean[..cut].to_vec()).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn stream_builder_enforces_vertex_count() {
        let path = tmp("short.gtc");
        let mut b = StreamBuilder::new(&path, 3, None).unwrap();
        b.push(&[]).unwrap();
        assert!(b.finish().is_err(), "finishing with missing vertices must fail");

        let mut b = StreamBuilder::new(&path, 1, None).unwrap();
        b.push(&[]).unwrap();
        assert!(b.push(&[]).is_err(), "pushing past n must fail");
    }

    #[test]
    fn edge_stream_build_matches_in_memory_build() {
        // gnp streamed twice (replayable by seed) must yield the same
        // file contents as compressing the materialized graph.
        let (n, p, seed) = (400usize, 0.03, 21u64);
        let streamed = tmp("streamed.gtc");
        build_from_edge_stream(&streamed, n as u64, None, |sink| {
            gen::stream_gnp(n, p, seed, sink).map(|_| ())
        })
        .unwrap();
        let direct = tmp("direct.gtc");
        write_compressed(&gen::gnp(n, p, seed), &direct).unwrap();
        assert_eq!(std::fs::read(&streamed).unwrap(), std::fs::read(&direct).unwrap());
        std::fs::remove_file(&streamed).unwrap();
        std::fs::remove_file(&direct).unwrap();
    }

    #[test]
    fn edge_stream_build_dedups_and_drops_self_loops() {
        let edges = [(0u32, 1u32), (1, 0), (2, 2), (1, 2), (1, 2)];
        let path = tmp("messy.gtc");
        build_from_edge_stream(&path, 0, None, |sink| {
            for &(u, v) in &edges {
                sink(VertexId(u), VertexId(v))?;
            }
            Ok(())
        })
        .unwrap();
        let c = CompressedGraph::open(&path).unwrap();
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(c.num_edges(), 2); // 0-1 and 1-2, loops/dups gone
        assert_eq!(c.adjacency(VertexId(1)).as_slice(), &[VertexId(0), VertexId(2)]);
        assert_eq!(c.adjacency(VertexId(2)).as_slice(), &[VertexId(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_replayable_stream_is_detected() {
        let path = tmp("flaky.gtc");
        let mut pass = 0;
        let err = build_from_edge_stream(&path, 0, None, |sink| {
            pass += 1;
            if pass == 1 {
                sink(VertexId(0), VertexId(1))?;
            }
            sink(VertexId(0), VertexId(2))?;
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("between passes"), "{err}");
    }

    #[test]
    fn stream_builder_refuses_a_self_loop() {
        let path = tmp("loop.gtc");
        let mut b = StreamBuilder::new(&path, 2, None).unwrap();
        b.push(&[VertexId(1)]).unwrap();
        let err = b.push(&[VertexId(0), VertexId(1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn not_a_graph_file_is_rejected() {
        let err = CompressedGraph::from_bytes(b"definitely not a graph file at all".to_vec())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn another_format_version_asks_for_a_rebuild() {
        let g = gen::gnp(30, 0.1, 3);
        let path = tmp("versions.gtc");
        write_compressed(&g, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(&clean[..8], MAGIC);
        assert_eq!(MAGIC[6..], *format!("{FORMAT_VERSION:02}").as_bytes());
        for (version, whose) in [(b"01", "an older"), (b"03", "a newer")] {
            let mut other = clean.clone();
            other[6..8].copy_from_slice(version);
            let err = CompressedGraph::from_bytes(other).unwrap_err().to_string();
            assert!(err.contains(whose), "{err}");
            assert!(err.contains("gthinker graph build IN OUT.gtc"), "{err}");
        }
    }
}
