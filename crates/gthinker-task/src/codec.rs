//! A small, auditable binary codec.
//!
//! Tasks are spilled to disk in batches, shipped between workers by the
//! work stealer, and written into checkpoints — all of which require a
//! stable byte representation. Rather than pulling in a serialization
//! framework, this module defines two tiny traits ([`Encode`],
//! [`Decode`]) with little-endian fixed-width primitives and
//! length-prefixed containers, implemented for the graph vocabulary
//! types. Round-tripping is bit-exact (property-tested).

use bytes::{Buf, BufMut};
use gthinker_graph::adj::AdjList;
use gthinker_graph::ids::{Label, TaskId, VertexId, WorkerId};
use gthinker_graph::subgraph::Subgraph;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A structurally invalid encoding (bad tag, length overflow...).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serializes a value onto a byte buffer.
pub trait Encode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
}

/// Deserializes a value from a byte buffer, advancing it.
pub trait Decode: Sized {
    /// Reads one value from the front of `buf`.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

#[inline]
fn need(buf: &&[u8], n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::UnexpectedEof)
    } else {
        Ok(())
    }
}

macro_rules! impl_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                need(buf, std::mem::size_of::<$ty>())?;
                Ok(buf.$get())
            }
        }
    };
}

impl_prim!(u8, put_u8, get_u8);
impl_prim!(u16, put_u16_le, get_u16_le);
impl_prim!(u32, put_u32_le, get_u32_le);
impl_prim!(u64, put_u64_le, get_u64_le);
impl_prim!(i64, put_i64_le, get_i64_le);
impl_prim!(f64, put_f64_le, get_f64_le);

impl Encode for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self as u8);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }
}

impl Encode for usize {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Encode for VertexId {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for VertexId {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(VertexId(u32::decode(buf)?))
    }
}

impl Encode for WorkerId {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for WorkerId {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WorkerId(u16::decode(buf)?))
    }
}

impl Encode for Label {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for Label {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Label(u16::decode(buf)?))
    }
}

impl Encode for TaskId {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for TaskId {
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(TaskId(u64::decode(buf)?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u64::decode(buf)? as usize;
        // Sanity bound: one byte minimum per element prevents huge
        // pre-allocations from corrupt lengths.
        if len > buf.remaining() {
            return Err(CodecError::Invalid("vec length exceeds buffer"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u64::decode(buf)? as usize;
        need(buf, len)?;
        let bytes = buf[..len].to_vec();
        buf.advance(len);
        String::from_utf8(bytes).map_err(|_| CodecError::Invalid("utf8"))
    }
}

impl Encode for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
}

impl Decode for () {
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Encode for AdjList {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.degree() as u64).encode(buf);
        for v in self.iter() {
            v.encode(buf);
        }
    }
}

impl Decode for AdjList {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let nbrs: Vec<VertexId> = Vec::decode(buf)?;
        // Lists are encoded sorted; verify instead of trusting.
        if nbrs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Invalid("adjacency list not sorted"));
        }
        Ok(AdjList::from_sorted(nbrs))
    }
}

impl Encode for Subgraph {
    fn encode(&self, buf: &mut Vec<u8>) {
        let labeled = self.vertex_ids().iter().any(|&v| self.label(v).is_some());
        labeled.encode(buf);
        (self.num_vertices() as u64).encode(buf);
        for &v in self.vertex_ids() {
            v.encode(buf);
            if labeled {
                self.label(v).unwrap_or_default().encode(buf);
            }
            self.neighbors(v).expect("vertex present").encode(buf);
        }
    }
}

impl Decode for Subgraph {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let labeled = bool::decode(buf)?;
        let n = u64::decode(buf)? as usize;
        let mut g = Subgraph::with_capacity(n.min(buf.remaining()));
        for _ in 0..n {
            let v = VertexId::decode(buf)?;
            if labeled {
                let l = Label::decode(buf)?;
                let adj = AdjList::decode(buf)?;
                if !g.add_labeled_vertex(v, l, adj) {
                    return Err(CodecError::Invalid("duplicate subgraph vertex"));
                }
            } else {
                let adj = AdjList::decode(buf)?;
                if !g.add_vertex(v, adj) {
                    return Err(CodecError::Invalid("duplicate subgraph vertex"));
                }
            }
        }
        Ok(g)
    }
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a complete buffer, requiring full consumption.
pub fn from_bytes<T: Decode>(mut buf: &[u8]) -> Result<T, CodecError> {
    let v = T::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(513u16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(1.5f64);
        round_trip(true);
        round_trip(false);
        round_trip(1234usize);
        round_trip(String::from("héllo"));
        round_trip(());
    }

    #[test]
    fn vocabulary_types_round_trip() {
        round_trip(VertexId(77));
        round_trip(WorkerId(12));
        round_trip(Label(3));
        round_trip(TaskId::new(5, 999));
        round_trip(AdjList::from_unsorted(vec![VertexId(3), VertexId(1), VertexId(2)]));
        round_trip(vec![VertexId(1), VertexId(9)]);
        round_trip(Some(VertexId(4)));
        round_trip(Option::<VertexId>::None);
        round_trip((VertexId(1), 7u64));
        round_trip((3u64, vec![VertexId(1)], vec![VertexId(2), VertexId(5)]));
    }

    #[test]
    fn subgraph_round_trips_with_structure() {
        let mut g = Subgraph::new();
        g.add_vertex(VertexId(10), AdjList::from_unsorted(vec![VertexId(20)]));
        g.add_vertex(VertexId(20), AdjList::from_unsorted(vec![VertexId(10), VertexId(30)]));
        g.add_vertex(VertexId(30), AdjList::new());
        let bytes = to_bytes(&g);
        let back: Subgraph = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_vertices(), 3);
        assert_eq!(back.vertex_ids(), g.vertex_ids());
        assert!(back.has_edge(VertexId(10), VertexId(20)));
        assert!(back.has_edge(VertexId(20), VertexId(30)));
        assert!(!back.has_edge(VertexId(10), VertexId(30)));
    }

    #[test]
    fn labeled_subgraph_round_trips() {
        let mut g = Subgraph::new();
        g.add_labeled_vertex(VertexId(1), Label(4), AdjList::new());
        g.add_labeled_vertex(VertexId(2), Label(5), AdjList::new());
        let back: Subgraph = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(back.label(VertexId(1)), Some(Label(4)));
        assert_eq!(back.label(VertexId(2)), Some(Label(5)));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let bytes = to_bytes(&vec![VertexId(1), VertexId(2), VertexId(3)]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<VertexId>, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_tags_rejected() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(CodecError::Invalid("bool tag")));
        assert_eq!(from_bytes::<Option<u8>>(&[9, 0]), Err(CodecError::Invalid("option tag")));
    }

    #[test]
    fn unsorted_adjacency_rejected() {
        // Hand-craft: len 2, vertices 5 then 3.
        let mut buf = Vec::new();
        2u64.encode(&mut buf);
        VertexId(5).encode(&mut buf);
        VertexId(3).encode(&mut buf);
        assert!(from_bytes::<AdjList>(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(CodecError::Invalid("trailing bytes")));
    }

    #[test]
    fn huge_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf);
        assert!(from_bytes::<Vec<u8>>(&buf).is_err());
    }
}
