//! Variable-byte integer codes and the owner-split adjacency codec.
//!
//! The compressed graph format ([`crate::compressed`]) stores each
//! sorted adjacency list `Γ(v)` as two runs of gaps that both start at
//! the owner `v` itself:
//!
//! ```text
//! varint(k_gt) varint(k_lt)
//! k_gt × varint(gap − 1)     Γ_>(v), ascending:  v → u₁ → u₂ → …
//! k_lt × varint(gap − 1)     Γ_<(v), descending: v → w₁ → w₂ → …
//! ```
//!
//! Lists are strictly ascending and never hold `v`, so every gap is ≥ 1
//! and the `−1` saves a bit of entropy. Splitting at the owner is what
//! makes `Γ_>(v)` — all that triangle counting and maximum clique ever
//! look at — the first `k_gt` gaps of the record:
//! [`decode_adjacency_above`] stops there and never reads the rest,
//! however large the degree. [`decode_adjacency`] fills one exact-size
//! vector, `[k_lt..]` from the first run and `[..k_lt]` backwards from
//! the second. No sign bit is needed (a direction is implied by the
//! run), which pays for the second count.
//!
//! All values are LEB128 variable-byte integers — byte-aligned rather
//! than the bit-aligned ζ codes of WebGraph proper, trading a few
//! percent of ratio for a decode loop that is a handful of instructions
//! per neighbor.
//!
//! Every read is bounds-checked and returns a typed [`VbyteError`]; a
//! truncated or corrupt buffer can never panic, read out of bounds or
//! allocate more than four bytes per byte of input.

use crate::ids::VertexId;

/// Decode failure: the buffer does not hold the value it claims to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VbyteError {
    /// The buffer ended in the middle of a value.
    Truncated,
    /// A varint ran past 10 bytes (would overflow u64).
    Overlong,
    /// A gap in the ascending run steps above `u32::MAX`.
    IdOverflow,
    /// A gap in the descending run steps below vertex 0.
    IdUnderflow,
    /// The record's encoded bytes did not match its declared counts.
    LengthMismatch,
}

impl std::fmt::Display for VbyteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VbyteError::Truncated => write!(f, "truncated varint"),
            VbyteError::Overlong => write!(f, "overlong varint (>10 bytes)"),
            VbyteError::IdOverflow => write!(f, "decoded vertex ID exceeds u32"),
            VbyteError::IdUnderflow => write!(f, "decoded vertex ID below 0"),
            VbyteError::LengthMismatch => write!(f, "adjacency record length mismatch"),
        }
    }
}

impl std::error::Error for VbyteError {}

/// Appends `value` as a LEB128 varint (7 payload bits per byte, high
/// bit = continuation).
#[inline]
pub fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VbyteError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(VbyteError::Truncated)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return Err(VbyteError::Overlong);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(VbyteError::Overlong);
        }
    }
}

/// Number of bytes [`write_varint`] emits for `value`.
#[inline]
pub fn varint_len(value: u64) -> usize {
    (64 - value.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Encodes the sorted adjacency list of vertex `v` into `out` (layout in
/// the module docs). The caller guarantees `neighbors` is strictly
/// ascending and does not hold `v` itself (debug-asserted).
pub fn encode_adjacency(v: VertexId, neighbors: &[VertexId], out: &mut Vec<u8>) {
    debug_assert!(
        neighbors.windows(2).all(|w| w[0] < w[1]),
        "adjacency of {v} must be strictly ascending"
    );
    let split = neighbors.partition_point(|&u| u < v);
    let (below, above) = neighbors.split_at(split);
    debug_assert!(above.first() != Some(&v), "adjacency of {v} must not hold {v} itself");
    write_varint(above.len() as u64, out);
    write_varint(below.len() as u64, out);
    let mut prev = v.0;
    for &u in above {
        write_varint(u64::from(u.0 - prev) - 1, out);
        prev = u.0;
    }
    let mut prev = v.0;
    for &u in below.iter().rev() {
        write_varint(u64::from(prev - u.0) - 1, out);
        prev = u.0;
    }
}

/// Reads `(k_gt, k_lt)`. Every neighbor costs at least one byte, so
/// counts the rest of the record cannot hold are refused here, before
/// anything is allocated for them.
#[inline]
fn read_counts(record: &[u8], pos: &mut usize) -> Result<(usize, usize), VbyteError> {
    let k_gt = read_varint(record, pos)?;
    let k_lt = read_varint(record, pos)?;
    let remaining = (record.len() - *pos) as u64;
    match k_gt.checked_add(k_lt) {
        Some(k) if k <= remaining => Ok((k_gt as usize, k_lt as usize)),
        _ => Err(VbyteError::LengthMismatch),
    }
}

/// Decodes the ascending run into `out`, front to back.
#[inline]
fn decode_above(
    v: VertexId,
    record: &[u8],
    pos: &mut usize,
    out: &mut [VertexId],
) -> Result<(), VbyteError> {
    let mut prev = u64::from(v.0);
    for slot in out {
        prev = read_varint(record, pos)?
            .checked_add(prev + 1)
            .filter(|&id| id <= u64::from(u32::MAX))
            .ok_or(VbyteError::IdOverflow)?;
        *slot = VertexId(prev as u32);
    }
    Ok(())
}

/// Decodes the descending run into `out`, back to front, so that `out`
/// ends up ascending.
#[inline]
fn decode_below(
    v: VertexId,
    record: &[u8],
    pos: &mut usize,
    out: &mut [VertexId],
) -> Result<(), VbyteError> {
    let mut prev = u64::from(v.0);
    for slot in out.iter_mut().rev() {
        let gap = read_varint(record, pos)?;
        // prev − gap − 1 ≥ 0  ⇔  gap < prev.
        if gap >= prev {
            return Err(VbyteError::IdUnderflow);
        }
        prev -= gap + 1;
        *slot = VertexId(prev as u32);
    }
    Ok(())
}

/// Decodes `Γ(v)` from `record`, which must be exactly one record (the
/// offset index pins record boundaries, so any slack is corruption).
/// The output is strictly ascending by construction.
pub fn decode_adjacency(v: VertexId, record: &[u8]) -> Result<Vec<VertexId>, VbyteError> {
    let mut pos = 0usize;
    let (k_gt, k_lt) = read_counts(record, &mut pos)?;
    let mut out = vec![VertexId(0); k_gt + k_lt];
    let (below, above) = out.split_at_mut(k_lt);
    decode_above(v, record, &mut pos, above)?;
    decode_below(v, record, &mut pos, below)?;
    if pos != record.len() {
        return Err(VbyteError::LengthMismatch);
    }
    Ok(out)
}

/// Decodes `Γ_>(v)` — the first `k_gt` gaps of `record` — and reads
/// nothing behind them: the cost is `|Γ_>(v)|`, not the degree.
pub fn decode_adjacency_above(v: VertexId, record: &[u8]) -> Result<Vec<VertexId>, VbyteError> {
    let mut pos = 0usize;
    let (k_gt, _) = read_counts(record, &mut pos)?;
    let mut out = vec![VertexId(0); k_gt];
    decode_above(v, record, &mut pos, &mut out)?;
    Ok(out)
}

/// The degree `k_gt + k_lt` of a record: its two leading varints.
pub fn decode_degree(record: &[u8]) -> Result<usize, VbyteError> {
    let (k_gt, k_lt) = read_counts(record, &mut 0)?;
    Ok(k_gt + k_lt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<VertexId> {
        v.iter().map(|&x| VertexId(x)).collect()
    }

    fn encode(v: u32, nbrs: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_adjacency(VertexId(v), &ids(nbrs), &mut buf);
        buf
    }

    fn round_trip(v: u32, nbrs: &[u32]) {
        let buf = encode(v, nbrs);
        let owner = VertexId(v);
        assert_eq!(decode_adjacency(owner, &buf).unwrap(), ids(nbrs), "Γ({v})");
        let above: Vec<u32> = nbrs.iter().copied().filter(|&u| u > v).collect();
        assert_eq!(decode_adjacency_above(owner, &buf).unwrap(), ids(&above), "Γ_>({v})");
        assert_eq!(decode_degree(&buf).unwrap(), nbrs.len(), "deg({v})");
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(value, &mut buf);
            assert_eq!(buf.len(), varint_len(value), "length of {value}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn adjacency_round_trips_at_every_owner_position() {
        round_trip(5, &[]);
        round_trip(7, &[3]); // all below
        round_trip(7, &[900]); // all above
        round_trip(7, &[6, 8]); // adjacent on both sides (gap codes 0)
        round_trip(2, &[0, 1, 3, 4, 5, 1000, u32::MAX]); // straddling, max-gap edge
        round_trip(0, &[1, 2, u32::MAX]); // v = 0: nothing can be below
        round_trip(u32::MAX, &[0, u32::MAX - 1]); // v = max: nothing above
    }

    #[test]
    fn above_decode_never_reads_the_below_run() {
        let mut buf = encode(50, &[10, 20, 60, 70]);
        // Poison the last byte (the below run): an unterminated varint.
        *buf.last_mut().unwrap() = 0x80;
        assert_eq!(decode_adjacency_above(VertexId(50), &buf).unwrap(), ids(&[60, 70]));
        assert_eq!(decode_adjacency(VertexId(50), &buf), Err(VbyteError::Truncated));
    }

    #[test]
    fn truncated_record_is_a_clean_error() {
        let buf = encode(100, &[10, 20, 30_000]);
        for cut in 0..buf.len() {
            assert!(decode_adjacency(VertexId(100), &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_length_mismatch() {
        let mut buf = encode(0, &[4]);
        buf.push(0);
        assert_eq!(decode_adjacency(VertexId(0), &buf), Err(VbyteError::LengthMismatch));
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = [0xff; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Err(VbyteError::Overlong));
    }

    #[test]
    fn counts_the_record_cannot_hold_are_refused_before_allocating() {
        // k_gt = u32::MAX in five bytes, k_lt = 0: a 16 GB list claimed
        // by a 6-byte record.
        let record = [0xff, 0xff, 0xff, 0xff, 0x0f, 0x00];
        let v = VertexId(0);
        assert_eq!(decode_adjacency(v, &record), Err(VbyteError::LengthMismatch));
        assert_eq!(decode_adjacency_above(v, &record), Err(VbyteError::LengthMismatch));
        assert_eq!(decode_degree(&record), Err(VbyteError::LengthMismatch));
        // The two counts may not overflow their sum either.
        let mut both = Vec::new();
        write_varint(u64::MAX, &mut both);
        write_varint(u64::MAX, &mut both);
        assert_eq!(decode_adjacency(v, &both), Err(VbyteError::LengthMismatch));
    }

    #[test]
    fn runs_that_leave_the_id_domain_are_typed_errors() {
        // One neighbor above v = 0 at gap u32::MAX + 1.
        let mut buf = vec![1, 0];
        write_varint(u64::from(u32::MAX), &mut buf);
        assert_eq!(decode_adjacency(VertexId(0), &buf), Err(VbyteError::IdOverflow));
        assert_eq!(decode_adjacency_above(VertexId(0), &buf), Err(VbyteError::IdOverflow));
        // One neighbor below v = 3 at gap 4 (would be vertex −1).
        let buf = [0, 1, 3];
        assert_eq!(decode_adjacency(VertexId(3), &buf), Err(VbyteError::IdUnderflow));
        // ... while gap 3 is vertex 0.
        let buf = [0, 1, 2];
        assert_eq!(decode_adjacency(VertexId(3), &buf).unwrap(), ids(&[0]));
    }
}
