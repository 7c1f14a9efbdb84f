//! Versioned, checksummed frames: the one sealed form of socket
//! traffic, task batches (a spilled batch, a steal batch and a checkpoint
//! batch are the same bytes), checkpoint files and metrics reports.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  u32   "GTKW" — rejects a non-G-thinker peer or file immediately
//! version u16  WIRE_VERSION — rejects a mismatched build descriptively
//! reserved u16 always 0 (future flags)
//! len    u32   payload length in bytes
//! payload …
//! crc    u32   crc32(payload)
//! ```
//!
//! The header protects *protocol* agreement (magic + version), the
//! trailer protects *integrity*. A mismatched or corrupt frame fails
//! with a descriptive [`FrameError`] instead of a garbage decode
//! downstream. `gthinker-net` re-exports this module.

use gthinker_graph::crc::crc32;
use std::io::{self, Read, Write};

/// `b"GTKW"` as a little-endian u32: G-Thinker Wire.
pub const MAGIC: u32 = u32::from_le_bytes(*b"GTKW");

/// Bump whenever the frame layout or any `gthinker_net::Message`
/// encoding changes; peers with different versions refuse each other.
/// v6: a task's subgraph is one row block, not one list per vertex.
pub const WIRE_VERSION: u16 = 6;

/// Fixed bytes around every payload: 12-byte header + 4-byte CRC.
pub const FRAME_OVERHEAD: usize = HEADER_LEN + 4;

/// Bytes before the payload: magic, version, reserved bits, length.
pub const HEADER_LEN: usize = 12;

/// Refuse absurd lengths before allocating (a corrupt or hostile
/// header must not OOM the worker).
const MAX_PAYLOAD: u32 = 1 << 30;

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// First four bytes are not the G-thinker magic.
    BadMagic(u32),
    /// The peer speaks a different wire version.
    VersionMismatch {
        /// Version the peer sent.
        got: u16,
        /// Version this build speaks.
        want: u16,
    },
    /// Fewer bytes than the header + declared payload + CRC.
    Truncated,
    /// Declared payload length exceeds the sanity cap.
    TooLarge(u32),
    /// Reserved header bits set by a (future?) peer this build cannot
    /// interpret.
    ReservedBits(u16),
    /// Payload bytes do not match the CRC trailer.
    CrcMismatch,
    /// Bytes left over after the frame (whole-buffer opens only).
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(got) => write!(
                f,
                "bad frame magic {got:#010x} (expected {MAGIC:#010x}): peer is not a G-thinker \
                 worker, or the file is of another format"
            ),
            FrameError::VersionMismatch { got, want } => write!(
                f,
                "wire version mismatch: peer speaks v{got}, this build speaks v{want}; \
                 run the same gthinker version on every machine"
            ),
            FrameError::ReservedBits(bits) => {
                write!(f, "reserved frame bits {bits:#06x} set; peer is from a newer build")
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge(len) => write!(f, "frame payload of {len} bytes exceeds the cap"),
            FrameError::CrcMismatch => write!(f, "frame CRC32 mismatch (corrupt payload)"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Wraps `payload` in a complete frame.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    seal_with(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Seals a frame **in place**: clears `out`, writes the header, lets
/// `write_payload` append the payload bytes directly (no intermediate
/// payload allocation), then patches the length and appends the CRC.
/// This is the zero-copy seal the pooled frame buffers use — a message
/// encodes straight into the wire buffer it will be written from.
pub fn seal_with(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // length, patched below
    write_payload(out);
    let len = out.len() - HEADER_LEN;
    assert!(len as u64 <= MAX_PAYLOAD as u64, "payload of {len} bytes exceeds the frame cap");
    out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[HEADER_LEN..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn check_header(header: &[u8; HEADER_LEN]) -> Result<usize, FrameError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(FrameError::VersionMismatch { got: version, want: WIRE_VERSION });
    }
    let reserved = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
    if reserved != 0 {
        return Err(FrameError::ReservedBits(reserved));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    Ok(len as usize)
}

/// The first frame in `bytes`, CRC-checked: its payload and its total
/// length, or `None` while `bytes` holds less than a whole frame.
fn first_frame(bytes: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(header) = bytes.first_chunk() else {
        return Ok(None);
    };
    let len = check_header(header)?;
    let total = HEADER_LEN + len + 4;
    let Some(rest) = bytes.get(HEADER_LEN..total) else {
        return Ok(None);
    };
    let (payload, crc) = rest.split_at(len);
    if crc32(payload).to_le_bytes() != crc {
        return Err(FrameError::CrcMismatch);
    }
    Ok(Some((payload, total)))
}

/// Validates a whole buffer as exactly one frame; returns the payload.
pub fn open(frame: &[u8]) -> Result<&[u8], FrameError> {
    match first_frame(frame)? {
        Some((payload, total)) if total == frame.len() => Ok(payload),
        Some(_) => Err(FrameError::TrailingBytes),
        None => Err(FrameError::Truncated),
    }
}

/// Writes one frame to a stream; returns the bytes put on the wire.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    let frame = seal(payload);
    w.write_all(&frame).map(|()| frame.len())
}

/// Reads one frame from a stream. `Ok(None)` on clean EOF at a frame
/// boundary; a frame cut off mid-way, or any header/CRC violation, is
/// an `InvalidData` error carrying the [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no next frame" (clean close) from "frame cut off".
    match r.read(&mut header)? {
        0 => return Ok(None),
        n => r.read_exact(&mut header[n..]).map_err(|_| FrameError::Truncated)?,
    }
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + check_header(&header)? + 4, 0);
    r.read_exact(&mut frame[HEADER_LEN..]).map_err(|_| io::Error::from(FrameError::Truncated))?;
    Ok(Some(open(&frame)?.to_vec()))
}

/// Incremental frame decoder for a non-blocking byte stream: feed it
/// whatever the socket returned — one byte, half a header, three
/// frames and a tail — and pull complete, CRC-verified payloads out.
///
/// The evented data plane reads the socket **directly into** the
/// decoder's buffer ([`space`](FrameDecoder::space) +
/// [`commit`](FrameDecoder::commit)), so inbound bytes are copied
/// exactly once (kernel → buffer) and payloads are borrowed from that
/// buffer, never re-materialized. Any header or CRC violation is a
/// hard [`FrameError`]: a framing stream that has lost sync cannot be
/// resynchronized, so the link must be torn down.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// `buf[start..filled]` holds the unconsumed byte stream.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet consumed by [`next`](Self::next).
    /// Zero exactly when the stream sits at a frame boundary — a clean
    /// EOF here is a graceful close, anywhere else a truncation.
    pub fn pending(&self) -> usize {
        self.filled - self.start
    }

    /// Exposes at least `min` bytes of writable tail space for a
    /// direct `read()`; follow with [`commit`](Self::commit) for the
    /// bytes actually read. Compacts consumed bytes to the front first,
    /// so the buffer stays bounded by the largest in-flight frame plus
    /// one read chunk.
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.filled + min {
            self.buf.resize(self.filled + min, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Marks `n` bytes of [`space`](Self::space) as filled by a read.
    pub fn commit(&mut self, n: usize) {
        assert!(self.filled + n <= self.buf.len(), "commit past the space handed out");
        self.filled += n;
    }

    /// Appends bytes that arrived in a caller-owned buffer (tests and
    /// non-socket feeds; the socket path uses `space`/`commit`).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.space(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// The next complete frame's payload, `Ok(None)` when more bytes
    /// are needed, or the [`FrameError`] that makes this stream
    /// unrecoverable. The returned slice borrows the internal buffer
    /// and is valid until the next `space`/`extend` call.
    // Not `Iterator`: the item borrows `self` (a lending iterator) and
    // decode errors must surface, neither of which `Iterator` can say.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some((payload, total)) = first_frame(&self.buf[self.start..self.filled])? else {
            return Ok(None);
        };
        let payload = self.start + HEADER_LEN..self.start + HEADER_LEN + payload.len();
        self.start += total;
        Ok(Some(&self.buf[payload]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        for payload in [&b""[..], b"x", &[7u8; 1000]] {
            let f = seal(payload);
            assert_eq!(f.len(), FRAME_OVERHEAD + payload.len());
            assert_eq!(open(&f).unwrap(), payload);
        }
    }

    #[test]
    fn bad_magic_is_descriptive() {
        let mut f = seal(b"hello");
        f[0] ^= 0xFF;
        let err = open(&f).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert!(err.to_string().contains("not a G-thinker worker"), "{err}");
    }

    #[test]
    fn version_mismatch_is_descriptive() {
        let mut f = seal(b"hello");
        f[4] = WIRE_VERSION as u8 + 1;
        let err = open(&f).unwrap_err();
        assert_eq!(err, FrameError::VersionMismatch { got: WIRE_VERSION + 1, want: WIRE_VERSION });
        assert!(err.to_string().contains("version mismatch"), "{err}");
    }

    #[test]
    fn corruption_and_truncation_rejected() {
        let f = seal(b"payload bytes");
        for cut in 0..f.len() {
            assert!(open(&f[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..f.len() {
            let mut bad = f.clone();
            bad[i] ^= 0x20;
            assert!(open(&bad).is_err(), "flip at {i}");
        }
        let mut trailing = f.clone();
        trailing.push(0);
        assert_eq!(open(&trailing).unwrap_err(), FrameError::TrailingBytes);
    }

    #[test]
    fn huge_length_rejected_before_allocation() {
        let mut f = seal(b"");
        f[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(open(&f).unwrap_err(), FrameError::TooLarge(_)));
        // Streaming path too.
        let mut cursor = std::io::Cursor::new(f);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn stream_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        let n1 = write_frame(&mut buf, b"first").unwrap();
        let n2 = write_frame(&mut buf, b"").unwrap();
        assert_eq!(n1, FRAME_OVERHEAD + 5);
        assert_eq!(n2, FRAME_OVERHEAD);
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn seal_with_matches_seal() {
        for payload in [&b""[..], b"x", &[7u8; 1000]] {
            let mut buf = vec![0xAA; 3]; // stale content must be cleared
            seal_with(&mut buf, |b| b.extend_from_slice(payload));
            assert_eq!(buf, seal(payload));
        }
    }

    #[test]
    fn decoder_reassembles_byte_at_a_time() {
        let mut stream = Vec::new();
        let payloads: [&[u8]; 3] = [b"first", b"", &[9u8; 300]];
        for p in payloads {
            stream.extend_from_slice(&seal(p));
        }
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(p) = dec.next().expect("clean stream") {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, payloads.map(<[u8]>::to_vec));
        assert_eq!(dec.pending(), 0, "clean frame boundary");
    }

    #[test]
    fn decoder_space_commit_path_matches_extend() {
        let frame = seal(b"space/commit payload");
        let mut dec = FrameDecoder::new();
        for chunk in frame.chunks(7) {
            let space = dec.space(chunk.len());
            space[..chunk.len()].copy_from_slice(chunk);
            dec.commit(chunk.len());
        }
        assert_eq!(dec.next().unwrap(), Some(&b"space/commit payload"[..]));
        assert_eq!(dec.next().unwrap(), None);
    }

    #[test]
    fn decoder_rejects_corruption() {
        let mut bad = seal(b"payload");
        let n = bad.len();
        bad[n - 2] ^= 0x40; // flip a CRC byte
        let mut dec = FrameDecoder::new();
        dec.extend(&bad);
        assert_eq!(dec.next().unwrap_err(), FrameError::CrcMismatch);
        let mut dec = FrameDecoder::new();
        dec.extend(b"XXXXXXXXXXXXXXXX");
        assert!(matches!(dec.next().unwrap_err(), FrameError::BadMagic(_)));
    }

    #[test]
    fn stream_cut_mid_frame_is_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"unfinished").unwrap();
        for cut in 1..buf.len() {
            let mut cursor = std::io::Cursor::new(&buf[..cut]);
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut}");
        }
    }
}
