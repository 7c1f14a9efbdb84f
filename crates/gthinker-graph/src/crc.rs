//! CRC32 (IEEE 802.3, the zlib polynomial).
//!
//! Lives in the graph crate — the lowest layer of the workspace — so the
//! compressed graph trailer, the checkpoint trailer and the wire frame
//! format all validate integrity with the same code; every layer
//! imports [`crc32`] from here.

/// Slice-by-8 lookup tables built at compile time — no external crate.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, so eight lookups
/// (one per table) consume eight input bytes per step.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC32 state, for checksumming data produced in chunks
/// (e.g. a compressed graph streamed through a `BufWriter`).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum: eight bytes per step through
    /// the sliced tables, the tail byte by byte.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    #[inline]
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of `data` (matches zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// A `Write` adapter that checksums every byte passing through it.
pub struct Crc32Writer<W: std::io::Write> {
    inner: W,
    crc: Crc32,
    written: u64,
}

impl<W: std::io::Write> Crc32Writer<W> {
    pub fn new(inner: W) -> Self {
        Crc32Writer { inner, crc: Crc32::new(), written: 0 }
    }

    /// Bytes written so far (all of them checksummed).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Current checksum over everything written.
    pub fn crc(&self) -> u32 {
        self.crc.finalize()
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: std::io::Write> std::io::Write for Crc32Writer<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    /// The byte-at-a-time loop the sliced tables replaced.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        #[test]
        fn sliced_update_equals_the_bytewise_loop(
            bytes in proptest::collection::vec(any::<u8>(), 0..308),
            offset in 0usize..8,
        ) {
            // Any start alignment relative to the allocation.
            let data = &bytes[offset.min(bytes.len())..];
            let want = bytewise(data);
            prop_assert_eq!(crc32(data), want);
            // Any split: the 8-byte steps of the second update start
            // wherever the first one's tail ended.
            for cut in 0..=data.len() {
                let mut c = Crc32::new();
                c.update(&data[..cut]);
                c.update(&data[cut..]);
                prop_assert_eq!(c.finalize(), want, "split at {}", cut);
            }
        }
    }

    #[test]
    fn matches_the_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32(data));
    }

    #[test]
    fn writer_checksums_what_it_writes() {
        let mut w = Crc32Writer::new(Vec::new());
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(w.bytes_written(), 11);
        assert_eq!(w.crc(), crc32(b"hello world"));
        assert_eq!(w.into_inner(), b"hello world");
    }
}
