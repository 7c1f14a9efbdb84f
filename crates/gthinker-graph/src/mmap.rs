//! Read-only memory mapping of graph files.
//!
//! [`Region`] wraps an `mmap(PROT_READ, MAP_SHARED)` of a whole file,
//! unmapped on drop. The compressed graph backend keeps one `Region`
//! alive for the lifetime of a job; pages are faulted in lazily by the
//! per-vertex decode path, so resident memory tracks the working set
//! rather than the file size.
//!
//! For tests and non-unix portability [`Backing`] also has an `Owned`
//! variant holding the file contents in a `Vec<u8>` — every consumer
//! goes through [`Backing::as_slice`] and cannot tell the difference.

use std::fs::File;
use std::io;

/// Access-pattern hint forwarded to `madvise`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// Mostly point lookups; disable readahead.
    Random,
    /// Front-to-back scan; read ahead aggressively.
    Sequential,
}

/// An immutable `mmap`ed byte range. Unmapped on drop.
pub struct Region {
    ptr: *mut libc::c_void,
    len: usize,
}

// The mapping is PROT_READ and never mutated after construction, so
// sharing the pointer across threads is sound.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Maps `len` bytes of `file` starting at offset 0.
    ///
    /// Fails with `InvalidInput` for a zero-length file (Linux rejects
    /// zero-length mappings) and surfaces the OS error otherwise.
    pub fn map(file: &File, len: usize) -> io::Result<Region> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cannot mmap an empty file"));
        }
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Region { ptr, len })
    }

    /// Advises the kernel about the expected access pattern. Purely a
    /// hint; failures are ignored.
    pub fn advise(&self, advice: Advice) {
        let flag = match advice {
            Advice::Random => libc::MADV_RANDOM,
            Advice::Sequential => libc::MADV_SEQUENTIAL,
        };
        unsafe {
            let _ = libc::madvise(self.ptr, self.len, flag);
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        unsafe {
            let _ = libc::munmap(self.ptr, self.len);
        }
    }
}

/// Where a compressed graph's bytes live: a lazily-faulted file mapping
/// or an ordinary heap buffer.
pub enum Backing {
    Mapped(Region),
    Owned(Vec<u8>),
}

impl Backing {
    /// Maps the file at `path` read-only.
    pub fn map_file(path: &std::path::Path) -> io::Result<Backing> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map on this platform",
            ));
        }
        Ok(Backing::Mapped(Region::map(&file, len as usize)?))
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Mapped(region) => region.as_slice(),
            Backing::Owned(bytes) => bytes,
        }
    }

    /// Heap bytes held by this backing. A mapping owns no heap — its
    /// pages are accounted to the page cache, which is the point.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Backing::Mapped(_) => 0,
            Backing::Owned(bytes) => bytes.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempPath;
    use std::io::Write;

    fn tmp(name: &str) -> TempPath {
        TempPath::new("mmap", name)
    }

    #[test]
    fn mapped_file_round_trips() {
        let path = tmp("round.dat");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let backing = Backing::map_file(&path).unwrap();
        assert_eq!(backing.as_slice(), &payload[..]);
        assert_eq!(backing.heap_bytes(), 0);
        if let Backing::Mapped(region) = &backing {
            region.advise(Advice::Random);
            region.advise(Advice::Sequential);
        }
        drop(backing);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = tmp("empty.dat");
        std::fs::File::create(&path).unwrap();
        assert!(Backing::map_file(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn owned_backing_serves_bytes() {
        let backing = Backing::Owned(vec![1, 2, 3]);
        assert_eq!(backing.as_slice(), &[1, 2, 3]);
        assert!(backing.heap_bytes() >= 3);
    }
}
