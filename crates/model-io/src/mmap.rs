//! Minimal read-only memory mapping, plus an aligned owned fallback.
//!
//! The fleet-scale serving story wants every session of an artifact to
//! read one shared, page-cached weight image instead of a private copy —
//! which means mapping the file and decoding straight out of the mapping.
//! The workspace vendors its few dependencies, so instead of pulling in a
//! full `memmap` crate this module declares the two libc symbols it needs
//! (`mmap`/`munmap`, already linked by `std` on unix) behind a safe,
//! read-only wrapper. Non-unix targets — and callers that already hold
//! the bytes (tests, network loads, the v1 → v2 in-memory upgrade) — use
//! [`AlignedBytes`], an owned buffer with the same 8-byte base alignment
//! a page-aligned mapping guarantees, so the borrowing decoder behaves
//! identically over both.

use std::fs::File;
use std::ops::Deref;

#[cfg(unix)]
mod sys {
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    /// Pre-fault the mapping at `mmap` time (Linux). The validating CRC
    /// pass touches every page anyway; one syscall beats a minor fault
    /// per page, and it is what keeps mmap cold start at or under the
    /// eager `fs::read` path.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: c_int = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: c_int = 0;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only, private memory mapping of an entire file.
///
/// The mapping is `PROT_READ | MAP_PRIVATE`: the kernel shares the
/// backing pages across every process (and every [`Mmap`]) of the same
/// file, and nothing here can write through it. Page alignment of the
/// base pointer gives the borrowing decoder its required 8-byte
/// alignment for free.
#[cfg(unix)]
#[derive(Debug)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl Mmap {
    /// Maps all of `file` read-only.
    ///
    /// # Errors
    ///
    /// The OS error from `mmap`, or `InvalidInput` for an empty file
    /// (zero-length mappings are not portable; callers fall back to an
    /// owned read, which then fails validation with a typed error).
    pub fn map(file: &File) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "file too large to map")
        })?;
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the kernel validates the fd and length.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE | sys::MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr.cast_const().cast(),
            len,
        })
    }
}

#[cfg(unix)]
impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, unmapped only in Drop. A concurrent truncate of the
        // backing file could fault — the same exposure every mmap user
        // accepts; artifacts are immutable deployment assets.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: this struct is the sole owner of the mapping.
        unsafe {
            sys::munmap(self.ptr.cast_mut().cast(), self.len);
        }
    }
}

// SAFETY: the mapping is read-only and the raw pointer is never exposed
// mutably; sharing or moving it across threads is sound.
#[cfg(unix)]
unsafe impl Send for Mmap {}
// SAFETY: as for `Send`: the mapping is never written, so shared
// references only ever read it.
#[cfg(unix)]
unsafe impl Sync for Mmap {}

/// An owned byte buffer whose base address is 8-byte aligned, matching
/// the alignment a page-aligned mapping provides — so code that
/// reinterprets aligned runs works identically over mapped and owned
/// images.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    // `u64` storage buys the alignment; `len` trims the tail padding.
    buf: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into a fresh 8-aligned buffer.
    #[must_use]
    pub fn copy_from(bytes: &[u8]) -> Self {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: the u64 buffer spans at least `bytes.len()` bytes and
        // the regions cannot overlap (fresh allocation).
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast(), bytes.len());
        }
        Self {
            buf,
            len: bytes.len(),
        }
    }
}

impl Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `buf` owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast(), self.len) }
    }
}

/// The storage behind a weight image: a file mapping when the platform
/// and source allow it, an aligned owned buffer otherwise.
#[derive(Debug)]
pub enum ImageBytes {
    /// A read-only file mapping (unix only).
    #[cfg(unix)]
    Mapped(Mmap),
    /// An owned, 8-aligned copy of the image.
    Owned(AlignedBytes),
}

impl ImageBytes {
    /// Whether the bytes come from a file mapping (false: owned buffer).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            ImageBytes::Mapped(_) => true,
            ImageBytes::Owned(_) => false,
        }
    }
}

impl Deref for ImageBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            ImageBytes::Mapped(m) => m,
            ImageBytes::Owned(b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("model-io-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[cfg(unix)]
    #[test]
    fn mapping_reads_the_file_and_is_aligned() {
        let path = temp_path("mapped.bin");
        let payload: Vec<u8> = (0..=255).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, payload.as_slice());
        assert_eq!(map.as_ptr() as usize % 8, 0, "mapping base not aligned");
    }

    #[cfg(unix)]
    #[test]
    fn empty_files_are_refused() {
        let path = temp_path("empty.bin");
        std::fs::write(&path, b"").unwrap();
        assert!(Mmap::map(&File::open(&path).unwrap()).is_err());
    }

    #[test]
    fn aligned_bytes_round_trip_and_alignment() {
        for n in [0usize, 1, 7, 8, 9, 4096] {
            let payload: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let aligned = AlignedBytes::copy_from(&payload);
            assert_eq!(&*aligned, payload.as_slice(), "length {n}");
            assert_eq!(aligned.as_ptr() as usize % 8, 0, "length {n} misaligned");
        }
    }
}
