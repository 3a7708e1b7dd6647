//! Alignment-guaranteed checkpoint bytes: `mmap(2)` or an aligned copy.
//!
//! The v2 container lays every section on a 64-byte boundary so decode
//! can reinterpret bitmap/index/exact sections in place (`&[u8]` →
//! `&[u64]`/`&[f64]`) and feed the SIMD unpack kernels straight from the
//! file. That only works if the *base* of the buffer is at least 8-byte
//! aligned, which a plain `Vec<u8>` from `fs::read` does not promise.
//! [`AlignedBytes`] does, two ways:
//!
//! * **Mapped** (unix): the file `mmap`ed read-only — page-aligned, no
//!   copy at all. Uses raw `extern "C"` declarations for
//!   `mmap`/`munmap`, the same no-libc-crate trick serve uses for
//!   `signal(2)`.
//! * **Owned**: bytes copied once into a `u64`-backed buffer — 8-byte
//!   aligned by construction. This is the portable fallback and the path
//!   every non-filesystem [`StorageBackend`](crate::backend::StorageBackend)
//!   (replicated, fault-injecting) takes, so fault schedules keep
//!   applying to reads.
//!
//! Either way the decoder sees the same thing: a `Deref<Target = [u8]>`
//! whose base is 8-byte aligned, which together with the container's
//! 64-byte section offsets makes every section slice reinterpretable.

use std::ops::Deref;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::unix::io::AsRawFd;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x2;
    /// Linux: pre-fault the whole mapping at `mmap` time. Checkpoint
    /// decode touches every page anyway (the open validates the
    /// whole-file CRC), so one bulk populate beats a page fault per 4 KiB
    /// of section data. Other unixes don't define it; 0 is a no-op flag.
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: i32 = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: i32 = 0;

    extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
        fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
    }

    /// Map `len` bytes of `file` read-only. `len` must be > 0.
    pub fn map_readonly(file: &std::fs::File, len: usize) -> std::io::Result<*const u8> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE | MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    /// Unmap a region produced by [`map_readonly`].
    pub fn unmap(ptr: *const u8, len: usize) {
        // Failure here is unrecoverable and harmless to ignore: the
        // region stays mapped until process exit.
        let _ = unsafe { munmap(ptr as *mut std::ffi::c_void, len) };
    }
}

/// Read-only checkpoint bytes with an 8-byte-aligned base. See the
/// module docs for the two variants.
#[derive(Debug)]
pub struct AlignedBytes {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    Owned { buf: Vec<u64>, len: usize },
}

// The mapped region is immutable (PROT_READ, MAP_PRIVATE) and owned
// exclusively by this value, so sharing across threads is safe.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

impl AlignedBytes {
    /// Copy `bytes` into an aligned owned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self::copy_from(&bytes)
    }

    /// Copy `bytes` into an aligned owned buffer.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let len = bytes.len();
        let mut buf = vec![0u64; len.div_ceil(8)];
        // Safety: the u64 buffer spans at least `len` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr() as *mut u8, len);
        }
        Self { inner: Inner::Owned { buf, len } }
    }

    /// Map the file at `path` read-only (unix), falling back to an
    /// aligned read everywhere else. Empty files come back as an empty
    /// owned buffer (zero-length mappings are not a thing).
    pub fn map_file(path: &Path) -> std::io::Result<Self> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(Self::from_vec(Vec::new()));
            }
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
            })?;
            let ptr = sys::map_readonly(&file, len)?;
            Ok(Self { inner: Inner::Mapped { ptr, len } })
        }
        #[cfg(not(unix))]
        {
            std::fs::read(path).map(Self::from_vec)
        }
    }

    /// True when the bytes are a live file mapping (as opposed to an
    /// aligned in-memory copy).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Owned { .. } => false,
        }
    }
}

impl Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => sys::unmap(*ptr, *len),
            Inner::Owned { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::TempDir;

    #[test]
    fn owned_copy_is_aligned_and_faithful() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            let a = AlignedBytes::from_vec(bytes.clone());
            assert_eq!(&*a, &bytes[..]);
            assert_eq!(a.as_ptr() as usize % 8, 0, "base not 8-byte aligned");
            assert!(!a.is_mapped());
        }
    }

    #[test]
    fn mapped_file_matches_its_contents() {
        let tmp = TempDir::new("mmapio");
        let path = tmp.0.join("blob");
        let bytes: Vec<u8> = (0..4096 + 17).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let a = AlignedBytes::map_file(&path).unwrap();
        assert_eq!(&*a, &bytes[..]);
        assert_eq!(a.as_ptr() as usize % 8, 0);
        #[cfg(unix)]
        assert!(a.is_mapped());
    }

    #[test]
    fn empty_file_maps_to_empty_bytes() {
        let tmp = TempDir::new("mmapio-empty");
        let path = tmp.0.join("empty");
        std::fs::write(&path, b"").unwrap();
        let a = AlignedBytes::map_file(&path).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn missing_file_errors() {
        assert!(AlignedBytes::map_file(Path::new("/nonexistent/numarck-map")).is_err());
    }
}
