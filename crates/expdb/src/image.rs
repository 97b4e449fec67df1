//! File images for the zero-copy read path: the bytes of a database,
//! held in memory whose **base address is 8-aligned** so that aligned
//! (v2.1) section bodies can be borrowed as `&[u32]` / `&[f64]` without
//! a decode step.
//!
//! Two sources of bytes, chosen by the call, not the build:
//!
//! * [`FileImage::open`] — on a Unix target the file is mapped
//!   read-only (`MAP_PRIVATE`); pages fault in as sections are touched,
//!   so cold-open cost is bounded by the bytes actually read, not the
//!   file size. Mappings are page-aligned, which implies the
//!   8-alignment the borrow path needs. An empty file, a failed
//!   mapping or a non-Unix target reads the file into memory instead.
//! * [`FileImage::from_vec`] — wraps bytes already in memory. If the
//!   allocation happens to be 8-aligned (the common case) it is used
//!   as-is; otherwise the bytes are copied once into an aligned buffer.
//!
//! The image is immutable for its whole life, so sharing it across
//! threads behind an `Arc` is sound even for the raw-pointer mapped
//! variant.

use std::fs;
use std::io;
use std::path::Path;

/// A `Vec<u64>`-backed byte buffer: the allocation is 8-aligned by
/// construction, so borrowing fixed-width arrays out of it is as valid
/// as borrowing from a mapping.
#[derive(Debug)]
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: any byte is a valid `u8`, and `u8` aligns anywhere, so
        // the middle slice holds all the words: prefix and suffix are empty.
        let (prefix, dst, suffix) = unsafe { words.align_to_mut::<u8>() };
        debug_assert!(prefix.is_empty() && suffix.is_empty());
        dst[..bytes.len()].copy_from_slice(bytes);
        AlignedBuf {
            words,
            len: bytes.len(),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: as in `from_bytes`.
        let (prefix, all, suffix) = unsafe { self.words.align_to::<u8>() };
        debug_assert!(prefix.is_empty() && suffix.is_empty());
        &all[..self.len]
    }
}

#[derive(Debug)]
enum Repr {
    /// Bytes in a plain `Vec` that happened to be 8-aligned.
    Vec(Vec<u8>),
    /// Bytes copied into an explicitly aligned buffer.
    Aligned(AlignedBuf),
    /// A read-only private file mapping: non-null, page-aligned, `len > 0`.
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
}

/// The bytes of a database file in 8-aligned memory — see the module
/// docs for the owned vs mapped variants.
#[derive(Debug)]
pub struct FileImage {
    repr: Repr,
}

// SAFETY: every variant is an immutable byte region for the life of the
// image. The mapped variant is a MAP_PRIVATE read-only mapping that only
// `Drop` unmaps, so concurrent `&self` access from any thread is sound.
unsafe impl Send for FileImage {}
unsafe impl Sync for FileImage {}

impl FileImage {
    /// Wrap in-memory bytes, copying once into an aligned buffer only
    /// if the allocation is not already 8-aligned.
    pub fn from_vec(bytes: Vec<u8>) -> FileImage {
        let repr = if (bytes.as_ptr() as usize).is_multiple_of(8) {
            Repr::Vec(bytes)
        } else {
            Repr::Aligned(AlignedBuf::from_bytes(&bytes))
        };
        FileImage { repr }
    }

    /// Open `path`: map it on a Unix target; read it into memory when
    /// it is empty, when the mapping fails, or on any other target.
    pub fn open(path: &Path) -> io::Result<FileImage> {
        #[cfg(unix)]
        if let Some(img) = mmap_file(path)? {
            return Ok(img);
        }
        Ok(FileImage::from_vec(fs::read(path)?))
    }

    /// The file bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Vec(v) => v,
            Repr::Aligned(b) => b.as_bytes(),
            // SAFETY: a live read-only mapping (`mmap_file`) only `Drop` unmaps.
            #[cfg(unix)]
            Repr::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// True when the bytes come from a mapping rather than owned memory.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped { .. } => true,
            _ => false,
        }
    }
}

impl AsRef<[u8]> for FileImage {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(unix)]
impl Drop for FileImage {
    fn drop(&mut self) {
        if let Repr::Mapped { ptr, len } = self.repr {
            // SAFETY: ptr/len are exactly what mmap returned; the
            // mapping is unmapped at most once, here.
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

/// Minimal raw bindings — the workspace vendors no libc crate, and the
/// two calls we need have had stable Linux ABIs forever.
#[cfg(unix)]
mod sys {
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }
}

/// Map `path` read-only. `Ok(None)` means "fall back to reading":
/// empty files (zero-length mappings are invalid) or a failed mmap.
#[cfg(unix)]
fn mmap_file(path: &Path) -> io::Result<Option<FileImage>> {
    use std::os::unix::io::AsRawFd;
    let file = fs::File::open(path)?;
    let len = file.metadata()?.len() as usize;
    if len == 0 {
        return Ok(None);
    }
    // SAFETY: fd is a valid open file, len is its current size, and we
    // request a fresh read-only private mapping (addr = null).
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 {
        return Ok(None);
    }
    debug_assert!(!ptr.is_null() && (ptr as usize).is_multiple_of(8) && len > 0);
    // The fd can be closed once the mapping exists; the mapping keeps
    // the pages alive.
    Ok(Some(FileImage {
        repr: Repr::Mapped {
            ptr: ptr as *const u8,
            len,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_8_aligned() {
        for n in [0usize, 1, 7, 8, 9, 4096] {
            let img = FileImage::from_vec(vec![0xabu8; n]);
            assert_eq!(img.bytes().len(), n);
            if n > 0 {
                assert_eq!(img.bytes().as_ptr() as usize % 8, 0);
                assert!(img.bytes().iter().all(|&b| b == 0xab));
            }
        }
    }

    #[test]
    fn misaligned_bytes_are_copied_not_lost() {
        // Force the copy path by slicing off one byte of a Vec.
        let v: Vec<u8> = (0..=255u8).collect();
        let img = FileImage {
            repr: Repr::Aligned(AlignedBuf::from_bytes(&v[1..])),
        };
        assert_eq!(img.bytes(), &v[1..]);
        assert_eq!(img.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn open_reads_back_exact_bytes() {
        let dir = std::env::temp_dir().join("callpath-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.bin");
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let img = FileImage::open(&path).unwrap();
        assert_eq!(img.bytes(), &data[..]);
        assert_eq!(img.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn open_prefers_the_mapping() {
        let dir = std::env::temp_dir().join("callpath-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.bin");
        std::fs::write(&path, [1u8, 2, 3, 4]).unwrap();
        let img = FileImage::open(&path).unwrap();
        assert!(img.is_mapped());
        assert_eq!(img.bytes(), &[1, 2, 3, 4]);
        std::fs::remove_file(&path).ok();
    }
}
