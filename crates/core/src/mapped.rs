//! Zero-copy column and topology views over a byte image.
//!
//! Format v2.1 writes fixed-width metric columns and CCT topology arrays
//! 8-byte-aligned inside the database file, so a reader can *borrow* the
//! `u32`/`f64` arrays straight out of the (possibly memory-mapped) file
//! image instead of varint-decoding them into fresh allocations. This
//! module is the core-side half of that contract: [`ByteImage`] is the
//! refcounted image handle, [`MappedCol`] a validated window onto one
//! column's parallel key/value arrays, which a
//! [`crate::metrics::ColumnSource`] hands over as
//! [`crate::metrics::MetricVec::Mapped`], and [`MappedTopology`] the
//! windows onto a CCT's five topology arrays, lent as a [`Topo`].
//!
//! ## Safety argument
//!
//! All borrowing goes through [`MappedCol::new`] /
//! [`MappedTopology::new`], which validate once at construction:
//!
//! * every window lies **in bounds** of the image;
//! * `u32` windows start at 4-aligned offsets, `f64` windows at
//!   8-aligned offsets, *and* the image base pointer itself is 8-aligned
//!   (mmap returns page-aligned memory; owned images use an
//!   8-aligned buffer) — re-checked via `slice::align_to` on access;
//! * the host is little-endian (the on-disk byte order); big-endian
//!   hosts get an `Err` and the caller falls back to the owned decode
//!   path.
//!
//! `u32` and `f64` accept any bit pattern, so reinterpreting validated,
//! aligned, immutable bytes is sound. The image is immutable for its
//! lifetime: owned buffers are never written after construction, and
//! mapped files use private (copy-on-write) mappings.

use crate::topo::{tags, Limits, Topo, LINK_NONE};
use std::sync::Arc;

/// A cheaply clonable, immutable byte image — the bytes of one database
/// file, either owned (read into an aligned buffer) or memory-mapped.
///
/// The concrete storage lives behind `Arc<dyn AsRef<[u8]>>` so that
/// `callpath-core` needs no knowledge of files or mmap: the expdb crate
/// hands in whatever image type it opened.
#[derive(Clone)]
pub struct ByteImage {
    data: Arc<dyn AsRef<[u8]> + Send + Sync>,
}

impl ByteImage {
    /// Wrap an image. The underlying storage must be immutable and
    /// return the same slice on every `as_ref` call.
    pub fn new(data: Arc<dyn AsRef<[u8]> + Send + Sync>) -> Self {
        ByteImage { data }
    }

    /// The full image contents.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.data.as_ref().as_ref()
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the image is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }
}

impl std::fmt::Debug for ByteImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteImage")
            .field("len", &self.len())
            .finish()
    }
}

/// Reinterpret a validated window of an image's bytes as a typed slice.
///
/// Alignment was checked at construction; `align_to` re-derives it from
/// the actual pointer, so a misaligned image (impossible through the
/// public constructors) panics instead of returning garbage.
macro_rules! typed_window {
    ($bytes:expr, $off:expr, $count:expr, $ty:ty) => {{
        let bytes = &$bytes[$off..$off + $count * std::mem::size_of::<$ty>()];
        // SAFETY: $ty is u32 or f64, for which every bit pattern is a
        // value, and `bytes` is initialized and immutable while borrowed.
        let (pre, mid, post) = unsafe { bytes.align_to::<$ty>() };
        assert!(
            pre.is_empty() && post.is_empty(),
            "image window lost its alignment"
        );
        mid
    }};
}

/// Fail construction on hosts whose native byte order differs from the
/// on-disk little-endian layout; callers fall back to owned decoding.
fn require_little_endian() -> Result<(), String> {
    if cfg!(target_endian = "little") {
        Ok(())
    } else {
        Err("big-endian host: zero-copy borrow unavailable".into())
    }
}

/// Check one typed window: in bounds and naturally aligned.
fn check_window(image: &ByteImage, off: usize, count: usize, elem: usize) -> Result<(), String> {
    let len = count
        .checked_mul(elem)
        .ok_or_else(|| "mapped window overflows".to_string())?;
    let end = off
        .checked_add(len)
        .ok_or_else(|| "mapped window overflows".to_string())?;
    if end > image.len() {
        return Err(format!(
            "mapped window [{off}..{end}] out of bounds (image {} bytes)",
            image.len()
        ));
    }
    if !off.is_multiple_of(elem) || !(image.bytes().as_ptr() as usize).is_multiple_of(elem.max(1)) {
        return Err(format!(
            "mapped window at {off} misaligned for {elem}-byte elements"
        ));
    }
    Ok(())
}

/// A validated zero-copy view of one sparse metric column: `nnz` node
/// ids (`u32`, strictly ascending) and `nnz` values (`f64`) borrowed
/// from a [`ByteImage`].
#[derive(Debug, Clone)]
pub struct MappedCol {
    image: ByteImage,
    keys_off: usize,
    vals_off: usize,
    nnz: usize,
}

impl MappedCol {
    /// Validate and wrap a column window. `keys_off` must be 4-aligned,
    /// `vals_off` 8-aligned, both windows in bounds, and the host
    /// little-endian; otherwise the caller should decode the column
    /// into owned storage instead.
    pub fn new(
        image: ByteImage,
        keys_off: usize,
        vals_off: usize,
        nnz: usize,
    ) -> Result<Self, String> {
        require_little_endian()?;
        check_window(&image, keys_off, nnz, 4)?;
        check_window(&image, vals_off, nnz, 8)?;
        Ok(MappedCol {
            image,
            keys_off,
            vals_off,
            nnz,
        })
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The sorted node ids, borrowed from the image.
    #[inline]
    pub fn keys(&self) -> &[u32] {
        typed_window!(self.image.bytes(), self.keys_off, self.nnz, u32)
    }

    /// The values parallel to [`MappedCol::keys`], borrowed from the image.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        typed_window!(self.image.bytes(), self.vals_off, self.nnz, f64)
    }

    /// Value at `node` by binary search (0.0 when absent).
    #[inline]
    pub fn get(&self, node: u32) -> f64 {
        match self.keys().binary_search(&node) {
            Ok(i) => self.vals()[i],
            Err(_) => 0.0,
        }
    }

    /// Copy out the entries — the escape hatch taken before any mutation
    /// (copy-on-write) and by code paths that need owned data.
    pub fn entries(&self) -> Vec<(u32, f64)> {
        self.keys()
            .iter()
            .copied()
            .zip(self.vals().iter().copied())
            .collect()
    }
}

/// A validated zero-copy view of the v2.1 CCT topology: the five arrays
/// of [`crate::topo`]'s layout — parallel `parent` / `first_child` /
/// `next_sibling` `u32` arrays, a `u8` tag per node and six `u32` fields
/// per node — borrowed from a [`ByteImage`].
///
/// Construction performs the cheap structural checks (bounds, alignment,
/// every tag valid, root tag placement, name tables non-empty for the
/// tag kinds present). Link values out of range read as "none" and
/// traversals carry step budgets ([`Topo`]), so even an adversarial image
/// can only produce a wrong tree, never an out-of-bounds access or a hang;
/// full bit-level integrity is the eager reader's / `verify_container`'s
/// job.
#[derive(Debug, Clone)]
pub struct MappedTopology {
    image: ByteImage,
    n: usize,
    parent_off: usize,
    first_child_off: usize,
    next_sibling_off: usize,
    tags_off: usize,
    fields_off: usize,
    limits: Limits,
}

impl MappedTopology {
    /// Validate and wrap a topology window. `n` is the node count
    /// (including the root); the three link offsets and the field
    /// offset must be 4-aligned windows of `n` (resp. `6n`) `u32`s,
    /// `tags_off` an `n`-byte window. `n_procs`/`n_files`/`n_modules`
    /// are the name-table sizes used to clamp decoded name ids.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        image: ByteImage,
        n: usize,
        parent_off: usize,
        first_child_off: usize,
        next_sibling_off: usize,
        tags_off: usize,
        fields_off: usize,
        n_procs: u32,
        n_files: u32,
        n_modules: u32,
    ) -> Result<Self, String> {
        require_little_endian()?;
        if n == 0 || n > LINK_NONE as usize {
            return Err(format!("topology node count {n} out of range"));
        }
        check_window(&image, parent_off, n, 4)?;
        check_window(&image, first_child_off, n, 4)?;
        check_window(&image, next_sibling_off, n, 4)?;
        check_window(&image, tags_off, n, 1)?;
        check_window(&image, fields_off, n * tags::N_FIELDS, 4)?;
        let topo = MappedTopology {
            image,
            n,
            parent_off,
            first_child_off,
            next_sibling_off,
            tags_off,
            fields_off,
            limits: [n_procs, n_files, n_modules],
        };
        topo.validate_tags()?;
        Ok(topo)
    }

    /// One pass over the tag byte array: every tag valid, the root tag
    /// exactly at node 0, and the name tables non-empty for whichever
    /// scope kinds actually occur (so name-id clamping always has a
    /// valid id to clamp to).
    fn validate_tags(&self) -> Result<(), String> {
        let tags = self.tags();
        if tags[0] != tags::ROOT {
            return Err("topology node 0 is not the root".into());
        }
        let mut seen = [false; tags::N_TAGS as usize];
        for (i, &t) in tags.iter().enumerate().skip(1) {
            if t == tags::ROOT || t >= tags::N_TAGS {
                return Err(format!("node {i}: invalid scope tag {t}"));
            }
            seen[t as usize] = true;
        }
        let needs_proc = seen[tags::FRAME as usize]
            || seen[tags::FRAME_TOP as usize]
            || seen[tags::INLINED as usize];
        let needs_module = seen[tags::FRAME as usize] || seen[tags::FRAME_TOP as usize];
        let needs_file = seen[1..].iter().any(|&s| s);
        let [n_procs, n_files, n_modules] = self.limits;
        if needs_proc && n_procs == 0 {
            return Err("frame scopes present but procedure table empty".into());
        }
        if needs_module && n_modules == 0 {
            return Err("frame scopes present but module table empty".into());
        }
        if needs_file && n_files == 0 {
            return Err("scopes present but file table empty".into());
        }
        Ok(())
    }

    /// Node count, including the root.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (a topology holds at least the root).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Lend all five arrays, from one lookup of the image.
    #[inline]
    pub fn topo(&self) -> Topo<'_> {
        let bytes = self.image.bytes();
        Topo::new(
            [
                typed_window!(bytes, self.parent_off, self.n, u32),
                typed_window!(bytes, self.first_child_off, self.n, u32),
                typed_window!(bytes, self.next_sibling_off, self.n, u32),
            ],
            &bytes[self.tags_off..self.tags_off + self.n],
            typed_window!(bytes, self.fields_off, self.n * tags::N_FIELDS, u32),
            self.limits,
        )
    }

    /// The parent array alone (one window, for a single lookup).
    #[inline]
    pub(crate) fn parents(&self) -> &[u32] {
        typed_window!(self.image.bytes(), self.parent_off, self.n, u32)
    }

    /// The first-child array alone.
    #[inline]
    pub(crate) fn first_children(&self) -> &[u32] {
        typed_window!(self.image.bytes(), self.first_child_off, self.n, u32)
    }

    /// The next-sibling array alone.
    #[inline]
    pub(crate) fn next_siblings(&self) -> &[u32] {
        typed_window!(self.image.bytes(), self.next_sibling_off, self.n, u32)
    }

    /// The tag array alone.
    #[inline]
    pub(crate) fn tags(&self) -> &[u8] {
        &self.image.bytes()[self.tags_off..self.tags_off + self.n]
    }

    /// The field array alone, six words per node.
    #[inline]
    pub(crate) fn fields(&self) -> &[u32] {
        typed_window!(
            self.image.bytes(),
            self.fields_off,
            self.n * tags::N_FIELDS,
            u32
        )
    }

    /// The name-table sizes decoded ids are clamped to.
    #[inline]
    pub(crate) fn limits(&self) -> Limits {
        self.limits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_of(bytes: Vec<u8>) -> ByteImage {
        // Copy into an 8-aligned buffer the way expdb's FileImage does.
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: any byte is a valid `u8`, and `u8` aligns anywhere, so
        // the middle slice holds all the words: prefix and suffix are empty.
        let (pre, dst, post) = unsafe { buf.align_to_mut::<u8>() };
        debug_assert!(pre.is_empty() && post.is_empty());
        dst[..bytes.len()].copy_from_slice(&bytes);
        struct Aligned(Vec<u64>, usize);
        impl AsRef<[u8]> for Aligned {
            fn as_ref(&self) -> &[u8] {
                // SAFETY: as above.
                let (pre, all, post) = unsafe { self.0.align_to::<u8>() };
                debug_assert!(pre.is_empty() && post.is_empty());
                &all[..self.1]
            }
        }
        ByteImage::new(Arc::new(Aligned(buf, bytes.len())))
    }

    #[test]
    fn mapped_col_reads_back_entries() {
        let mut bytes = Vec::new();
        for k in [3u32, 9, 40] {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 4]); // pad keys (12 B) to 8
        for v in [1.5f64, -2.0, 7.25] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let img = image_of(bytes);
        let col = MappedCol::new(img, 0, 16, 3).unwrap();
        assert_eq!(col.keys(), &[3, 9, 40]);
        assert_eq!(col.vals(), &[1.5, -2.0, 7.25]);
        assert_eq!(col.get(9), -2.0);
        assert_eq!(col.get(10), 0.0);
        assert_eq!(col.entries(), vec![(3, 1.5), (9, -2.0), (40, 7.25)]);
    }

    #[test]
    fn mapped_col_rejects_bad_windows() {
        let img = image_of(vec![0u8; 32]);
        assert!(MappedCol::new(img.clone(), 0, 8, 100).is_err(), "oob");
        assert!(
            MappedCol::new(img.clone(), 2, 8, 1).is_err(),
            "keys misaligned"
        );
        assert!(MappedCol::new(img, 0, 4, 1).is_err(), "vals misaligned");
    }

    #[test]
    fn mapped_topology_lends_the_arrays_it_was_given() {
        use crate::ids::NodeId;
        // The root, a top-level frame under it, a statement under that.
        let n = 3;
        let arrays: [[u32; 3]; 3] = [[LINK_NONE, 0, 1], [1, 2, LINK_NONE], [LINK_NONE; 3]];
        let mut bytes: Vec<u8> = arrays
            .iter()
            .flatten()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let tags_off = bytes.len();
        bytes.extend_from_slice(&[tags::ROOT, tags::FRAME_TOP, tags::STMT, 0, 0, 0, 0, 0]);
        let fields_off = bytes.len();
        let fields = [[0; 6], [0, 0, 0, 1, 0, 0], [0, 7, 0, 0, 0, 0]];
        bytes.extend(fields.iter().flatten().flat_map(|v: &u32| v.to_le_bytes()));
        let mapped =
            MappedTopology::new(image_of(bytes), n, 0, 12, 24, tags_off, fields_off, 1, 1, 1)
                .unwrap();
        let topo = mapped.topo();
        assert_eq!(topo.parents(), &arrays[0]);
        assert_eq!(topo.first_children(), &arrays[1]);
        assert_eq!(topo.next_siblings(), &arrays[2]);
        assert_eq!(topo.fields(), fields.concat());
        assert!(topo.is_proc_frame(NodeId(1)) && topo.is_stmt(NodeId(2)));
        assert_eq!(topo.children(NodeId(1)).collect::<Vec<_>>(), [NodeId(2)]);
        assert_eq!(topo.parent(NodeId(2)), Some(NodeId(1)));
        let bad_tags = image_of(vec![1u8; 64]);
        assert!(MappedTopology::new(bad_tags, 1, 0, 0, 0, 0, 0, 1, 1, 1).is_err());
    }
}
