//! Zero-copy column and topology views over a byte image.
//!
//! Format v2.1 writes fixed-width metric columns and CCT topology arrays
//! 8-byte-aligned inside the database file, so a reader can *borrow* the
//! `u32`/`f64` arrays straight out of the (possibly memory-mapped) file
//! image instead of varint-decoding them into fresh allocations. This
//! module is the core-side half of that contract: [`ByteImage`] is the
//! refcounted image handle and [`MappedCol`] a validated window onto one
//! column's parallel key/value arrays, which a
//! [`crate::metrics::ColumnSource`] hands over as
//! [`crate::metrics::MetricVec::Mapped`].
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

use crate::ids::NodeId;
use crate::names::SourceLoc;
use crate::scope::ScopeKind;
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

/// Reinterpret a validated byte window as a typed slice.
///
/// Alignment was checked at construction; `align_to` re-derives it from
/// the actual pointer, so a misaligned image (impossible through the
/// public constructors) panics instead of returning garbage.
macro_rules! typed_window {
    ($image:expr, $off:expr, $count:expr, $ty:ty) => {{
        let bytes = &$image.bytes()[$off..$off + $count * std::mem::size_of::<$ty>()];
        // SAFETY: any bit pattern is a valid $ty (u32/f64), the slice is
        // in bounds, and the window was alignment-checked at construction.
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
        typed_window!(self.image, self.keys_off, self.nnz, u32)
    }

    /// The values parallel to [`MappedCol::keys`], borrowed from the image.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        typed_window!(self.image, self.vals_off, self.nnz, f64)
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

/// Scope-kind tag values used by the v2.1 topology encoding. The writer
/// (`callpath-expdb`) emits them; [`MappedTopology`] decodes them.
pub mod tags {
    /// The synthetic experiment root; exactly node 0, nowhere else.
    pub const ROOT: u8 = 0;
    /// Procedure frame with a call site.
    pub const FRAME: u8 = 1;
    /// Top-level procedure frame (no call site).
    pub const FRAME_TOP: u8 = 2;
    /// Inlined procedure body.
    pub const INLINED: u8 = 3;
    /// Loop scope.
    pub const LOOP: u8 = 4;
    /// Statement scope.
    pub const STMT: u8 = 5;
    /// One past the largest valid tag.
    pub const N_TAGS: u8 = 6;
    /// `u32` payload fields per node (fixed-width; unused fields are 0).
    pub const N_FIELDS: usize = 6;
}

/// Sentinel for "no node" in the link arrays (same as the owned arena).
pub const LINK_NONE: u32 = u32::MAX;

/// A validated zero-copy view of the v2.1 CCT topology: parallel
/// `parent` / `first_child` / `next_sibling` `u32` arrays, a `u8` tag
/// per node and six `u32` payload fields per node, all borrowed from a
/// [`ByteImage`].
///
/// Construction performs the cheap structural checks (bounds, alignment,
/// every tag valid, root tag placement, name tables non-empty for the
/// tag kinds present). Link values out of range read as "none" and
/// traversals carry step budgets, so even an adversarial image can only
/// produce a wrong tree, never an out-of-bounds access or a hang; full
/// bit-level integrity is the eager reader's / `verify_container`'s job.
#[derive(Debug, Clone)]
pub struct MappedTopology {
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
            n_procs,
            n_files,
            n_modules,
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
        if needs_proc && self.n_procs == 0 {
            return Err("frame scopes present but procedure table empty".into());
        }
        if needs_module && self.n_modules == 0 {
            return Err("frame scopes present but module table empty".into());
        }
        if needs_file && self.n_files == 0 {
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

    #[inline]
    fn tags(&self) -> &[u8] {
        &self.image.bytes()[self.tags_off..self.tags_off + self.n]
    }

    #[inline]
    fn fields(&self) -> &[u32] {
        typed_window!(self.image, self.fields_off, self.n * tags::N_FIELDS, u32)
    }

    /// Read a link array entry, mapping out-of-range values to
    /// [`LINK_NONE`] so corrupt links can never index out of bounds.
    #[inline]
    fn link(&self, off: usize, i: usize) -> u32 {
        let v = typed_window!(self.image, off, self.n, u32)[i];
        if (v as usize) < self.n {
            v
        } else {
            LINK_NONE
        }
    }

    /// Parent link of node `i` ([`LINK_NONE`] for the root).
    #[inline]
    pub fn parent(&self, i: usize) -> u32 {
        self.link(self.parent_off, i)
    }

    /// First-child link of node `i`.
    #[inline]
    pub fn first_child(&self, i: usize) -> u32 {
        self.link(self.first_child_off, i)
    }

    /// Next-sibling link of node `i`.
    #[inline]
    pub fn next_sibling(&self, i: usize) -> u32 {
        self.link(self.next_sibling_off, i)
    }

    /// Clamp a decoded name id into `[0, n)`; validation guaranteed
    /// `n > 0` for every table a present tag kind references.
    #[inline]
    fn clamp(id: u32, n: u32) -> u32 {
        if id < n {
            id
        } else {
            0
        }
    }

    /// Decode the scope kind of node `i`. Name ids are clamped to the
    /// captured table sizes, so a corrupt field can mislabel a scope
    /// but never panic downstream name lookups.
    pub fn kind(&self, i: usize) -> ScopeKind {
        use crate::ids::{FileId, LoadModuleId, ProcId};
        let f = &self.fields()[i * tags::N_FIELDS..(i + 1) * tags::N_FIELDS];
        let loc =
            |file: u32, line: u32| SourceLoc::new(FileId(Self::clamp(file, self.n_files)), line);
        match self.tags()[i] {
            tags::ROOT => ScopeKind::Root,
            tags::FRAME => ScopeKind::Frame {
                proc: ProcId(Self::clamp(f[0], self.n_procs)),
                module: LoadModuleId(Self::clamp(f[1], self.n_modules)),
                def: loc(f[2], f[3]),
                call_site: Some(loc(f[4], f[5])),
            },
            tags::FRAME_TOP => ScopeKind::Frame {
                proc: ProcId(Self::clamp(f[0], self.n_procs)),
                module: LoadModuleId(Self::clamp(f[1], self.n_modules)),
                def: loc(f[2], f[3]),
                call_site: None,
            },
            tags::INLINED => ScopeKind::InlinedFrame {
                proc: ProcId(Self::clamp(f[0], self.n_procs)),
                def: loc(f[1], f[2]),
                call_site: loc(f[3], f[4]),
            },
            tags::LOOP => ScopeKind::Loop {
                header: loc(f[0], f[1]),
            },
            // validate_tags let only STMT through here.
            _ => ScopeKind::Stmt {
                loc: loc(f[0], f[1]),
            },
        }
    }
}

/// Encode a scope kind into its v2.1 `(tag, fields)` representation —
/// the exact inverse of [`MappedTopology::kind`]. Lives here, next to
/// the decoder, so the two halves of the contract cannot drift apart;
/// the expdb writer calls this.
pub fn encode_kind(kind: &ScopeKind) -> (u8, [u32; tags::N_FIELDS]) {
    match *kind {
        ScopeKind::Root => (tags::ROOT, [0; 6]),
        ScopeKind::Frame {
            proc,
            module,
            def,
            call_site: Some(cs),
        } => (
            tags::FRAME,
            [proc.0, module.0, def.file.0, def.line, cs.file.0, cs.line],
        ),
        ScopeKind::Frame {
            proc,
            module,
            def,
            call_site: None,
        } => (
            tags::FRAME_TOP,
            [proc.0, module.0, def.file.0, def.line, 0, 0],
        ),
        ScopeKind::InlinedFrame {
            proc,
            def,
            call_site,
        } => (
            tags::INLINED,
            [
                proc.0,
                def.file.0,
                def.line,
                call_site.file.0,
                call_site.line,
                0,
            ],
        ),
        ScopeKind::Loop { header } => (tags::LOOP, [header.file.0, header.line, 0, 0, 0, 0]),
        ScopeKind::Stmt { loc } => (tags::STMT, [loc.file.0, loc.line, 0, 0, 0, 0]),
    }
}

/// Node ids in a mapped topology (convenience for tests).
pub fn all_nodes(topo: &MappedTopology) -> impl Iterator<Item = NodeId> + '_ {
    (0..topo.len() as u32).map(NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_of(bytes: Vec<u8>) -> ByteImage {
        // Copy into an 8-aligned buffer the way expdb's FileImage does.
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: u64 buffer reinterpreted as bytes; lengths match.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, bytes.len()) };
        dst.copy_from_slice(&bytes);
        struct Aligned(Vec<u64>, usize);
        impl AsRef<[u8]> for Aligned {
            fn as_ref(&self) -> &[u8] {
                // SAFETY: same reinterpretation as above.
                unsafe { std::slice::from_raw_parts(self.0.as_ptr() as *const u8, self.1) }
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
    fn encode_decode_kind_roundtrip() {
        use crate::ids::{FileId, LoadModuleId, ProcId};
        let kinds = [
            ScopeKind::Root,
            ScopeKind::Frame {
                proc: ProcId(2),
                module: LoadModuleId(1),
                def: SourceLoc::new(FileId(3), 10),
                call_site: Some(SourceLoc::new(FileId(0), 4)),
            },
            ScopeKind::Frame {
                proc: ProcId(0),
                module: LoadModuleId(0),
                def: SourceLoc::new(FileId(1), 1),
                call_site: None,
            },
            ScopeKind::InlinedFrame {
                proc: ProcId(1),
                def: SourceLoc::new(FileId(2), 7),
                call_site: SourceLoc::new(FileId(2), 30),
            },
            ScopeKind::Loop {
                header: SourceLoc::new(FileId(1), 8),
            },
            ScopeKind::Stmt {
                loc: SourceLoc::new(FileId(1), 9),
            },
        ];
        // Build a topology image: one node per kind, all under the root.
        let n = kinds.len();
        let mut parent = vec![LINK_NONE; n];
        let mut first_child = vec![LINK_NONE; n];
        let mut next_sibling = vec![LINK_NONE; n];
        for i in 1..n {
            parent[i] = 0;
            if i + 1 < n {
                next_sibling[i] = i as u32 + 1;
            }
        }
        first_child[0] = 1;
        let mut bytes = Vec::new();
        for arr in [&parent, &first_child, &next_sibling] {
            for &v in arr.iter() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        let tags_off = bytes.len();
        let mut tags_bytes = Vec::new();
        let mut fields_bytes = Vec::new();
        for k in &kinds {
            let (t, f) = encode_kind(k);
            tags_bytes.push(t);
            for v in f {
                fields_bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        bytes.extend_from_slice(&tags_bytes);
        while bytes.len() % 8 != 0 {
            bytes.push(0);
        }
        let fields_off = bytes.len();
        bytes.extend_from_slice(&fields_bytes);
        let topo = MappedTopology::new(
            image_of(bytes),
            n,
            0,
            4 * n,
            8 * n,
            tags_off,
            fields_off,
            4,
            4,
            4,
        )
        .unwrap();
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(topo.kind(i), *k, "node {i}");
        }
        assert_eq!(topo.parent(1), 0);
        assert_eq!(topo.first_child(0), 1);
        assert_eq!(topo.next_sibling(1), 2);
        assert_eq!(topo.next_sibling(n - 1), LINK_NONE);
    }
}
