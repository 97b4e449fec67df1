//! Container framing of a CPDB file: a fixed-size header, a table of
//! contents, and checksummed sections that exactly tile the rest of the
//! file.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CPDB"
//! 4       1     version byte (2)
//! 5       1     flags (bit 1: aligned — always set; bit 0: reserved —
//!               accepted and ignored, never written: FLAG_WAS_SPARSE,
//!               older writers' hint for the reader's memory layout)
//! 6       2     reserved (zero)
//! 8       4     section count, u32 LE
//! 12      8     FNV-1a 64 checksum of bytes 0..12 and all TOC entries
//! 20      32×n  TOC entries: id u32, reserved u32, offset u64,
//!               length u64, payload checksum u64 (all LE)
//! ...           section payloads, in TOC order, back to back
//! ```
//!
//! Two framing invariants make corruption detection total:
//!
//! * **Tiling** — the first section starts right after the TOC, each
//!   section starts where the previous one ends, and the last one ends
//!   at the file's final byte. Any truncation (at *every* prefix
//!   length) therefore fails either the header/TOC bounds check or the
//!   tiling check before a single payload byte is decoded.
//! * **Checksums** — the header+TOC carry their own FNV-1a 64 digest,
//!   and every section records the digest of its payload, verified on
//!   first access. A bit flip anywhere in the file is caught by exactly
//!   one of these.
//!
//! Sections are identified by numeric id, not position, so readers skip
//! ids they do not understand (this is how a `.cpens` ensemble stays a
//! valid database, see [`crate::ens`]).
//!
//! ## Aligned payloads
//!
//! Every section payload wraps its body in a self-padding prefix:
//!
//! ```text
//! payload = pad_len u8, pad_len zero bytes, body
//! ```
//!
//! where `pad_len < 8` is chosen at write time so the body starts at a
//! file offset that is a multiple of 8. Readers that hold the file in
//! 8-aligned memory (an mmap, or an aligned buffer) can then borrow
//! `u32`/`f64` arrays straight out of the body with no decode step.
//! Section checksums cover the whole payload, padding included.
//! `Toc::section` strips the padding transparently; the borrow path
//! uses `Toc::raw_payload` to learn absolute body offsets.
//!
//! Files written by the two retired encodings — version byte 1, and
//! version 2 without `FLAG_ALIGNED` — carry the same magic;
//! `Toc::parse` names them and asks for a re-record instead of
//! misreading them.

use crate::model::DbError;
use std::collections::HashMap;

/// Fixed ids for the well-known sections. Per-metric cost blocks start
/// at [`SEC_BLOCK_BASE`] (block for metric `m` has id `SEC_BLOCK_BASE + m`),
/// leaving room for more fixed sections below.
pub(crate) const SEC_NAMES: u32 = 1;
/// Metric descriptors (name, unit, period, nnz, total) — no cost data.
pub(crate) const SEC_METRICS: u32 = 3;
/// Derived-metric definitions (name, formula).
pub(crate) const SEC_DERIVED: u32 = 4;
/// CCT link arrays (parent / first-child / next-sibling). Id 2 was the
/// retired varint node-record section and is not reused.
pub(crate) const SEC_CCT_LINKS: u32 = 5;
/// CCT scope kinds (tag bytes + fixed-width fields).
pub(crate) const SEC_CCT_KINDS: u32 = 6;
/// Ensemble directory (run labels, fingerprints, per-run per-metric
/// totals) — `.cpens` files only ([`crate::ens`]); plain database
/// readers skip it, which is what makes an ensemble container a valid
/// database.
pub(crate) const SEC_ENSEMBLE: u32 = 7;
/// Marker, empty body — `.cpens` files only: its presence says the
/// metric descriptors come in (inclusive, exclusive) pairs of columns
/// stored already attributed, which the lazy open reads into their slots
/// as they are ([`crate::lazy`]). A plain database never carries it.
pub(crate) const SEC_ATTRIBUTED: u32 = 8;
/// First per-metric cost block id.
pub(crate) const SEC_BLOCK_BASE: u32 = 16;

pub(crate) const MAGIC: &[u8; 4] = b"CPDB";
const VERSION_BYTE: u8 = 2;
/// Version byte of the retired single-stream encoding.
const VERSION_V1: u8 = 1;
/// Reserved bit older writers set; [`Toc::parse`] accepts it.
const FLAG_WAS_SPARSE: u8 = 1;
/// Flag bit marking the aligned payload encoding; every file has it
/// (a version-2 header without it is the retired unaligned encoding).
const FLAG_ALIGNED: u8 = 2;
const HEADER_LEN: usize = 20;
const ENTRY_LEN: usize = 32;
/// Checksummed prefix of the header (everything before the digest field).
const CHECKSUM_SPLIT: usize = 12;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for integrity
/// checking (this guards against rot and truncation, not adversaries).
pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, data)
}

fn fnv1a64_from(mut hash: u64, data: &[u8]) -> u64 {
    for &b in data {
        hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a64`] of four byte strings at once. One string's hash is a
/// chain of dependent multiplies, each waiting on the last; four chains
/// side by side keep the multiplier busy, so four blocks hash in about
/// the time of two.
fn fnv1a64_x4(data: [&[u8]; 4]) -> [u64; 4] {
    let mut h = [FNV_OFFSET; 4];
    let [a, b, c, d] = data;
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ x0 as u64).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ x1 as u64).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ x2 as u64).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ x3 as u64).wrapping_mul(FNV_PRIME);
    }
    let common = data.iter().map(|s| s.len()).min().unwrap_or(0);
    for (h, s) in h.iter_mut().zip(data) {
        *h = fnv1a64_from(*h, &s[common..]);
    }
    h
}

/// Count one checksum comparison of `entry`'s payload, whose hash is
/// `hash`, and say whether it matched.
fn checked(entry: &TocEntry, hash: u64) -> bool {
    callpath_obs::count("expdb.toc.verify", 1);
    callpath_obs::observe("expdb.toc.section_bytes", entry.len);
    let ok = hash == entry.checksum;
    if !ok {
        callpath_obs::count("expdb.toc.verify_fail", 1);
    }
    ok
}

/// One parsed TOC entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TocEntry {
    pub id: u32,
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

impl TocEntry {
    /// The checksummed payload in `data` (padding included); `Toc::parse`
    /// checked that it lies inside the file.
    fn payload<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// The parsed table of contents of a CPDB file.
#[derive(Debug, Clone)]
pub(crate) struct Toc {
    pub entries: Vec<TocEntry>,
    /// Section id → index into `entries`, so lookups are O(1) even for
    /// files with thousands of per-metric blocks.
    index: HashMap<u32, usize>,
}

impl Toc {
    /// Parse and fully validate the header + TOC of `data`: magic,
    /// version, header checksum, and the tiling invariant.
    pub fn parse(data: &[u8]) -> Result<Toc, DbError> {
        // Magic and version come first: a v1 file has no fixed-size
        // header and may be shorter than one.
        if data.len() < 5 {
            return Err(DbError::new("truncated header"));
        }
        if &data[..4] != MAGIC {
            return Err(DbError::new("bad magic"));
        }
        match data[4] {
            VERSION_BYTE => {}
            VERSION_V1 => return Err(retired("format v1")),
            other => return Err(DbError::new(format!("unsupported version {other}"))),
        }
        if data.len() < HEADER_LEN {
            return Err(DbError::new("truncated header"));
        }
        let flags = data[5];
        if flags & !(FLAG_WAS_SPARSE | FLAG_ALIGNED) != 0 {
            return Err(DbError::new(format!("unknown flags {flags:#x}")));
        }
        if data[6] != 0 || data[7] != 0 {
            return Err(DbError::new("reserved header bytes not zero"));
        }
        let count = u32::from_le_bytes(data[8..12].try_into().unwrap()) as usize;
        let toc_end = HEADER_LEN
            .checked_add(count.checked_mul(ENTRY_LEN).ok_or_else(toc_overflow)?)
            .ok_or_else(toc_overflow)?;
        if data.len() < toc_end {
            return Err(DbError::new("truncated table of contents"));
        }
        let stored = u64::from_le_bytes(data[CHECKSUM_SPLIT..HEADER_LEN].try_into().unwrap());
        let mut digest_input = Vec::with_capacity(CHECKSUM_SPLIT + toc_end - HEADER_LEN);
        digest_input.extend_from_slice(&data[..CHECKSUM_SPLIT]);
        digest_input.extend_from_slice(&data[HEADER_LEN..toc_end]);
        if fnv1a64(&digest_input) != stored {
            return Err(DbError::new("header/TOC checksum mismatch"));
        }
        if flags & FLAG_ALIGNED == 0 {
            return Err(retired("unaligned format v2"));
        }

        let mut entries = Vec::with_capacity(count);
        let mut index = HashMap::with_capacity(count);
        let mut expect_offset = toc_end as u64;
        for i in 0..count {
            let e = &data[HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN];
            let entry = TocEntry {
                id: u32::from_le_bytes(e[0..4].try_into().unwrap()),
                offset: u64::from_le_bytes(e[8..16].try_into().unwrap()),
                len: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                checksum: u64::from_le_bytes(e[24..32].try_into().unwrap()),
            };
            // Sections tile the file: no gaps, no overlaps, no reordering.
            if entry.offset != expect_offset {
                return Err(DbError::new(format!(
                    "section {} at offset {} breaks tiling (expected {})",
                    entry.id, entry.offset, expect_offset
                )));
            }
            expect_offset = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(toc_overflow)?;
            if expect_offset > data.len() as u64 {
                return Err(DbError::new(format!(
                    "section {} overruns the file ({} > {})",
                    entry.id,
                    expect_offset,
                    data.len()
                )));
            }
            if index.insert(entry.id, i).is_some() {
                return Err(DbError::new(format!("duplicate section id {}", entry.id)));
            }
            entries.push(entry);
        }
        if expect_offset != data.len() as u64 {
            return Err(DbError::new(format!(
                "{} trailing bytes after the last section",
                data.len() as u64 - expect_offset
            )));
        }
        Ok(Toc { entries, index })
    }

    /// True if a section with `id` exists.
    pub fn contains(&self, id: u32) -> bool {
        self.index.contains_key(&id)
    }

    fn entry(&self, id: u32) -> Result<&TocEntry, DbError> {
        self.index
            .get(&id)
            .map(|&i| &self.entries[i])
            .ok_or_else(|| DbError::new(format!("missing section {id}")))
    }

    /// Body of the section with `id`, checksum-verified on access. The
    /// self-padding prefix is stripped, so callers always see the
    /// logical section content.
    pub fn section<'a>(&self, data: &'a [u8], id: u32) -> Result<&'a [u8], DbError> {
        self.verify_section(data, id)?;
        let (_, body) = self.raw_payload(data, id)?;
        Ok(body)
    }

    /// Checksum the payload of section `id` (padding included) without
    /// decoding anything.
    pub fn verify_section(&self, data: &[u8], id: u32) -> Result<(), DbError> {
        let entry = self.entry(id)?;
        if !checked(entry, fnv1a64(entry.payload(data))) {
            return Err(DbError::new(format!("section {id} checksum mismatch")));
        }
        Ok(())
    }

    /// [`Toc::verify_section`] for several sections, hashed four at a
    /// time: whether each one's checksum matches, in the order of `ids`
    /// (an unknown id does not).
    pub fn verify_sections(&self, data: &[u8], ids: &[u32]) -> Vec<bool> {
        let mut passed = Vec::with_capacity(ids.len());
        for group in ids.chunks(4) {
            let entries: Vec<Option<&TocEntry>> =
                group.iter().map(|&id| self.entry(id).ok()).collect();
            // A short group repeats its last section in the spare lanes,
            // which costs no time: the lanes run side by side.
            let payload = |i: usize| {
                let entry = entries[i.min(entries.len() - 1)];
                entry.map_or(&[][..], |e| e.payload(data))
            };
            let hashes = fnv1a64_x4(std::array::from_fn(payload));
            for (entry, hash) in entries.iter().zip(hashes) {
                passed.push(entry.is_some_and(|e| checked(e, hash)));
            }
        }
        passed
    }

    /// Checksum every section. Batch consumers and property tests use
    /// this to get the eager reader's full-file integrity guarantee on
    /// the lazy path, where large sections are otherwise verified only
    /// on first fault (or, for borrowed topology, structurally).
    pub fn verify_all(&self, data: &[u8]) -> Result<(), DbError> {
        for e in &self.entries {
            self.verify_section(data, e.id)?;
        }
        Ok(())
    }

    /// Body of section `id` *without* checksum verification, plus its
    /// absolute offset in `data`. This is the zero-copy entry point: the
    /// returned offset is a multiple of 8 (validated here), so
    /// fixed-width arrays inside the body can be borrowed directly when
    /// the backing memory is 8-aligned. Callers decide when to pay for
    /// verification ([`Toc::verify_section`]).
    pub fn raw_payload<'a>(&self, data: &'a [u8], id: u32) -> Result<(usize, &'a [u8]), DbError> {
        let entry = self.entry(id)?;
        let start = entry.offset as usize;
        let payload = entry.payload(data);
        let pad = *payload
            .first()
            .ok_or_else(|| DbError::new(format!("section {id}: empty aligned payload")))?
            as usize;
        if pad >= 8 || payload.len() < 1 + pad {
            return Err(DbError::new(format!("section {id}: bad pad length {pad}")));
        }
        if payload[1..1 + pad].iter().any(|&b| b != 0) {
            return Err(DbError::new(format!("section {id}: nonzero padding")));
        }
        let body_off = start + 1 + pad;
        if !body_off.is_multiple_of(8) {
            return Err(DbError::new(format!(
                "section {id}: body offset {body_off} not 8-aligned"
            )));
        }
        Ok((body_off, &payload[1 + pad..]))
    }
}

fn toc_overflow() -> DbError {
    DbError::new("table of contents length overflow")
}

/// The error for a file in one of the encodings this crate no longer
/// reads. Nothing converts them: re-recording is the only way forward.
fn retired(what: &str) -> DbError {
    DbError::new(format!(
        "this file is in the retired {what}, which is no longer read; re-record it to get a current .cpdb"
    ))
}

/// Accumulates sections and emits the framed file.
#[derive(Default)]
pub(crate) struct TocBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl TocBuilder {
    /// An empty container; `finish` wraps every section body in the
    /// self-padding prefix so bodies land on file offsets that are
    /// multiples of 8.
    pub fn new_aligned() -> Self {
        TocBuilder::default()
    }

    pub fn add(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    pub fn finish(self) -> Vec<u8> {
        let toc_end = HEADER_LEN + self.sections.len() * ENTRY_LEN;
        let bodies: usize = self.sections.iter().map(|(_, body)| 8 + body.len()).sum();
        let mut out = Vec::with_capacity(toc_end + bodies);
        out.extend_from_slice(MAGIC);
        out.push(VERSION_BYTE);
        out.push(FLAG_ALIGNED);
        out.extend_from_slice(&[0, 0]); // reserved
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.resize(toc_end, 0); // checksum and TOC entries, patched below

        // Each payload is written in place — its pad length, that many
        // zeros, its body — so the body lands on a file offset that is a
        // multiple of 8, and is checksummed where it lies.
        for (i, (id, body)) in self.sections.iter().enumerate() {
            let offset = out.len();
            let pad = (8 - (offset + 1) % 8) % 8;
            out.push(pad as u8);
            out.resize(offset + 1 + pad, 0);
            out.extend_from_slice(body);
            let checksum = fnv1a64(&out[offset..]);
            let len = (out.len() - offset) as u64;
            let entry = &mut out[HEADER_LEN + i * ENTRY_LEN..][..ENTRY_LEN];
            entry[..4].copy_from_slice(&id.to_le_bytes()); // then 4 reserved bytes
            entry[8..16].copy_from_slice(&(offset as u64).to_le_bytes());
            entry[16..24].copy_from_slice(&len.to_le_bytes());
            entry[24..].copy_from_slice(&checksum.to_le_bytes());
        }
        let mut digest_input = Vec::with_capacity(CHECKSUM_SPLIT + toc_end - HEADER_LEN);
        digest_input.extend_from_slice(&out[..CHECKSUM_SPLIT]);
        digest_input.extend_from_slice(&out[HEADER_LEN..toc_end]);
        let digest = fnv1a64(&digest_input).to_le_bytes();
        out[CHECKSUM_SPLIT..HEADER_LEN].copy_from_slice(&digest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = TocBuilder::new_aligned();
        b.add(SEC_NAMES, vec![1, 2, 3]);
        b.add(SEC_CCT_LINKS, vec![]);
        b.add(SEC_BLOCK_BASE, vec![9; 40]);
        b.finish()
    }

    #[test]
    fn four_lane_hash_equals_one_hash_per_string() {
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for lens in [
            [0, 0, 0, 0],
            [7, 7, 7, 7],
            [300, 1, 0, 77],
            [5, 300, 299, 64],
        ] {
            let parts: [&[u8]; 4] = std::array::from_fn(|i| &bytes[..lens[i]]);
            assert_eq!(fnv1a64_x4(parts), parts.map(fnv1a64), "lengths {lens:?}");
        }
    }

    #[test]
    fn verify_sections_matches_verify_section_one_by_one() {
        let mut bytes = sample();
        let toc = Toc::parse(&bytes).unwrap();
        let ids = [SEC_BLOCK_BASE, SEC_NAMES, 99, SEC_CCT_LINKS, SEC_BLOCK_BASE];
        assert_eq!(
            toc.verify_sections(&bytes, &ids),
            [true, true, false, true, true]
        );
        let block = toc.entry(SEC_BLOCK_BASE).copied().unwrap();
        bytes[block.offset as usize + 1] ^= 0x20;
        assert_eq!(
            toc.verify_sections(&bytes, &ids),
            [false, true, false, true, false]
        );
        for id in [SEC_BLOCK_BASE, SEC_NAMES] {
            let one = toc.verify_sections(&bytes, &[id])[0];
            assert_eq!(one, toc.verify_section(&bytes, id).is_ok(), "section {id}");
        }
    }

    #[test]
    fn sections_strip_padding_and_land_on_8() {
        let bytes = sample();
        let toc = Toc::parse(&bytes).unwrap();
        assert_eq!(bytes[5], FLAG_ALIGNED);
        assert_eq!(toc.entries.len(), 3);
        assert_eq!(toc.section(&bytes, SEC_NAMES).unwrap(), &[1, 2, 3]);
        assert_eq!(toc.section(&bytes, SEC_CCT_LINKS).unwrap(), &[] as &[u8]);
        assert_eq!(toc.section(&bytes, SEC_BLOCK_BASE).unwrap(), &[9; 40]);
        assert!(toc.section(&bytes, 99).is_err());
        for e in &toc.entries {
            let (off, body) = toc.raw_payload(&bytes, e.id).unwrap();
            assert_eq!(off % 8, 0, "section {} body misaligned", e.id);
            assert_eq!(&bytes[off..off + body.len()], body);
        }
        toc.verify_all(&bytes).unwrap();
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for len in 0..bytes.len() {
            assert!(Toc::parse(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn bit_flips_are_detected_by_verify_all() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let detected = match Toc::parse(&bad) {
                Err(_) => true,
                Ok(toc) => toc.verify_all(&bad).is_err(),
            };
            assert!(detected, "flip at byte {i} slipped through");
        }
    }

    #[test]
    fn duplicate_section_ids_are_rejected() {
        let mut b = TocBuilder::new_aligned();
        b.add(SEC_NAMES, vec![1]);
        b.add(SEC_NAMES, vec![2]);
        let bytes = b.finish();
        let err = Toc::parse(&bytes).unwrap_err();
        assert!(err.message.contains("duplicate"), "got: {}", err.message);
    }
}
