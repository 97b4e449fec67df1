#![warn(missing_docs)]
//! # callpath-expdb
//!
//! Experiment database formats: the bridge between `hpcprof` and
//! `hpcviewer`.
//!
//! Two encodings of the same [`model::DbModel`]:
//!
//! * [`xml`] — a human-readable XML-like text format, mirroring
//!   HPCToolkit's `experiment.xml`: the paper-faithful interchange
//!   file;
//! * CPDB — the *compact binary format* the paper's Section IX lists as
//!   future work ("replacing our XML format for profiles with a more
//!   compact binary format"): a sectioned, checksummed container
//!   ([`toc`]) whose sections ([`bin2`]) hold 8-aligned fixed-width
//!   topology arrays and one independently decodable cost block per
//!   metric column, so the lazy reader ([`lazy`]) borrows topology from
//!   the file image and decodes a column only when a view first reads
//!   it. A `.cpens` ensemble ([`ens`]) is a CPDB file with extra
//!   sections. `tests/expdb_roundtrip.rs` asserts the size gap.
//!
//! Both round-trip losslessly: name tables, the canonical CCT, metric
//! descriptors, sparse direct costs, and derived-metric definitions.
//! Attribution (Eq. 1/Eq. 2) is recomputed on load — up front for XML
//! and [`from_binary`], per column on first touch for a lazily opened
//! CPDB — so the files carry only irreducible measurement data.
//!
//! [`open_path`] is the one way a tool turns a file into an
//! [`Experiment`].

mod bin;
pub mod bin2;
pub mod ens;
pub mod image;
pub mod lazy;
pub mod model;
pub mod toc;
pub mod xml;

pub use image::FileImage;
pub use lazy::{decode_all, open_lazy, open_lazy_path};
pub use model::{DbError, DbModel};

use callpath_core::prelude::Experiment;
use std::io::Read;
use std::path::Path;

/// Serialize to the XML-like text format.
pub fn to_xml(exp: &Experiment) -> String {
    xml::write(&DbModel::from_experiment(exp))
}

/// Parse the XML-like text format.
pub fn from_xml(text: &str) -> Result<Experiment, DbError> {
    xml::read(text)?.into_experiment()
}

/// Serialize to the CPDB binary format (container version 2, aligned
/// payloads — "v2.1"): 8-aligned fixed-width topology arrays and (for
/// large columns) fixed-width cost blocks, so a lazy reader can borrow
/// them zero-copy from the file image.
pub fn to_binary_v21(exp: &Experiment) -> Vec<u8> {
    bin2::write_v21(&DbModel::from_experiment(exp))
}

/// Checksum every section of a container (plus the header/TOC digest)
/// without decoding any payload.
///
/// The lazy open path skips checksumming the topology it borrows,
/// because a digest pass over tens of megabytes would defeat the point
/// of a lazy open; batch consumers that want the eager reader's
/// bit-level guarantee on a lazily opened file call this first.
pub fn verify_container(data: &[u8]) -> Result<(), DbError> {
    let toc = toc::Toc::parse(data)?;
    toc.verify_all(data)
}

/// Decode a CPDB image eagerly: every section verified, every block
/// decoded, every column attributed up front. This is the reference
/// the lazy path is tested against; tools open files with
/// [`open_path`].
pub fn from_binary(data: &[u8]) -> Result<Experiment, DbError> {
    bin2::read(data)?.into_experiment()
}

/// Open a database file of either encoding. A file that starts with
/// the `CPDB` magic (a `.cpdb` database or a `.cpens` ensemble, which
/// opens as its stats experiment) goes through [`open_lazy_path`] —
/// mapped in place on Unix, columns faulted on first read; anything
/// else is read whole and parsed as XML.
pub fn open_path(path: &Path) -> Result<Experiment, DbError> {
    let io_err = |e| DbError::new(format!("cannot read {}: {e}", path.display()));
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let mut bytes = Vec::new();
    file.by_ref()
        .take(toc::MAGIC.len() as u64)
        .read_to_end(&mut bytes)
        .map_err(io_err)?;
    if bytes == toc::MAGIC {
        return open_lazy_path(path);
    }
    file.read_to_end(&mut bytes).map_err(io_err)?;
    let text = String::from_utf8(bytes).map_err(|_| {
        DbError::new(format!(
            "{} is neither a CPDB database nor UTF-8 XML",
            path.display()
        ))
    })?;
    from_xml(&text)
}
