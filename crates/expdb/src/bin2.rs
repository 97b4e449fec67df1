//! The CPDB section codecs: what goes inside the container framed by
//! [`crate::toc`].
//!
//! The database is split into independently decodable sections — name
//! tables, CCT topology, metric descriptors, one cost block **per
//! metric column**, derived-metric definitions — each addressed by the
//! table of contents and verified by checksum on access. That framing
//! is what makes the lazy reader ([`crate::lazy`]) possible: open-time
//! work is bounded by topology size, and a metric block is only decoded
//! when some view first reads a column derived from it.
//!
//! * **Names, descriptors, derived definitions** use the primitive
//!   codecs of `bin.rs` (LEB128 varints, length-prefixed strings,
//!   IEEE-754 LE floats). Metric descriptors additionally store each
//!   column's non-zero count and total direct cost, so whole-program
//!   aggregates (the `@n` values formulas reference) are available at
//!   open time without touching any cost block.
//! * **Topology** is stored as fixed-width arrays:
//!   [`crate::toc::SEC_CCT_LINKS`] holds the parent / first-child /
//!   next-sibling `u32` arrays and [`crate::toc::SEC_CCT_KINDS`] a tag
//!   byte plus six `u32` fields per node (the field layout of
//!   `callpath_core::topo`). Both include the root at index 0. A lazy
//!   reader borrows these arrays straight from the file image.
//! * **Cost blocks** carry a one-byte kind header: kind 0 is the
//!   varint/delta encoding (compact, chosen for small columns), kind 1
//!   is fixed-width — `nnz` as `u64`, then `nnz` `u32` keys,
//!   zero-padding to 8, then `nnz` `f64` values — chosen when
//!   `nnz >= FIXED_CUTOVER` so big columns can be borrowed instead of
//!   decoded. The choice is a pure function of `nnz`, which keeps
//!   re-encoding byte-identical.
//!
//! [`read`] decodes a whole file eagerly — the reference the lazy path
//! is tested against; the zero-copy open path lives in [`crate::lazy`].

use crate::bin::{
    get_costs, get_count, get_f64, get_string, get_strings, get_varint, put_costs, put_f64,
    put_string, put_strings, put_varint,
};
use crate::model::{DbError, DbMetric, DbModel, DbNode};
use crate::toc::{
    Toc, TocBuilder, SEC_ATTRIBUTED, SEC_BLOCK_BASE, SEC_CCT_KINDS, SEC_CCT_LINKS, SEC_DERIVED,
    SEC_METRICS, SEC_NAMES,
};
use callpath_core::topo::{decode_kind, encode_kind, tags, LINK_NONE, UNCLAMPED};

/// Descriptor-level metric info: everything about a metric except its
/// costs, which live in the metric's own block.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricInfo {
    pub name: String,
    pub unit: String,
    pub period: f64,
    /// Non-zero cost entries in the metric's block.
    pub nnz: u64,
    /// Sum of all direct costs — the whole-program aggregate, available
    /// without decoding the block.
    pub total: f64,
}

/// Cost blocks with at least this many entries use the fixed-width
/// (borrowable) encoding; smaller ones keep the compact varint
/// encoding. The break-even is where the ~45% varint size win
/// stops mattering (a few cache lines) and decode cost starts to; the
/// exact value only needs to be a deterministic function of `nnz` so
/// that re-encoding a file reproduces it byte for byte.
pub(crate) const FIXED_CUTOVER: u64 = 32;

/// Cost-block kinds (first body byte).
const BLOCK_VARINT: u8 = 0;
const BLOCK_FIXED: u8 = 1;

/// Encode a model as a CPDB container; see the module docs for the
/// section encodings.
pub fn write_v21(model: &DbModel) -> Vec<u8> {
    let mut b = TocBuilder::new_aligned();
    add_v21_sections(&mut b, model, false);
    b.finish()
}

/// Add every standard section of `model` to a container under
/// construction: names, topology, metric descriptors, derived
/// definitions, and one cost block per metric. Factored out of
/// [`write_v21`] so the ensemble container ([`crate::ens`]) can embed
/// a complete, valid database and append its own sections after.
///
/// `attributed` says `model.metrics` are (inclusive, exclusive) pairs of
/// attributed columns, not direct costs: the [`SEC_ATTRIBUTED`] marker
/// is written, and both descriptors of a pair carry as their total the
/// pair's aggregate, the inclusive column's value at the root — where a
/// metric of direct costs carries their sum, which is the same thing.
pub(crate) fn add_v21_sections(b: &mut TocBuilder, model: &DbModel, attributed: bool) {
    let mut names = Vec::new();
    put_strings(&mut names, &model.procs);
    put_strings(&mut names, &model.files);
    put_strings(&mut names, &model.modules);
    b.add(SEC_NAMES, names);

    let (links, kinds) = encode_topology(model);
    b.add(SEC_CCT_LINKS, links);
    b.add(SEC_CCT_KINDS, kinds);

    let mut metrics = Vec::new();
    put_varint(&mut metrics, model.metrics.len() as u64);
    for (i, m) in model.metrics.iter().enumerate() {
        let total = if attributed {
            let inclusive = &model.metrics[i & !1].costs;
            inclusive.first().filter(|e| e.0 == 0).map_or(0.0, |e| e.1)
        } else {
            m.costs.iter().map(|&(_, v)| v).sum()
        };
        put_string(&mut metrics, &m.name);
        put_string(&mut metrics, &m.unit);
        put_f64(&mut metrics, m.period);
        put_varint(&mut metrics, m.costs.len() as u64);
        put_f64(&mut metrics, total);
    }
    b.add(SEC_METRICS, metrics);
    if attributed {
        b.add(SEC_ATTRIBUTED, Vec::new());
    }

    let mut derived = Vec::new();
    put_varint(&mut derived, model.derived.len() as u64);
    for (name, formula) in &model.derived {
        put_string(&mut derived, name);
        put_string(&mut derived, formula);
    }
    b.add(SEC_DERIVED, derived);

    for (i, m) in model.metrics.iter().enumerate() {
        b.add(SEC_BLOCK_BASE + i as u32, encode_block_v21(&m.costs));
    }
}

/// Encode one cost-block body: kind byte, 7 padding bytes, then
/// the fixed-width or varint payload. The encoding choice is a pure
/// function of the entry count (see [`FIXED_CUTOVER`]), which is what
/// keeps re-encoding byte-identical.
pub(crate) fn encode_block_v21(costs: &[(u32, f64)]) -> Vec<u8> {
    let nnz = costs.len();
    let mut block;
    if nnz as u64 >= FIXED_CUTOVER {
        let pad = if nnz % 2 == 1 { 4 } else { 0 };
        block = Vec::with_capacity(16 + 4 * nnz + pad + 8 * nnz);
        block.push(BLOCK_FIXED);
        block.resize(8, 0);
        block.extend_from_slice(&(nnz as u64).to_le_bytes());
        for &(node, _) in costs {
            block.extend_from_slice(&node.to_le_bytes());
        }
        block.resize(block.len() + pad, 0);
        for &(_, v) in costs {
            block.extend_from_slice(&v.to_le_bytes());
        }
    } else {
        block = Vec::with_capacity(8 + 9 * nnz);
        block.push(BLOCK_VARINT);
        block.resize(8, 0);
        put_costs(&mut block, costs);
    }
    block
}

/// Build the two topology section bodies from a model. Unlike the
/// model's node list, both arrays include the root at index 0 (so node
/// ids equal array indices and the borrow path needs no offsetting).
/// First-child / next-sibling chains are derived in one pass with a
/// scratch last-child array: model nodes are stored in ascending id
/// order, so appending each child to its parent's chain preserves the
/// canonical sibling order.
fn encode_topology(model: &DbModel) -> (Vec<u8>, Vec<u8>) {
    let n = model.nodes.len() + 1;
    let mut parent = vec![LINK_NONE; n];
    let mut first_child = vec![LINK_NONE; n];
    let mut next_sibling = vec![LINK_NONE; n];
    let mut last_child = vec![LINK_NONE; n];
    for (i, node) in model.nodes.iter().enumerate() {
        let id = i as u32 + 1;
        let p = node.parent as usize;
        parent[id as usize] = node.parent;
        if p < n {
            if first_child[p] == LINK_NONE {
                first_child[p] = id;
            } else {
                next_sibling[last_child[p] as usize] = id;
            }
            last_child[p] = id;
        }
    }

    let mut links = Vec::with_capacity(8 + 12 * n);
    links.extend_from_slice(&(n as u64).to_le_bytes());
    for arr in [&parent, &first_child, &next_sibling] {
        for &v in arr.iter() {
            links.extend_from_slice(&v.to_le_bytes());
        }
    }

    // One encode per node: its tag goes to the tag array, its words to
    // the field array, which follows the tags' padding to 8.
    let mut kinds = Vec::with_capacity(16 + n + 4 * tags::N_FIELDS * n);
    kinds.extend_from_slice(&(n as u64).to_le_bytes());
    kinds.push(tags::ROOT);
    let mut fields = vec![0u8; 4 * tags::N_FIELDS]; // the root's
    fields.reserve(4 * tags::N_FIELDS * model.nodes.len());
    for node in &model.nodes {
        let (tag, words) = encode_kind(&node.scope);
        kinds.push(tag);
        for v in words {
            fields.extend_from_slice(&v.to_le_bytes());
        }
    }
    kinds.resize(8 + n.div_ceil(8) * 8, 0);
    kinds.extend_from_slice(&fields);
    (links, kinds)
}

/// The three name tables of a database: (procs, files, modules).
pub(crate) type NameTables = (Vec<String>, Vec<String>, Vec<String>);

/// Decode the name-table section into (procs, files, modules).
pub(crate) fn read_names(payload: &[u8]) -> Result<NameTables, DbError> {
    let mut buf = payload;
    let procs = get_strings(&mut buf)?;
    let files = get_strings(&mut buf)?;
    let modules = get_strings(&mut buf)?;
    expect_consumed(buf, "name tables")?;
    Ok((procs, files, modules))
}

/// Decode the metric-descriptor section.
pub(crate) fn read_metric_infos(payload: &[u8]) -> Result<Vec<MetricInfo>, DbError> {
    let mut buf = payload;
    // name + unit length prefixes, period, nnz, total: ≥ 19 bytes each.
    let n = get_count(&mut buf, 19, "metric")?;
    let mut infos = Vec::with_capacity(n);
    for _ in 0..n {
        infos.push(MetricInfo {
            name: get_string(&mut buf)?,
            unit: get_string(&mut buf)?,
            period: get_f64(&mut buf)?,
            nnz: get_varint(&mut buf)?,
            total: get_f64(&mut buf)?,
        });
    }
    expect_consumed(buf, "metric descriptors")?;
    Ok(infos)
}

/// Decode the derived-definition section.
pub(crate) fn read_derived(payload: &[u8]) -> Result<Vec<(String, String)>, DbError> {
    let mut buf = payload;
    let n = get_count(&mut buf, 2, "derived metric")?;
    let mut derived = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_string(&mut buf)?;
        let formula = get_string(&mut buf)?;
        derived.push((name, formula));
    }
    expect_consumed(buf, "derived definitions")?;
    Ok(derived)
}

/// Parsed offsets of the topology arrays, all relative to their
/// section bodies (`parent`/`first_child`/`next_sibling` within
/// `SEC_CCT_LINKS`; `tags`/`fields` within `SEC_CCT_KINDS`). Both body
/// lengths are validated to match `n` exactly, so any window derived
/// from a layout is in bounds.
pub(crate) struct TopoLayout {
    pub n: usize,
    pub parent_off: usize,
    pub first_child_off: usize,
    pub next_sibling_off: usize,
    pub tags_off: usize,
    pub fields_off: usize,
}

/// Validate the two topology bodies and compute the array offsets.
pub(crate) fn topo_layout(links: &[u8], kinds: &[u8]) -> Result<TopoLayout, DbError> {
    if links.len() < 8 || kinds.len() < 8 {
        return Err(DbError::new("truncated topology"));
    }
    let n_links = u64::from_le_bytes(links[..8].try_into().unwrap());
    let n_kinds = u64::from_le_bytes(kinds[..8].try_into().unwrap());
    if n_links != n_kinds {
        return Err(DbError::new(format!(
            "topology sections disagree on node count ({n_links} vs {n_kinds})"
        )));
    }
    if n_links == 0 || n_links > u32::MAX as u64 {
        return Err(DbError::new(format!("node count {n_links} out of range")));
    }
    let n = n_links as usize;
    let links_expect = 12usize
        .checked_mul(n)
        .and_then(|x| x.checked_add(8))
        .ok_or_else(|| DbError::new("topology size overflow"))?;
    if links.len() != links_expect {
        return Err(DbError::new(format!(
            "link section is {} bytes, {n} nodes need {links_expect}",
            links.len()
        )));
    }
    let tags_end = n
        .div_ceil(8)
        .checked_mul(8)
        .and_then(|x| x.checked_add(8))
        .ok_or_else(|| DbError::new("topology size overflow"))?;
    let kinds_expect = (4 * tags::N_FIELDS)
        .checked_mul(n)
        .and_then(|x| x.checked_add(tags_end))
        .ok_or_else(|| DbError::new("topology size overflow"))?;
    if kinds.len() != kinds_expect {
        return Err(DbError::new(format!(
            "kind section is {} bytes, {n} nodes need {kinds_expect}",
            kinds.len()
        )));
    }
    if kinds[8 + n..tags_end].iter().any(|&b| b != 0) {
        return Err(DbError::new("nonzero tag padding"));
    }
    Ok(TopoLayout {
        n,
        parent_off: 8,
        first_child_off: 8 + 4 * n,
        next_sibling_off: 8 + 8 * n,
        tags_off: 8,
        fields_off: tags_end,
    })
}

/// Decode the topology sections into node records (the eager
/// path). Sibling links are derived data — the model keeps only
/// parents, and [`encode_topology`] rebuilds the chains on write.
pub(crate) fn read_topology_v21(links: &[u8], kinds: &[u8]) -> Result<Vec<DbNode>, DbError> {
    let lay = topo_layout(links, kinds)?;
    let u32_at = |b: &[u8], off: usize| u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
    if kinds[lay.tags_off] != tags::ROOT {
        return Err(DbError::new("topology node 0 is not the root"));
    }
    let mut nodes = Vec::with_capacity(lay.n - 1);
    for i in 1..lay.n {
        let parent = u32_at(links, lay.parent_off + 4 * i);
        let tag = kinds[lay.tags_off + i];
        if tag == tags::ROOT {
            return Err(DbError::new(format!("node {i}: root tag off node 0")));
        }
        if tag >= tags::N_TAGS {
            return Err(DbError::new(format!("unknown scope tag {tag}")));
        }
        let mut f = [0u32; tags::N_FIELDS];
        for (j, slot) in f.iter_mut().enumerate() {
            *slot = u32_at(kinds, lay.fields_off + 4 * (i * tags::N_FIELDS + j));
        }
        // Name ids are range-checked when the records are built into a
        // tree (`model::build_cct`).
        let scope = decode_kind(tag, &f, UNCLAMPED);
        nodes.push(DbNode { parent, scope });
    }
    Ok(nodes)
}

/// Validated layout of a fixed-kind (borrowable) cost block, with
/// offsets relative to the block body.
pub(crate) struct FixedBlock {
    pub nnz: usize,
    pub keys_off: usize,
    pub vals_off: usize,
}

/// Parse a block header against its descriptor: `Ok(None)` means a
/// varint-kind block (costs start at body byte 8), `Ok(Some)` a
/// fixed-kind block with a fully length-checked layout. The encoding
/// choice must match what [`write_v21`] would pick for `info.nnz`, so
/// accepted files re-encode byte-identically.
pub(crate) fn block_layout(body: &[u8], info: &MetricInfo) -> Result<Option<FixedBlock>, DbError> {
    if body.len() < 8 {
        return Err(DbError::new("truncated cost block header"));
    }
    if body[1..8].iter().any(|&b| b != 0) {
        return Err(DbError::new("nonzero cost block header padding"));
    }
    let fixed = match body[0] {
        BLOCK_VARINT => false,
        BLOCK_FIXED => true,
        other => return Err(DbError::new(format!("unknown cost block kind {other}"))),
    };
    if fixed != (info.nnz >= FIXED_CUTOVER) {
        return Err(DbError::new(format!(
            "metric '{}': block kind {} does not match nnz {}",
            info.name, body[0], info.nnz
        )));
    }
    if !fixed {
        return Ok(None);
    }
    if body.len() < 16 {
        return Err(DbError::new("truncated fixed cost block"));
    }
    let nnz64 = u64::from_le_bytes(body[8..16].try_into().unwrap());
    if nnz64 != info.nnz {
        return Err(DbError::new(format!(
            "metric '{}': block holds {nnz64} costs, descriptor says {}",
            info.name, info.nnz
        )));
    }
    let nnz = usize::try_from(nnz64).map_err(|_| DbError::new("cost count overflow"))?;
    let pad = if nnz % 2 == 1 { 4 } else { 0 };
    let expect = 4usize
        .checked_mul(nnz)
        .and_then(|k| k.checked_add(8 * nnz))
        .and_then(|x| x.checked_add(16 + pad))
        .ok_or_else(|| DbError::new("cost block size overflow"))?;
    if body.len() != expect {
        return Err(DbError::new(format!(
            "metric '{}': fixed block is {} bytes, {nnz} costs need {expect}",
            info.name,
            body.len()
        )));
    }
    let keys_off = 16;
    let vals_off = 16 + 4 * nnz + pad;
    if body[keys_off + 4 * nnz..vals_off].iter().any(|&b| b != 0) {
        return Err(DbError::new("nonzero cost block key padding"));
    }
    Ok(Some(FixedBlock {
        nnz,
        keys_off,
        vals_off,
    }))
}

/// Decode one metric's cost block eagerly (either kind),
/// cross-checking the entry count and node range claimed by its
/// descriptor. Keys must be strictly ascending in the fixed kind — the
/// borrow path binary-searches them; the varint kind's delta coding
/// cannot express a descent.
pub(crate) fn read_block_v21(
    body: &[u8],
    info: &MetricInfo,
    n_nodes: u32,
) -> Result<Vec<(u32, f64)>, DbError> {
    let layout = block_layout(body, info)?;
    callpath_obs::count("expdb.bin2.read_block", 1);
    let costs = match layout {
        None => {
            let mut buf = &body[8..];
            let costs = get_costs(&mut buf)?;
            expect_consumed(buf, "cost block")?;
            if costs.len() as u64 != info.nnz {
                return Err(DbError::new(format!(
                    "metric '{}': block holds {} costs, descriptor says {}",
                    info.name,
                    costs.len(),
                    info.nnz
                )));
            }
            costs
        }
        Some(fb) => {
            let mut costs = Vec::with_capacity(fb.nnz);
            let mut prev: Option<u32> = None;
            for i in 0..fb.nnz {
                let k = u32::from_le_bytes(
                    body[fb.keys_off + 4 * i..fb.keys_off + 4 * i + 4]
                        .try_into()
                        .unwrap(),
                );
                if prev.is_some_and(|p| k <= p) {
                    return Err(DbError::new(format!(
                        "metric '{}': cost keys not strictly ascending",
                        info.name
                    )));
                }
                let v = f64::from_le_bytes(
                    body[fb.vals_off + 8 * i..fb.vals_off + 8 * i + 8]
                        .try_into()
                        .unwrap(),
                );
                costs.push((k, v));
                prev = Some(k);
            }
            costs
        }
    };
    // Ascending keys: the last one bounds them all.
    if let Some(&(node, _)) = costs.last() {
        if node >= n_nodes {
            return Err(DbError::new(format!(
                "metric '{}': cost references node {node} beyond CCT size {n_nodes}",
                info.name
            )));
        }
    }
    Ok(costs)
}

pub(crate) fn expect_consumed(buf: &[u8], what: &str) -> Result<(), DbError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(DbError::new(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

/// Decode a container eagerly into a model — every section verified
/// and every block decoded up front. The interactive path should prefer
/// [`crate::open_lazy`]; this is for batch consumers and round-trip
/// checks.
pub fn read(data: &[u8]) -> Result<DbModel, DbError> {
    let toc = Toc::parse(data)?;
    if toc.contains(SEC_ATTRIBUTED) {
        return Err(DbError::new(
            "an ensemble (.cpens) stores its statistic columns attributed, which a \
             model of direct costs cannot hold: open it lazily (open_path, ens::open)",
        ));
    }
    let (procs, files, modules) = read_names(toc.section(data, SEC_NAMES)?)?;
    let nodes = read_topology_v21(
        toc.section(data, SEC_CCT_LINKS)?,
        toc.section(data, SEC_CCT_KINDS)?,
    )?;
    let infos = read_metric_infos(toc.section(data, SEC_METRICS)?)?;
    let derived = read_derived(toc.section(data, SEC_DERIVED)?)?;
    let n_nodes = nodes.len() as u32 + 1; // node ids include the implicit root
    let metrics = infos
        .iter()
        .enumerate()
        .map(|(i, info)| {
            let block = toc.section(data, SEC_BLOCK_BASE + i as u32)?;
            Ok(DbMetric {
                name: info.name.clone(),
                unit: info.unit.clone(),
                period: info.period,
                costs: read_block_v21(block, info, n_nodes)?,
            })
        })
        .collect::<Result<Vec<_>, DbError>>()?;
    Ok(DbModel {
        procs,
        files,
        modules,
        nodes,
        metrics,
        derived,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::sample_experiment;
    use crate::DbModel;
    use callpath_core::prelude::{FileId, ScopeKind, SourceLoc};

    #[test]
    fn v21_roundtrip() {
        let exp = sample_experiment();
        let model = DbModel::from_experiment(&exp);
        let bytes = write_v21(&model);
        assert_eq!(read(&bytes).unwrap(), model);
    }

    #[test]
    fn v21_reencode_is_byte_identical() {
        let model = DbModel::from_experiment(&sample_experiment());
        let bytes = write_v21(&model);
        assert_eq!(write_v21(&read(&bytes).unwrap()), bytes);
    }

    #[test]
    fn v21_every_truncation_is_rejected() {
        let bytes = write_v21(&DbModel::from_experiment(&sample_experiment()));
        for len in 0..bytes.len() {
            assert!(read(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn v21_every_bit_flip_is_rejected() {
        let bytes = write_v21(&DbModel::from_experiment(&sample_experiment()));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(read(&bad).is_err(), "flip at byte {i} decoded successfully");
        }
    }

    #[test]
    fn v21_fixed_blocks_appear_past_the_cutover() {
        // A column with >= FIXED_CUTOVER entries must be written in the
        // fixed encoding and decode back identically.
        let nnz = FIXED_CUTOVER as usize + 3;
        let costs: Vec<(u32, f64)> = (0..nnz).map(|i| (i as u32 + 1, i as f64 * 0.5)).collect();
        let model = DbModel {
            procs: vec!["p".into()],
            files: vec!["f".into()],
            modules: vec!["m".into()],
            nodes: (0..nnz as u32 + 1)
                .map(|i| crate::model::DbNode {
                    parent: if i == 0 { 0 } else { i },
                    scope: ScopeKind::Stmt {
                        loc: SourceLoc::new(FileId(0), i),
                    },
                })
                .collect(),
            metrics: vec![
                DbMetric {
                    name: "big".into(),
                    unit: "u".into(),
                    period: 1.0,
                    costs: costs.clone(),
                },
                DbMetric {
                    name: "small".into(),
                    unit: "u".into(),
                    period: 1.0,
                    costs: vec![(1, 9.0)],
                },
            ],
            derived: vec![],
        };
        let bytes = write_v21(&model);
        let toc = Toc::parse(&bytes).unwrap();
        let big = toc.section(&bytes, SEC_BLOCK_BASE).unwrap();
        let small = toc.section(&bytes, SEC_BLOCK_BASE + 1).unwrap();
        assert_eq!(big[0], BLOCK_FIXED);
        assert_eq!(small[0], BLOCK_VARINT);
        let parsed = read(&bytes).unwrap();
        assert_eq!(parsed.metrics[0].costs, costs);
        assert_eq!(parsed.metrics[1].costs, vec![(1, 9.0)]);
        assert_eq!(write_v21(&parsed), bytes);
    }

    #[test]
    fn v21_fixed_block_rejects_unsorted_keys() {
        let nnz = FIXED_CUTOVER as usize;
        let costs: Vec<(u32, f64)> = (0..nnz).map(|i| (i as u32, 1.0)).collect();
        let info = MetricInfo {
            name: "m".into(),
            unit: "u".into(),
            period: 1.0,
            nnz: nnz as u64,
            total: nnz as f64,
        };
        let mut body = vec![BLOCK_FIXED, 0, 0, 0, 0, 0, 0, 0];
        body.extend_from_slice(&(nnz as u64).to_le_bytes());
        for &(k, _) in &costs {
            body.extend_from_slice(&k.to_le_bytes());
        }
        for &(_, v) in &costs {
            body.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(read_block_v21(&body, &info, nnz as u32).unwrap(), costs);
        // Swap two keys: strictly-ascending check must fire.
        let mut bad = body.clone();
        bad[16..20].copy_from_slice(&5u32.to_le_bytes());
        let err = read_block_v21(&bad, &info, nnz as u32).unwrap_err();
        assert!(err.message.contains("ascending"), "got: {}", err.message);
        // Kind byte must match what the cutover dictates for this nnz.
        let mut small_body = vec![BLOCK_FIXED, 0, 0, 0, 0, 0, 0, 0];
        small_body.extend_from_slice(&1u64.to_le_bytes());
        small_body.extend_from_slice(&1u32.to_le_bytes());
        small_body.extend_from_slice(&[0u8; 4]);
        small_body.extend_from_slice(&1.0f64.to_le_bytes());
        let small_info = MetricInfo { nnz: 1, ..info };
        let err = read_block_v21(&small_body, &small_info, 5).unwrap_err();
        assert!(err.message.contains("kind"), "got: {}", err.message);
    }

    #[test]
    fn block_cross_checks_descriptor_and_node_range() {
        let costs = vec![(1u32, 2.0), (4, 1.5)];
        let block = encode_block_v21(&costs);
        let ok = MetricInfo {
            name: "m".into(),
            unit: "u".into(),
            period: 1.0,
            nnz: 2,
            total: 3.5,
        };
        assert_eq!(read_block_v21(&block, &ok, 5).unwrap(), costs);
        let lying = MetricInfo {
            nnz: 3,
            ..ok.clone()
        };
        assert!(read_block_v21(&block, &lying, 5).is_err(), "nnz mismatch");
        assert!(
            read_block_v21(&block, &ok, 4).is_err(),
            "node 4 out of range"
        );
    }
}
