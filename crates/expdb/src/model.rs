//! The format-independent database model: everything needed to
//! reconstruct an [`Experiment`], and nothing that can be recomputed.

use callpath_core::names::Namespace;
use callpath_core::prelude::*;
use callpath_core::topo::{encode_kind, visit_fields, Field};
use std::fmt;

/// Database error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbError {
    /// What went wrong.
    pub message: String,
}

impl DbError {
    /// Wrap a message.
    pub fn new(msg: impl Into<String>) -> Self {
        DbError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment db error: {}", self.message)
    }
}

impl std::error::Error for DbError {}

/// One serialized CCT node. `parent` indexes arena order, which always
/// places parents before children; the scope's name ids index the
/// model's name tables, and reading a model checks them against the
/// tables' sizes. The root is implicit, so no node's scope is
/// [`ScopeKind::Root`].
#[derive(Debug, Clone, PartialEq)]
pub struct DbNode {
    /// Arena index of the parent (parents always precede children).
    pub parent: u32,
    /// The scope this node represents.
    pub scope: ScopeKind,
}

/// One serialized raw metric with its sparse costs.
#[derive(Debug, Clone, PartialEq)]
pub struct DbMetric {
    /// Metric name, e.g. `PAPI_TOT_CYC`.
    pub name: String,
    /// Display unit.
    pub unit: String,
    /// Sampling period (events per sample).
    pub period: f64,
    /// Sparse direct costs: (node id, value), ascending by node id.
    pub costs: Vec<(u32, f64)>,
}

/// The complete serializable experiment model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbModel {
    /// Procedure names, index = id.
    pub procs: Vec<String>,
    /// File names, index = id.
    pub files: Vec<String>,
    /// Load-module names, index = id.
    pub modules: Vec<String>,
    /// Non-root CCT nodes in arena order (node id = index + 1).
    pub nodes: Vec<DbNode>,
    /// Raw metrics with their costs.
    pub metrics: Vec<DbMetric>,
    /// Derived metric definitions: (column name, formula source).
    pub derived: Vec<(String, String)>,
}

impl DbModel {
    /// Extract the model from an attributed experiment.
    pub fn from_experiment(exp: &Experiment) -> DbModel {
        let (procs, files, modules, nodes) = topology_parts(&exp.cct);

        let metrics = (0..exp.raw.metric_count())
            .map(|mi| {
                let m = MetricId::from_usize(mi);
                let d = exp.raw.desc(m);
                DbMetric {
                    name: d.name.clone(),
                    unit: d.unit.clone(),
                    period: d.period,
                    costs: exp.raw.column(m).nonzero_sorted().collect(),
                }
            })
            .collect();

        let derived = exp
            .columns
            .descs()
            .iter()
            .filter_map(|d| match &d.flavor {
                ColumnFlavor::Derived { formula } => Some((d.name.clone(), formula.clone())),
                _ => None,
            })
            .collect();

        DbModel {
            procs,
            files,
            modules,
            nodes,
            metrics,
            derived,
        }
    }

    /// Reconstruct just the validated CCT — no metrics recorded, no
    /// attribution. The ensemble builder works from topology plus raw
    /// sparse costs and never needs the presentation columns
    /// [`DbModel::into_experiment`] would compute.
    pub fn build_cct(&self) -> Result<Cct, DbError> {
        build_cct(&self.procs, &self.files, &self.modules, &self.nodes)
    }

    /// Rebuild a fully attributed experiment.
    pub fn into_experiment(self) -> Result<Experiment, DbError> {
        let cct = build_cct(&self.procs, &self.files, &self.modules, &self.nodes)?;

        let mut raw = RawMetrics::new(StorageKind::Csr);
        let n_nodes = cct.len() as u32;
        for m in &self.metrics {
            let id = raw.add_metric(MetricDesc::new(&m.name, &m.unit, m.period));
            for &(node, v) in &m.costs {
                if node >= n_nodes {
                    return Err(DbError::new(format!(
                        "cost references node {node} beyond CCT size {n_nodes}"
                    )));
                }
                raw.add_cost(id, NodeId(node), v);
            }
        }

        let mut exp = Experiment::build(cct, raw, StorageKind::Csr);
        for (name, formula) in &self.derived {
            exp.add_derived(name, formula)
                .map_err(|e| DbError::new(format!("derived metric '{name}': {e}")))?;
        }
        Ok(exp)
    }
}

/// Serialize a CCT's topology half: the three name tables plus node
/// records in arena order — the inverse of [`build_cct`]. Shared by
/// [`DbModel::from_experiment`] and the ensemble writer
/// ([`crate::ens`]), which has a union CCT but no experiment.
pub(crate) fn topology_parts(cct: &Cct) -> (Vec<String>, Vec<String>, Vec<String>, Vec<DbNode>) {
    let names = &cct.names;
    let procs = (0..names.proc_count())
        .map(|i| names.proc_name(ProcId(i as u32)).to_owned())
        .collect();
    let files = (0..names.file_count())
        .map(|i| names.file_name(FileId(i as u32)).to_owned())
        .collect();
    let modules = (0..names.module_count())
        .map(|i| names.module_name(LoadModuleId(i as u32)).to_owned())
        .collect();

    let topo = cct.topo();
    let nodes = cct
        .all_nodes()
        .skip(1)
        .map(|n| DbNode {
            parent: topo.parent(n).expect("non-root has parent").0,
            scope: topo.kind(n),
        })
        .collect();
    (procs, files, modules, nodes)
}

/// Reconstruct a validated [`Cct`] from serialized name tables and node
/// records — the shared topology-decoding half of
/// [`DbModel::into_experiment`], also the lazy reader's fallback when
/// the topology arrays cannot be borrowed in place. A table's name ids
/// are its indices, so its names must be distinct.
pub(crate) fn build_cct(
    proc_names: &[String],
    file_names: &[String],
    module_names: &[String],
    nodes: &[DbNode],
) -> Result<Cct, DbError> {
    let mut names = NameTable::new();
    let tables = [proc_names, file_names, module_names];
    for (ns, table) in Namespace::ALL.into_iter().zip(tables) {
        for (i, s) in table.iter().enumerate() {
            if names.intern(ns, s) as usize != i {
                let what = NAMESPACES[ns as usize];
                return Err(DbError::new(format!("{what} name '{s}' appears twice")));
            }
        }
    }
    let sizes = tables.map(|t| t.len());

    let mut cct = Cct::new(names);
    for (i, node) in nodes.iter().enumerate() {
        let id = i as u32 + 1;
        if node.parent >= id {
            return Err(DbError::new(format!(
                "node {id}: parent {} does not precede it",
                node.parent
            )));
        }
        check_name_ids(id, &node.scope, sizes)?;
        let added = cct.add_child(NodeId(node.parent), node.scope);
        debug_assert_eq!(added.0, id);
    }
    cct.validate().map_err(DbError::new)?;
    Ok(cct)
}

/// Reject a scope whose name ids reach past their tables: every
/// `Field::Name` word of its encoded form against its namespace's
/// `sizes` entry (procedures, files, modules).
fn check_name_ids(id: u32, scope: &ScopeKind, sizes: [usize; 3]) -> Result<(), DbError> {
    let (tag, mut words) = encode_kind(scope);
    let mut dangling = None;
    visit_fields(tag, &mut words, |field, w| match field {
        Field::Name(ns) if *w as usize >= sizes[ns as usize] => {
            dangling.get_or_insert((ns, *w));
        }
        _ => {}
    });
    match dangling {
        None => Ok(()),
        Some((ns, w)) => Err(DbError::new(format!(
            "node {id}: {} index {w} out of range ({} names)",
            NAMESPACES[ns as usize], sizes[ns as usize]
        ))),
    }
}

/// What an error calls each [`Namespace`], by discriminant.
const NAMESPACES: [&str; 3] = ["proc", "file", "module"];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use callpath_core::topo::{decode_kind, UNCLAMPED};

    pub(crate) fn sample_experiment() -> Experiment {
        let mut names = NameTable::new();
        let file = names.file("a.c");
        let module = names.module("a.out");
        let p_main = names.proc("main");
        let p_g = names.proc("g");
        let mut cct = Cct::new(names);
        let root = cct.root();
        let main = cct.add_child(
            root,
            ScopeKind::Frame {
                proc: p_main,
                module,
                def: SourceLoc::new(file, 1),
                call_site: None,
            },
        );
        let lp = cct.add_child(
            main,
            ScopeKind::Loop {
                header: SourceLoc::new(file, 3),
            },
        );
        let g = cct.add_child(
            lp,
            ScopeKind::Frame {
                proc: p_g,
                module,
                def: SourceLoc::new(file, 10),
                call_site: Some(SourceLoc::new(file, 4)),
            },
        );
        let inl = cct.add_child(
            g,
            ScopeKind::InlinedFrame {
                proc: p_main,
                def: SourceLoc::new(file, 1),
                call_site: SourceLoc::new(file, 11),
            },
        );
        let s = cct.add_child(
            inl,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 12),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1000.0));
        let fp = raw.add_metric(MetricDesc::new("fp", "ops", 500.0));
        raw.add_cost(cyc, s, 42_000.0);
        raw.add_cost(fp, s, 8_000.0);
        let mut exp = Experiment::build(cct, raw, StorageKind::Csr);
        exp.add_derived("waste", "$0 * 4 - $2").unwrap();
        exp
    }

    #[test]
    fn model_roundtrip_preserves_everything() {
        let exp = sample_experiment();
        let model = DbModel::from_experiment(&exp);
        let rebuilt = model.clone().into_experiment().unwrap();
        assert_eq!(rebuilt.cct.len(), exp.cct.len());
        assert_eq!(rebuilt.raw.metric_count(), exp.raw.metric_count());
        assert_eq!(rebuilt.columns.column_count(), exp.columns.column_count());
        for n in exp.cct.all_nodes() {
            assert_eq!(rebuilt.cct.kind(n), exp.cct.kind(n));
            for c in 0..exp.columns.column_count() as u32 {
                assert_eq!(
                    rebuilt.columns.get(ColumnId(c), n.0),
                    exp.columns.get(ColumnId(c), n.0),
                    "node {n:?} column {c}"
                );
            }
        }
        // A second extraction is identical (stable encoding).
        assert_eq!(DbModel::from_experiment(&rebuilt), model);
    }

    /// Every name field of every tag the sample holds (both frame tags,
    /// inlined, loop, statement), pushed one past its table, is refused
    /// by all three readers, naming the namespace.
    #[test]
    fn rejects_dangling_indices() {
        let model = DbModel::from_experiment(&sample_experiment());
        let sizes = [model.procs.len(), model.files.len(), model.modules.len()];
        let mut tried = Vec::new();
        for (i, node) in model.nodes.iter().enumerate() {
            let (tag, words) = encode_kind(&node.scope);
            let mut fields = Vec::new();
            visit_fields(tag, &mut words.clone(), |field, _| fields.push(field));
            for (j, field) in fields.into_iter().enumerate() {
                let Field::Name(ns) = field else { continue };
                let mut bad_words = words;
                bad_words[j] = sizes[ns as usize] as u32;
                let mut bad = model.clone();
                bad.nodes[i].scope = decode_kind(tag, &bad_words, UNCLAMPED);
                let expect = format!("{} index {}", NAMESPACES[ns as usize], bad_words[j]);
                let errors = [
                    bad.clone().into_experiment().err(),
                    crate::from_xml(&crate::xml::write(&bad)).err(),
                    crate::from_binary(&crate::bin2::write_v21(&bad)).err(),
                ];
                for err in errors {
                    let err = err.unwrap_or_else(|| panic!("tag {tag} field {j} accepted"));
                    assert!(err.message.contains(&expect), "{expect}: {err}");
                }
                tried.push((tag, j));
            }
        }
        // The sample holds each tag once. Frame: proc, module, definition
        // file, call-site file; top-level frame: the first three; inlined:
        // proc, definition file, call-site file; loop; statement.
        assert_eq!(tried.len(), 4 + 3 + 3 + 1 + 1, "{tried:?}");
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut model = DbModel::from_experiment(&sample_experiment());
        model.files.push(model.files[0].clone());
        let err = model.into_experiment().unwrap_err();
        assert!(
            err.message.contains("file name 'a.c' appears twice"),
            "{err}"
        );
    }

    #[test]
    fn rejects_forward_parent() {
        let exp = sample_experiment();
        let mut model = DbModel::from_experiment(&exp);
        model.nodes[0].parent = 5;
        assert!(model.into_experiment().is_err());
    }

    #[test]
    fn rejects_out_of_range_cost_node() {
        let exp = sample_experiment();
        let mut model = DbModel::from_experiment(&exp);
        model.metrics[0].costs.push((1000, 1.0));
        assert!(model.into_experiment().is_err());
    }

    #[test]
    fn rejects_bad_derived_formula() {
        let exp = sample_experiment();
        let mut model = DbModel::from_experiment(&exp);
        model.derived.push(("bad".into(), "$$$".into()));
        assert!(model.into_experiment().is_err());
    }
}
