//! The in-memory experiment database: a canonical CCT plus attributed
//! metric columns — what `hpcprof` hands to `hpcviewer`.
//!
//! Attribution results (the Eq. 2 inclusive and Eq. 1 exclusive columns)
//! are **cached per metrics generation**: they are computed once, shared
//! by every view that asks, and transparently recomputed after the raw
//! metrics mutate (e.g. a late-arriving rank folded in with
//! [`RawMetrics::add_cost`]). Callers never observe stale sums.

use crate::attribution::{attribute_all, Attribution};
use crate::cct::Cct;
use crate::derived::{Expr, FormulaError, SliceContext};
use crate::ids::{ColumnId, MetricId, NodeId};
use crate::metrics::{ColumnDesc, ColumnFlavor, ColumnSet, RawMetrics, StorageKind};
use parking_lot::RwLock;
use std::sync::Arc;

/// Generation-stamped attribution results shared behind the cache lock.
#[derive(Debug)]
struct AttrCache {
    /// [`RawMetrics::generation`] at compute time.
    generation: u64,
    /// One [`Attribution`] per raw metric, in metric-id order.
    attributions: Arc<Vec<Attribution>>,
}

/// Shared handle to one metric's cached attribution; derefs to
/// [`Attribution`] so call sites read `handle.inclusive` directly.
#[derive(Debug, Clone)]
pub struct AttributionHandle {
    attrs: Arc<Vec<Attribution>>,
    index: usize,
}

impl std::ops::Deref for AttributionHandle {
    type Target = Attribution;

    fn deref(&self) -> &Attribution {
        &self.attrs[self.index]
    }
}

/// A fully attributed experiment: the input to every presentation view.
#[derive(Debug)]
pub struct Experiment {
    /// The canonical calling context tree.
    pub cct: Cct,
    /// Direct (sample-point) costs per raw metric.
    pub raw: RawMetrics,
    /// Cached per-metric attribution results, keyed by the raw metrics
    /// generation they were computed at.
    attr_cache: RwLock<AttrCache>,
    /// Presentation columns over CCT nodes: two per raw metric (inclusive,
    /// exclusive) followed by any derived columns.
    pub columns: ColumnSet,
    /// Parsed formulas for derived columns, in column order.
    derived: Vec<(ColumnId, Expr)>,
    /// Root (whole-program) value per column; the `@n` aggregate.
    aggregates: Vec<f64>,
    /// Storage flavor for freshly computed attribution columns.
    storage: StorageKind,
}

impl Clone for Experiment {
    fn clone(&self) -> Self {
        let cache = self.attr_cache.read();
        Experiment {
            cct: self.cct.clone(),
            raw: self.raw.clone(),
            attr_cache: RwLock::new(AttrCache {
                generation: cache.generation,
                attributions: cache.attributions.clone(),
            }),
            columns: self.columns.clone(),
            derived: self.derived.clone(),
            aggregates: self.aggregates.clone(),
            storage: self.storage,
        }
    }
}

impl Experiment {
    /// Attribute all metrics of `raw` over `cct` and set up the standard
    /// inclusive/exclusive column pair per metric.
    pub fn build(cct: Cct, raw: RawMetrics, storage: StorageKind) -> Self {
        let generation = raw.generation();
        let attributions = attribute_all(&cct, &raw, storage);
        let mut columns = ColumnSet::new(storage);
        let mut aggregates = Vec::new();
        let root = cct.root();
        for (mi, attr) in attributions.iter().enumerate() {
            let m = MetricId::from_usize(mi);
            let desc = raw.desc(m);
            let ci = columns.add_column(ColumnDesc {
                name: format!("{} (I)", desc.name),
                flavor: ColumnFlavor::Inclusive(m),
                visible: true,
            });
            let ce = columns.add_column(ColumnDesc {
                name: format!("{} (E)", desc.name),
                flavor: ColumnFlavor::Exclusive(m),
                visible: true,
            });
            for n in cct.all_nodes() {
                let iv = attr.inclusive.get(n.0);
                if iv != 0.0 {
                    columns.set(ci, n.0, iv);
                }
                let ev = attr.exclusive.get(n.0);
                if ev != 0.0 {
                    columns.set(ce, n.0, ev);
                }
            }
            aggregates.push(attr.inclusive.get(root.0));
            // The aggregate of an exclusive column is the program total as
            // well: summed over all scopes, exclusive costs cover each
            // sample exactly once at statement level; using the root
            // inclusive keeps `$e/@e` percentages meaningful.
            aggregates.push(attr.inclusive.get(root.0));
        }
        Experiment {
            cct,
            raw,
            attr_cache: RwLock::new(AttrCache {
                generation,
                attributions: Arc::new(attributions),
            }),
            columns,
            derived: Vec::new(),
            aggregates,
            storage,
        }
    }

    /// Assemble an experiment from a lazily backed store (CPDB
    /// databases): `raw` and `columns` should have a
    /// [`crate::metrics::ColumnSource`] attached, `aggregates` come from
    /// the stored per-column totals, and `derived` carries the parsed
    /// formulas of any derived columns already present in `columns`.
    ///
    /// Nothing is attributed here — that is the point. The attribution
    /// cache starts *stale* (generation deliberately mismatched), so the
    /// first caller of [`Experiment::attributions`] — the callers/flat
    /// view path — computes it then, faulting the raw columns in. The
    /// calling-context view reads `columns` directly and faults only the
    /// columns it renders.
    pub fn open_lazy(
        cct: Cct,
        raw: RawMetrics,
        columns: ColumnSet,
        derived: Vec<(ColumnId, Expr)>,
        aggregates: Vec<f64>,
        storage: StorageKind,
    ) -> Self {
        let stale = raw.generation().wrapping_sub(1);
        Experiment {
            cct,
            raw,
            attr_cache: RwLock::new(AttrCache {
                generation: stale,
                attributions: Arc::new(Vec::new()),
            }),
            columns,
            derived,
            aggregates,
            storage,
        }
    }

    /// Column id of the inclusive projection of metric `m`.
    pub fn inclusive_col(&self, m: MetricId) -> ColumnId {
        ColumnId(m.0 * 2)
    }

    /// Column id of the exclusive projection of metric `m`.
    pub fn exclusive_col(&self, m: MetricId) -> ColumnId {
        ColumnId(m.0 * 2 + 1)
    }

    /// All cached attribution results, revalidated against the raw
    /// metrics generation: if `raw` has mutated since the cache was
    /// filled, every metric is re-attributed once (under the write lock)
    /// and the fresh results are shared from then on.
    pub fn attributions(&self) -> Arc<Vec<Attribution>> {
        let generation = self.raw.generation();
        {
            let cache = self.attr_cache.read();
            if cache.generation == generation {
                return cache.attributions.clone();
            }
        }
        let mut cache = self.attr_cache.write();
        // Another thread may have refreshed while we waited for the lock.
        if cache.generation != generation {
            cache.attributions = Arc::new(attribute_all(&self.cct, &self.raw, self.storage));
            cache.generation = generation;
        }
        cache.attributions.clone()
    }

    /// Attribution results of metric `m` (from the generation-validated
    /// cache; cheap to call repeatedly).
    pub fn attribution(&self, m: MetricId) -> AttributionHandle {
        AttributionHandle {
            attrs: self.attributions(),
            index: m.index(),
        }
    }

    /// Cached Eq. 2 inclusive cost of metric `m` at node `n`.
    pub fn inclusive(&self, m: MetricId, n: NodeId) -> f64 {
        self.attribution(m).inclusive.get(n.0)
    }

    /// Cached Eq. 1 exclusive cost of metric `m` at node `n`.
    pub fn exclusive(&self, m: MetricId, n: NodeId) -> f64 {
        self.attribution(m).exclusive.get(n.0)
    }

    /// The storage flavor this experiment's columns use.
    pub fn storage(&self) -> StorageKind {
        self.storage
    }

    /// Whole-program (`@n`) value of a column.
    pub fn aggregate(&self, c: ColumnId) -> f64 {
        self.aggregates.get(c.index()).copied().unwrap_or(0.0)
    }

    /// Whole-program (`@n`) value per column.
    pub fn aggregates(&self) -> &[f64] {
        &self.aggregates
    }

    /// Parsed derived-column formulas, in column order.
    pub fn derived_formulas(&self) -> &[(ColumnId, Expr)] {
        &self.derived
    }

    /// Define a derived metric column. The formula may reference any column
    /// that already exists (including earlier derived columns). Values are
    /// computed immediately for every CCT node; views compute their own
    /// values from their aggregated inputs when they are built.
    pub fn add_derived(&mut self, name: &str, formula: &str) -> Result<ColumnId, FormulaError> {
        let expr = Expr::parse(formula)?;
        let existing = self.columns.column_count() as u32;
        if let Some(&bad) = expr.references().iter().find(|&&r| r >= existing) {
            return Err(FormulaError {
                pos: 0,
                message: format!("formula references non-existent column ${bad}"),
            });
        }
        let c = self.columns.add_column(ColumnDesc {
            name: name.to_owned(),
            flavor: ColumnFlavor::Derived {
                formula: formula.to_owned(),
            },
            visible: true,
        });
        // Aggregate of a derived column = formula applied to the aggregates.
        let agg = expr.eval(&SliceContext {
            columns: &self.aggregates,
            aggregates: &self.aggregates,
        });
        self.aggregates.push(agg);
        // Per-node values.
        let ncols = self.columns.column_count();
        for n in self.cct.all_nodes() {
            let inputs: Vec<f64> = (0..ncols as u32 - 1)
                .map(|i| self.columns.get(ColumnId(i), n.0))
                .collect();
            let v = expr.eval(&SliceContext {
                columns: &inputs,
                aggregates: &self.aggregates,
            });
            if v != 0.0 {
                self.columns.set(c, n.0, v);
            }
        }
        self.derived.push((c, expr));
        Ok(c)
    }

    /// Evaluate all derived columns of this experiment into `target`, a
    /// column set over some view tree whose inclusive/exclusive (and
    /// summary) columns are already filled for nodes `0..n_nodes`.
    pub fn eval_derived_into(&self, target: &mut ColumnSet, n_nodes: usize) {
        self.eval_derived_range(target, 0, n_nodes);
    }

    /// [`Experiment::eval_derived_into`] restricted to view nodes
    /// `start..end` — lazy views call this for just-materialized children
    /// instead of re-deriving the whole tree.
    pub fn eval_derived_range(&self, target: &mut ColumnSet, start: usize, end: usize) {
        if self.derived.is_empty() {
            return;
        }
        let ncols = target.column_count() as u32;
        for node in start as u32..end as u32 {
            for (c, expr) in &self.derived {
                let inputs: Vec<f64> = (0..ncols).map(|i| target.get(ColumnId(i), node)).collect();
                let v = expr.eval(&SliceContext {
                    columns: &inputs,
                    aggregates: &self.aggregates,
                });
                if v != 0.0 {
                    target.set(*c, node, v);
                }
            }
        }
    }

    /// Direct (sample-point) cost column for metric `m` — needed when views
    /// re-aggregate.
    pub fn direct(&self, m: MetricId, n: NodeId) -> f64 {
        self.raw.direct(m, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::metrics::MetricDesc;
    use crate::names::{NameTable, SourceLoc};
    use crate::scope::ScopeKind;

    fn tiny_experiment() -> Experiment {
        let mut names = NameTable::new();
        let file = names.file("a.c");
        let module = names.module("a.out");
        let p_main = names.proc("main");
        let p_work = names.proc("work");
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
        let work = cct.add_child(
            main,
            ScopeKind::Frame {
                proc: p_work,
                module,
                def: SourceLoc::new(file, 10),
                call_site: Some(SourceLoc::new(file, 3)),
            },
        );
        let s = cct.add_child(
            work,
            ScopeKind::Stmt {
                loc: SourceLoc::new(file, 12),
            },
        );
        let mut raw = RawMetrics::new(StorageKind::Dense);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        let fp = raw.add_metric(MetricDesc::new("fp_ops", "ops", 1.0));
        raw.add_cost(cyc, s, 1000.0);
        raw.add_cost(fp, s, 800.0);
        let _ = (main, work);
        Experiment::build(cct, raw, StorageKind::Dense)
    }

    #[test]
    fn columns_are_paired_per_metric() {
        let exp = tiny_experiment();
        assert_eq!(exp.columns.column_count(), 4);
        assert_eq!(exp.columns.desc(ColumnId(0)).name, "cycles (I)");
        assert_eq!(exp.columns.desc(ColumnId(1)).name, "cycles (E)");
        assert_eq!(exp.columns.desc(ColumnId(2)).name, "fp_ops (I)");
        assert_eq!(exp.inclusive_col(MetricId(1)), ColumnId(2));
        assert_eq!(exp.exclusive_col(MetricId(1)), ColumnId(3));
    }

    #[test]
    fn aggregates_are_program_totals() {
        let exp = tiny_experiment();
        assert_eq!(exp.aggregate(ColumnId(0)), 1000.0);
        assert_eq!(exp.aggregate(ColumnId(2)), 800.0);
    }

    #[test]
    fn derived_waste_and_efficiency() {
        let mut exp = tiny_experiment();
        // peak = 4 flops/cycle: waste = $cyc_I * 4 - $fp_I
        let waste = exp.add_derived("fp waste", "$0 * 4 - $2").unwrap();
        let eff = exp.add_derived("rel efficiency", "$2 / ($0 * 4)").unwrap();
        let root = exp.cct.root();
        assert_eq!(exp.columns.get(waste, root.0), 3200.0);
        assert!((exp.columns.get(eff, root.0) - 0.2).abs() < 1e-12);
        assert_eq!(exp.aggregate(waste), 3200.0);
    }

    #[test]
    fn derived_can_reference_derived() {
        let mut exp = tiny_experiment();
        let a = exp.add_derived("x2", "$0 * 2").unwrap();
        let b = exp.add_derived("x4", &format!("${} * 2", a.0)).unwrap();
        let root = exp.cct.root();
        assert_eq!(exp.columns.get(b, root.0), 4000.0);
    }

    #[test]
    fn derived_rejects_forward_references() {
        let mut exp = tiny_experiment();
        assert!(exp.add_derived("bad", "$99").is_err());
    }

    #[test]
    fn attribution_cache_is_shared_until_mutation() {
        let exp = tiny_experiment();
        let a = exp.attributions();
        let b = exp.attributions();
        assert!(Arc::ptr_eq(&a, &b), "unchanged raw must share the cache");
    }

    #[test]
    fn inclusive_cache_invalidates_after_add_cost() {
        let mut exp = tiny_experiment();
        let cyc = MetricId(0);
        let root = exp.cct.root();
        let stale = exp.attributions();
        assert_eq!(exp.inclusive(cyc, root), 1000.0);
        // A late-arriving cost at the statement node (id 3 in the tiny
        // tree) must show up in freshly queried inclusive sums.
        let stmt = NodeId(3);
        exp.raw.add_cost(cyc, stmt, 500.0);
        let fresh = exp.attributions();
        assert!(
            !Arc::ptr_eq(&stale, &fresh),
            "mutation must invalidate the attribution cache"
        );
        assert_eq!(exp.inclusive(cyc, root), 1500.0);
        assert_eq!(exp.inclusive(cyc, stmt), 1500.0);
        assert_eq!(exp.exclusive(cyc, stmt), 1500.0);
        // And the refreshed cache is stable until the next mutation.
        assert!(Arc::ptr_eq(&fresh, &exp.attributions()));
    }

    #[test]
    fn csr_storage_builds_identical_columns() {
        // Same tiny experiment content in Dense and Csr storage: every
        // presentation column must agree.
        let build = |kind: StorageKind| {
            let mut names = NameTable::new();
            let file = names.file("a.c");
            let module = names.module("a.out");
            let p_main = names.proc("main");
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
            let s = cct.add_child(
                main,
                ScopeKind::Stmt {
                    loc: SourceLoc::new(file, 2),
                },
            );
            let mut raw = RawMetrics::new(kind);
            let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
            raw.add_cost(cyc, s, 750.0);
            Experiment::build(cct, raw, kind)
        };
        let dense = build(StorageKind::Dense);
        let csr = build(StorageKind::Csr);
        assert_eq!(dense.columns.column_count(), csr.columns.column_count());
        for c in dense.columns.columns() {
            for n in 0..dense.cct.len() as u32 {
                assert_eq!(
                    dense.columns.get(c, n),
                    csr.columns.get(c, n),
                    "column {c:?} node {n}"
                );
            }
        }
        assert_eq!(dense.aggregates(), csr.aggregates());
    }

    #[test]
    fn derived_percent_of_total() {
        let mut exp = tiny_experiment();
        let pct = exp.add_derived("% cycles", "$0 / @0").unwrap();
        let root = exp.cct.root();
        assert_eq!(exp.columns.get(pct, root.0), 1.0);
    }
}
