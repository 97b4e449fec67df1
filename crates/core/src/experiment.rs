//! The in-memory experiment database: a canonical CCT plus attributed
//! metric columns — what `hpcprof` hands to `hpcviewer`.
//!
//! Attributed values (the Eq. 2 inclusive and Eq. 1 exclusive columns)
//! live in exactly one place, [`Experiment::columns`], and all three
//! views read them there. [`Experiment::build`] attributes every metric
//! once and installs the results as the columns; a lazily opened
//! database ([`Experiment::open_lazy`]) attributes a metric when one of
//! its two columns is first read. Either way an experiment is attributed
//! as of its construction: to fold in late costs (a late-arriving rank,
//! say), take the public `cct` and `raw` back out, [`RawMetrics::add_cost`]
//! and `build` again — every view built from the new experiment then
//! shows the new numbers.

use crate::attribution::attribute;
use crate::cct::Cct;
use crate::derived::{self, Expr, FormulaError};
use crate::ids::{ColumnId, MetricId, NodeId};
use crate::metrics::{ColumnDesc, ColumnFlavor, ColumnSet, RawMetrics, StorageKind};

/// A fully attributed experiment: the input to every presentation view.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The canonical calling context tree.
    pub cct: Cct,
    /// Direct (sample-point) costs per raw metric.
    pub raw: RawMetrics,
    /// Presentation columns over CCT nodes: two per raw metric (inclusive,
    /// exclusive) followed by any derived columns. The only store of
    /// attributed values.
    pub columns: ColumnSet,
    /// Parsed formulas for derived columns, in column order.
    derived: Vec<(ColumnId, Expr)>,
    /// Root (whole-program) value per column; the `@n` aggregate.
    aggregates: Vec<f64>,
}

impl Experiment {
    /// Attribute all metrics of `raw` over `cct` and set up the standard
    /// inclusive/exclusive column pair per metric. Ingestion ends here, so
    /// the raw columns then take the shape their coverage of the tree
    /// calls for ([`MetricVec::from_sorted`]; after attribution, which
    /// reads their sorted arrays in place). The last argument selects
    /// nothing ([`StorageKind`]).
    pub fn build(cct: Cct, mut raw: RawMetrics, _: StorageKind) -> Self {
        let mut columns = ColumnSet::new();
        let mut aggregates = Vec::new();
        let root = cct.root();
        for mi in 0..raw.metric_count() {
            let m = MetricId::from_usize(mi);
            let attr = attribute(&cct, &raw, m, StorageKind::Csr);
            let total = attr.inclusive.get(root.0);
            let name = &raw.desc(m).name;
            columns.add_column_with(
                ColumnDesc {
                    name: format!("{name} (I)"),
                    flavor: ColumnFlavor::Inclusive(m),
                    visible: true,
                },
                attr.inclusive,
            );
            columns.add_column_with(
                ColumnDesc {
                    name: format!("{name} (E)"),
                    flavor: ColumnFlavor::Exclusive(m),
                    visible: true,
                },
                attr.exclusive,
            );
            aggregates.push(total);
            // The aggregate of an exclusive column is the program total as
            // well: summed over all scopes, exclusive costs cover each
            // sample exactly once at statement level; using the root
            // inclusive keeps `$e/@e` percentages meaningful.
            aggregates.push(total);
        }
        raw.settle(cct.len());
        Experiment {
            cct,
            raw,
            columns,
            derived: Vec::new(),
            aggregates,
        }
    }

    /// Assemble an experiment from a lazily backed store (CPDB
    /// databases): `raw` and `columns` should have a
    /// [`crate::metrics::ColumnSource`] attached, `aggregates` come from
    /// the stored per-column totals, and `derived` carries the parsed
    /// formulas of any derived columns already present in `columns`.
    ///
    /// Nothing is attributed here — that is the point. Every view reads
    /// `columns`, whose source attributes a metric the first time one of
    /// its two columns is read; the raw columns are faulted only by what
    /// reads direct costs (the exclusive cells of Flat call-site rows,
    /// re-encoding).
    pub fn open_lazy(
        cct: Cct,
        raw: RawMetrics,
        columns: ColumnSet,
        derived: Vec<(ColumnId, Expr)>,
        aggregates: Vec<f64>,
    ) -> Self {
        Experiment {
            cct,
            raw,
            columns,
            derived,
            aggregates,
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

    /// Make every metric's inclusive and exclusive column resident. No
    /// view needs it — each faults the columns it is asked for — but a
    /// caller about to read them all can pay for them in one place. Free
    /// on a built experiment and on columns already faulted in.
    pub fn attributions(&self) {
        for c in 0..self.raw.metric_count() * 2 {
            self.columns.vec(ColumnId::from_usize(c));
        }
    }

    /// Eq. 2 inclusive cost of metric `m` at node `n`.
    pub fn inclusive(&self, m: MetricId, n: NodeId) -> f64 {
        self.columns.get(self.inclusive_col(m), n.0)
    }

    /// Eq. 1 exclusive cost of metric `m` at node `n`.
    pub fn exclusive(&self, m: MetricId, n: NodeId) -> f64 {
        self.columns.get(self.exclusive_col(m), n.0)
    }

    /// Selects nothing ([`StorageKind`]); the benchmark's adapter hands it
    /// back to [`crate::attribution::attribute`].
    pub fn storage(&self) -> StorageKind {
        StorageKind::Csr
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
    /// computed immediately for every CCT node ([`derived::evaluate`]: it
    /// reads only the columns the formula references); views compute
    /// their own values from their aggregated inputs when they are built.
    pub fn add_derived(&mut self, name: &str, formula: &str) -> Result<ColumnId, FormulaError> {
        let existing = self.columns.column_count();
        let (expr, agg) = derived::parse_column(formula, existing, &self.aggregates)?;
        self.aggregates.push(agg);
        let values = derived::evaluate(&expr, &self.columns, &self.aggregates, self.cct.len());
        let c = self.columns.add_column_with(
            ColumnDesc {
                name: name.to_owned(),
                flavor: ColumnFlavor::Derived {
                    formula: formula.to_owned(),
                },
                visible: true,
            },
            values,
        );
        self.derived.push((c, expr));
        Ok(c)
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
        let mut raw = RawMetrics::new(StorageKind::Csr);
        let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
        let fp = raw.add_metric(MetricDesc::new("fp_ops", "ops", 1.0));
        raw.add_cost(cyc, s, 1000.0);
        raw.add_cost(fp, s, 800.0);
        let _ = (main, work);
        Experiment::build(cct, raw, StorageKind::Csr)
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
    fn late_cost_is_folded_in_by_rebuild() {
        let exp = tiny_experiment();
        let cyc = MetricId(0);
        let stmt = NodeId(3);
        let chain: Vec<NodeId> = std::iter::once(stmt)
            .chain(exp.cct.ancestors(stmt))
            .collect();
        assert_eq!(chain.len(), 4, "stmt, work, main, root");
        let before: Vec<f64> = chain.iter().map(|&n| exp.inclusive(cyc, n)).collect();
        // A late-arriving cost at the statement: take the tree and the
        // raw metrics back out, add it, attribute again.
        let Experiment { cct, mut raw, .. } = exp;
        raw.add_cost(cyc, stmt, 500.0);
        let exp = Experiment::build(cct, raw, StorageKind::Csr);
        for (&n, &old) in chain.iter().zip(&before) {
            assert_eq!(exp.inclusive(cyc, n), old + 500.0, "node {n:?}");
            assert_eq!(exp.columns.get(exp.inclusive_col(cyc), n.0), old + 500.0);
        }
        assert_eq!(exp.exclusive(cyc, stmt), 1500.0);
        assert_eq!(exp.aggregate(exp.inclusive_col(cyc)), 1500.0);
        // The other views read the same columns: `work`'s Callers entry.
        let callers = crate::callers::CallersView::build(&exp);
        let work = callers
            .tree
            .roots()
            .into_iter()
            .find(|&r| callers.tree.label(r, &exp.cct.names) == "work")
            .unwrap();
        assert_eq!(
            callers.tree.value(&exp, exp.inclusive_col(cyc), work),
            1500.0
        );
    }

    #[test]
    fn derived_percent_of_total() {
        let mut exp = tiny_experiment();
        let pct = exp.add_derived("% cycles", "$0 / @0").unwrap();
        let root = exp.cct.root();
        assert_eq!(exp.columns.get(pct, root.0), 1.0);
    }
}
