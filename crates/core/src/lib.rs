#![warn(missing_docs)]
//! # callpath-core
//!
//! Core data structures and algorithms for *effectively presenting call
//! path profiles*, reproducing Adhianto, Mellor-Crummey and Tallent,
//! "Effectively Presenting Call Path Profiles of Application Performance"
//! (ICPP 2010) — the paper behind HPCToolkit's `hpcviewer`.
//!
//! The crate provides:
//!
//! * a **canonical calling context tree** ([`cct::Cct`]) fusing dynamic
//!   call chains with static structure (loops, statements, inlined code);
//! * **metric attribution** ([`attribution`]) implementing the paper's
//!   hybrid exclusive rules (Eq. 1) and inductive inclusive costs (Eq. 2);
//! * the three complementary **views** — Calling Context
//!   ([`view::View::calling_context`]), Callers ([`callers::CallersView`],
//!   lazily constructed) and Flat ([`flat::FlatView`], with flattening);
//! * recursion-correct aggregation via **exposed instances**
//!   ([`exposure`], Section IV-B);
//! * **hot path analysis** ([`hotpath`], Eq. 3);
//! * a **derived metric** formula engine ([`derived`], `$n`/`@n`
//!   spreadsheet-style columns, Section V-D);
//! * streaming **summary statistics** for large parallel executions
//!   ([`summary`], Section VII).
//!
//! ## Quick example
//!
//! ```
//! use callpath_core::prelude::*;
//!
//! // Build a two-frame CCT by hand (profilers normally do this).
//! let mut names = NameTable::new();
//! let file = names.file("app.c");
//! let module = names.module("app");
//! let p_main = names.proc("main");
//! let p_work = names.proc("work");
//! let mut cct = Cct::new(names);
//! let root = cct.root();
//! let main = cct.add_child(root, ScopeKind::Frame {
//!     proc: p_main, module,
//!     def: SourceLoc::new(file, 1), call_site: None,
//! });
//! let work = cct.add_child(main, ScopeKind::Frame {
//!     proc: p_work, module,
//!     def: SourceLoc::new(file, 10),
//!     call_site: Some(SourceLoc::new(file, 3)),
//! });
//! let stmt = cct.add_child(work, ScopeKind::Stmt {
//!     loc: SourceLoc::new(file, 11),
//! });
//!
//! // Record samples and attribute them.
//! let mut raw = RawMetrics::new(StorageKind::Csr);
//! let cyc = raw.add_metric(MetricDesc::new("cycles", "cycles", 1.0));
//! raw.record_samples(cyc, stmt, 100);
//! let exp = Experiment::build(cct, raw, StorageKind::Csr);
//!
//! // All cost flows up the calling context.
//! let incl = exp.inclusive_col(cyc);
//! assert_eq!(exp.columns.get(incl, main.0), 100.0);
//!
//! // The hot path from main lands on the statement.
//! let mut ccv = View::calling_context(&exp);
//! let path = ccv.hot_path(main.0, incl, HotPathConfig::default());
//! assert_eq!(ccv.label(*path.last().unwrap()), "app.c:11");
//! ```

pub mod attribution;
pub mod callers;
pub mod cct;
pub mod derived;
pub mod diff;
pub mod experiment;
pub mod exposure;
pub mod flat;
pub mod format;
pub mod hash;
pub mod hotpath;
pub mod ids;
pub mod jsonval;
pub mod mapped;
pub mod metrics;
pub mod names;
pub mod pool;
pub mod scope;
pub mod source;
pub mod summary;
pub mod supergraph;
pub mod topo;
pub mod view;
pub mod viewtree;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::attribution::{attribute, Attribution};
    pub use crate::callers::CallersView;
    pub use crate::cct::Cct;
    pub use crate::derived::{EvalContext, Expr, FormulaError, SliceContext};
    pub use crate::diff::{merge_experiments, scaling_loss, ScalingAnalysis};
    pub use crate::experiment::Experiment;
    pub use crate::exposure::exposed;
    pub use crate::flat::FlatView;
    pub use crate::format;
    pub use crate::hotpath::{hot_path, HotPathConfig};
    pub use crate::ids::{ColumnId, FileId, LoadModuleId, MetricId, NodeId, ProcId, ViewNodeId};
    pub use crate::mapped::{ByteImage, MappedCol, MappedTopology};
    pub use crate::metrics::{
        ColumnDesc, ColumnFlavor, ColumnSet, ColumnSource, CsrColumn, MetricDesc, MetricVec,
        NonzeroSorted, RawMetrics, StorageKind,
    };
    pub use crate::names::{NameTable, SourceLoc};
    pub use crate::pool::{chunked_map, reduce_pairwise, resolve_threads, PoolStats};
    pub use crate::scope::ScopeKind;
    pub use crate::source::SourceStore;
    pub use crate::summary::{Stat, Welford};
    pub use crate::supergraph::{arena_journal, merge_shards, replay_into, CctShard, RemapNodes};
    pub use crate::topo::Topo;
    pub use crate::view::{sort_by_column, sort_nodes_with, top_k_by_column, View, ViewKind};
    pub use crate::viewtree::{
        LabelCache, SortCache, SortDir, SortKey, ViewScope, ViewTree, TOP_SLOT_BASE,
    };
}
