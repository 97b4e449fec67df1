#![warn(missing_docs)]
//! # callpath-prof
//!
//! Correlation of dynamic call path profiles with static program
//! structure — the `hpcprof` substitute.
//!
//! The [`Correlator`] fuses a [`RawProfile`](callpath_profiler::RawProfile)
//! (a trie of call-site addresses with per-instruction sample counts) with
//! a recovered [`Structure`](callpath_structure::Structure) into the
//! paper's *canonical calling context tree*: procedure frames interleaved
//! with the loops and inlined bodies that contain each call site and each
//! sampled instruction (Section III-D, IV-A).
//!
//! Multiple profiles (ranks, threads) can be correlated into one canonical
//! CCT; [`Correlator::add`] returns the per-node direct costs of each
//! profile so `callpath-parallel` can compute per-rank statistics, and
//! [`Correlator::finish`] produces the aggregated
//! [`Experiment`](callpath_core::experiment::Experiment). The correlator
//! remembers the node every (frame node, address) pair resolved to, so
//! ranks that repeat each other's contexts cost a hash lookup per raw
//! frame and leaf; [`ParallelCorrelator`] is its `add` loop over ranks.

pub mod correlate;
pub mod object_view;

pub use correlate::{correlate, Correlator, ParallelCorrelator, PerNodeCosts};
pub use object_view::{object_view, render_object_view, ObjectLine, ObjectView};
