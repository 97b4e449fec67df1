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
//! [`Experiment`](callpath_core::experiment::Experiment).
//!
//! For many ranks, [`ParallelCorrelator`] shards the profiles across
//! worker threads and merges the shard CCTs with a deterministic replay
//! that reproduces the sequential correlator's node ids exactly.

pub mod correlate;
pub mod object_view;
pub mod parallel;

pub use correlate::{correlate, Correlator, PerNodeCosts};
pub use object_view::{object_view, render_object_view, ObjectLine, ObjectView};
pub use parallel::{IngestMode, ParallelCorrelator, SHARD_CUTOVER};
