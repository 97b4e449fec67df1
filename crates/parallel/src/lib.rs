#![warn(missing_docs)]
//! # callpath-parallel
//!
//! SPMD execution, scalable metric summarization and load-imbalance
//! identification (Sections IV finalization, VI-C and VII).
//!
//! * [`spmd`] runs one program on N simulated ranks (in parallel, through
//!   `core::pool::chunked_map`), each with its own work scale from an
//!   uneven domain partition; barrier waiting time is converted into
//!   `IDLENESS` samples attributed to the barrier's calling context, and
//!   all rank profiles are correlated into one canonical CCT.
//! * [`summarize`] streams each rank's attributed inclusive and
//!   exclusive values through the summary kernel
//!   (`core::summary::Summarizer`) — mean/min/max/stddev per CCT node —
//!   without ever holding all ranks in memory at once (the paper's
//!   scalability requirement), and can append the statistics as CCT
//!   metric columns.
//! * [`imbalance`] reproduces Fig. 7's three per-process charts (scatter,
//!   sorted, histogram) as ASCII, plus scalar imbalance statistics.

pub mod imbalance;
pub mod spmd;
pub mod summarize;

pub use imbalance::{ascii_histogram, ascii_scatter, ascii_sorted, histogram, ImbalanceStats};
pub use spmd::{run_spmd, SpmdConfig, SpmdRun};
pub use summarize::{summarize_ranks, Summaries};
