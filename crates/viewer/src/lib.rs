#![warn(missing_docs)]
//! # callpath-viewer
//!
//! Text-mode presentation of call path profiles — the `hpcviewer`
//! substitute (the paper's GUI principles, renderer-independent):
//!
//! * a **navigation pane** rendered as an indented tree with fused
//!   call-site/callee lines (Section V-B; a `separate-lines` option exists
//!   for the ablation that shows fusing halves the tree depth);
//! * a **metric pane** with one column per metric, scientific-notation
//!   values, percentages of the aggregate, and *blank* zero cells
//!   (Section V-A);
//! * scopes at every level **sorted by the selected metric column**;
//! * **hot-path rendering** that auto-expands along Eq. 3's path and marks
//!   it (Section V-C);
//! * **flattening** and **zoom** for the Flat View (Section III-C).
//!
//! One writer ([`render`](mod@render)'s `Renderer`) formats every header line, metric
//! cell and scope row; the static renders in [`render`](mod@render) and the
//! interactive [`Session`] are two walkers over it that differ only in
//! which rows they ask for and how they mark them.
//!
//! Output is deterministic, which the golden tests rely on.

pub mod render;
pub mod session;
pub mod source_pane;

pub use render::{
    render, render_flattened, render_hot_path, render_subtree, ExpandMode, RenderConfig,
};
pub use session::{Command, Session};
pub use source_pane::{
    navigate_to_call_site, navigate_to_scope, render_selection, render_selection_filtered,
    SourceHit,
};
