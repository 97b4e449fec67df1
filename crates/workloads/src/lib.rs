#![warn(missing_docs)]
//! # callpath-workloads
//!
//! Synthetic program models shaped like the paper's case studies, plus
//! random workload generators for the scalability tests.
//!
//! | Module | Paper artifact | Shape |
//! |---|---|---|
//! | [`fig1`] | Fig. 1/2 toy program | two files, recursive `g`, loop nest in `h`; also a hand-built CCT with the figure's exact costs |
//! | [`s3d`] | Fig. 3 & 6 (turbulent combustion) | deep Fortran-style chain, `chemkin` reaction rates ≈ 41% inclusive, memory-bound flux loop at ~6% FP efficiency, exp-routine loop at ~39% |
//! | [`moab`] | Fig. 4 & 5 (mesh benchmark) | inlined red-black-tree search under `get_coords`, `_intel_fast_memset.A` called from two contexts |
//! | [`pflotran`] | Fig. 7 (subsurface flow) | SPMD time-stepper with barriers and an uneven domain partition |
//! | [`generator`] | Section VII scalability | random programs and random ready-made experiments of arbitrary size |
//! | [`synth`] | zero-copy scaling bench | million-node database models emitted directly as [`callpath_expdb::model::DbModel`] |
//!
//! [`pipeline::build_experiment`] runs the full toolchain (lower → execute
//! → recover structure → correlate) on any of these programs.

pub mod fig1;
pub mod generator;
pub mod moab;
pub mod pflotran;
pub mod pipeline;
pub mod s3d;
pub mod synth;
