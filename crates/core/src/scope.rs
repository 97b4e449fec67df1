//! Program scopes: the vocabulary shared by the canonical CCT and the three
//! presentation views.
//!
//! The paper distinguishes *dynamic* scopes (procedure activations reached
//! through a `<call site, callee>` pair) from *static* scopes (load module,
//! file, procedure, loop, statement, inlined code). The canonical CCT that
//! `hpcprof` synthesizes interleaves both: procedure frames are dynamic,
//! while the loops and statements nested inside a frame are static program
//! structure fused into the dynamic call chain.

use crate::ids::{LoadModuleId, ProcId};
use crate::names::{NameTable, SourceLoc};

/// The kind of a node in a canonical calling context tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScopeKind {
    /// The synthetic root of the experiment (aggregates whole-program cost).
    Root,
    /// A procedure activation: dynamic scope. `call_site` is `None` for
    /// top-level frames (e.g. `main`), and the paper's fused presentation
    /// shows call site and callee on a single line.
    Frame {
        /// The procedure being activated.
        proc: ProcId,
        /// Load module housing the procedure.
        module: LoadModuleId,
        /// Where the procedure is defined (file + first line); used to place
        /// the procedure in the Flat View and to navigate the source pane.
        def: SourceLoc,
        /// The call site in the *caller* that created this activation.
        call_site: Option<SourceLoc>,
    },
    /// A procedure body inlined into the enclosing frame: static scope, but
    /// frame-like for attribution (Fig. 5's inlined red-black-tree search).
    InlinedFrame {
        /// The procedure whose body was inlined.
        proc: ProcId,
        /// Where the inlined procedure is defined.
        def: SourceLoc,
        /// Where it was inlined into the host.
        call_site: SourceLoc,
    },
    /// A loop, identified by its header location. Static scope.
    Loop {
        /// Loop header location.
        header: SourceLoc,
    },
    /// A source statement. Static scope; samples land here.
    Stmt {
        /// Statement location.
        loc: SourceLoc,
    },
}

impl ScopeKind {
    /// Procedure frames get the "dynamic" exclusive-metric rule (rule 1 of
    /// Eq. 1): they absorb every descendant statement reachable without
    /// crossing a call site. Inlined frames behave the same way for
    /// attribution purposes.
    pub fn is_frame(&self) -> bool {
        matches!(
            self,
            ScopeKind::Frame { .. } | ScopeKind::InlinedFrame { .. }
        )
    }

    /// True for statement scopes.
    pub fn is_stmt(&self) -> bool {
        matches!(self, ScopeKind::Stmt { .. })
    }

    /// True for loop scopes.
    pub fn is_loop(&self) -> bool {
        matches!(self, ScopeKind::Loop { .. })
    }

    /// The procedure this scope belongs to directly, if it is a frame.
    pub fn frame_proc(&self) -> Option<ProcId> {
        match self {
            ScopeKind::Frame { proc, .. } | ScopeKind::InlinedFrame { proc, .. } => Some(*proc),
            _ => None,
        }
    }

    /// Render a human-readable label, e.g. `loop at file1.c:8` or `g`.
    pub fn label(&self, names: &NameTable) -> String {
        let mut s = String::new();
        self.write_label(names, &mut s);
        s
    }

    /// [`ScopeKind::label`] writing into an existing buffer: the renderer's
    /// per-row hot path borrows the interned names straight out of the
    /// name table instead of allocating a fresh `String` per row.
    pub fn write_label(&self, names: &NameTable, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            ScopeKind::Root => out.push_str("<program root>"),
            ScopeKind::Frame { proc, .. } => out.push_str(names.proc_name(*proc)),
            ScopeKind::InlinedFrame { proc, .. } => {
                out.push_str("inlined from ");
                out.push_str(names.proc_name(*proc));
            }
            ScopeKind::Loop { header } => {
                let _ = write!(
                    out,
                    "loop at {}:{}",
                    names.file_name(header.file),
                    header.line
                );
            }
            ScopeKind::Stmt { loc } => {
                let _ = write!(out, "{}:{}", names.file_name(loc.file), loc.line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, LoadModuleId, ProcId};

    fn loc(line: u32) -> SourceLoc {
        SourceLoc::new(FileId(0), line)
    }

    #[test]
    fn frame_classification() {
        assert!(!ScopeKind::Root.is_frame());
        let frame = ScopeKind::Frame {
            proc: ProcId(0),
            module: LoadModuleId(0),
            def: loc(1),
            call_site: None,
        };
        assert!(frame.is_frame());
        assert!(!ScopeKind::Loop { header: loc(2) }.is_frame());
        assert!(!ScopeKind::Stmt { loc: loc(3) }.is_frame());
    }

    #[test]
    fn inlined_frames_are_frame_like() {
        let inl = ScopeKind::InlinedFrame {
            proc: ProcId(1),
            def: loc(10),
            call_site: loc(5),
        };
        assert!(inl.is_frame());
        assert_eq!(inl.frame_proc(), Some(ProcId(1)));
    }

    #[test]
    fn labels() {
        let mut names = NameTable::new();
        let f = names.file("file1.c");
        let p = names.proc("g");
        let frame = ScopeKind::Frame {
            proc: p,
            module: names.module("a.out"),
            def: SourceLoc::new(f, 1),
            call_site: None,
        };
        assert_eq!(frame.label(&names), "g");
        let lp = ScopeKind::Loop {
            header: SourceLoc::new(f, 8),
        };
        assert_eq!(lp.label(&names), "loop at file1.c:8");
        let st = ScopeKind::Stmt {
            loc: SourceLoc::new(f, 9),
        };
        assert_eq!(st.label(&names), "file1.c:9");
    }
}
