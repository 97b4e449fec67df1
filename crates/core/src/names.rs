//! String interning for procedure, file and load-module names, plus source
//! locations.
//!
//! A profile of a large application references the same handful of names
//! from millions of CCT nodes; interning keeps nodes small (`u32` per name)
//! and makes name equality an integer compare, which the view-construction
//! passes rely on heavily.

use crate::ids::{FileId, LoadModuleId, ProcId};
use std::collections::HashMap;
use std::fmt;

/// A single interning table mapping strings to dense `u32` ids.
#[derive(Debug, Default, Clone)]
struct Interner {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if self.lookup.is_empty() && !self.strings.is_empty() {
            self.rebuild_lookup();
        }
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(s.to_owned());
        self.lookup.insert(s.to_owned(), id);
        id
    }

    fn rebuild_lookup(&mut self) {
        self.lookup = self
            .strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }

    fn get(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    fn len(&self) -> usize {
        self.strings.len()
    }
}

/// One of a [`NameTable`]'s three namespaces, for code that handles ids
/// of all three alike (a topology's encoded fields, `crate::topo::Field`).
/// The discriminant indexes per-namespace arrays: procedures, files,
/// modules — the order of a topology's clamp limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Namespace {
    /// Procedure names ([`ProcId`]).
    Proc = 0,
    /// Source file names ([`FileId`]).
    File = 1,
    /// Load module names ([`LoadModuleId`]).
    Module = 2,
}

impl Namespace {
    /// All three, in discriminant order.
    pub const ALL: [Namespace; 3] = [Namespace::Proc, Namespace::File, Namespace::Module];
}

/// Name tables shared by a CCT and all views derived from it.
///
/// Procedures, files and load modules intern into separate namespaces, so a
/// file and a procedure that happen to share a spelling still get distinct
/// typed ids.
#[derive(Debug, Default, Clone)]
pub struct NameTable {
    procs: Interner,
    files: Interner,
    modules: Interner,
}

impl NameTable {
    /// Empty name tables.
    pub fn new() -> Self {
        Self::default()
    }

    fn interner(&self, ns: Namespace) -> &Interner {
        match ns {
            Namespace::Proc => &self.procs,
            Namespace::File => &self.files,
            Namespace::Module => &self.modules,
        }
    }

    /// Intern `name` into namespace `ns`, returning its raw id.
    pub fn intern(&mut self, ns: Namespace, name: &str) -> u32 {
        match ns {
            Namespace::Proc => self.procs.intern(name),
            Namespace::File => self.files.intern(name),
            Namespace::Module => self.modules.intern(name),
        }
    }

    /// Name of raw id `id` in namespace `ns`.
    pub fn name(&self, ns: Namespace, id: u32) -> &str {
        self.interner(ns).get(id)
    }

    /// Number of names interned in namespace `ns`.
    pub fn count(&self, ns: Namespace) -> usize {
        self.interner(ns).len()
    }

    /// Intern a procedure name.
    pub fn proc(&mut self, name: &str) -> ProcId {
        ProcId(self.procs.intern(name))
    }

    /// Intern a source file name.
    pub fn file(&mut self, name: &str) -> FileId {
        FileId(self.files.intern(name))
    }

    /// Intern a load-module name.
    pub fn module(&mut self, name: &str) -> LoadModuleId {
        LoadModuleId(self.modules.intern(name))
    }

    /// Name of procedure `id`.
    pub fn proc_name(&self, id: ProcId) -> &str {
        self.procs.get(id.0)
    }

    /// Name of file `id`.
    pub fn file_name(&self, id: FileId) -> &str {
        self.files.get(id.0)
    }

    /// Name of load module `id`.
    pub fn module_name(&self, id: LoadModuleId) -> &str {
        self.modules.get(id.0)
    }

    /// Number of interned procedures.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of interned files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of interned load modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }
}

/// A source location: file plus 1-based line number.
///
/// Line 0 means "unknown line" (e.g. a binary-only routine with no line
/// map, like the `main` wrapper the paper shows in plain black).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceLoc {
    /// The file.
    pub file: FileId,
    /// 1-based line; 0 = unknown.
    pub line: u32,
}

impl SourceLoc {
    /// A location at `file:line`.
    pub fn new(file: FileId, line: u32) -> Self {
        SourceLoc { file, line }
    }

    /// True when the location carries a usable line number.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}:{}", self.file.0, self.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.proc("rhsf_");
        let b = t.proc("rhsf_");
        assert_eq!(a, b);
        assert_eq!(t.proc_name(a), "rhsf_");
        assert_eq!(t.proc_count(), 1);
    }

    #[test]
    fn namespaces_are_separate() {
        let mut t = NameTable::new();
        let p = t.proc("x");
        let f = t.file("x");
        let m = t.module("x");
        assert_eq!(p.0, 0);
        assert_eq!(f.0, 0);
        assert_eq!(m.0, 0);
        assert_eq!(t.proc_name(p), "x");
        assert_eq!(t.file_name(f), "x");
        assert_eq!(t.module_name(m), "x");
    }

    #[test]
    fn namespace_access_matches_the_typed_methods() {
        let mut t = NameTable::new();
        let p = t.proc("f");
        assert_eq!(t.intern(Namespace::File, "f.c"), t.file("f.c").0);
        assert_eq!(t.intern(Namespace::Module, "m"), 0);
        assert_eq!(t.name(Namespace::Proc, p.0), "f");
        assert_eq!(t.name(Namespace::Module, 0), t.module_name(LoadModuleId(0)));
        for (ns, n) in Namespace::ALL.into_iter().zip([1, 1, 1]) {
            assert_eq!(t.count(ns), n);
        }
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = NameTable::new();
        let a = t.file("file1.c");
        let b = t.file("file2.c");
        assert_ne!(a, b);
        assert_eq!(t.file_count(), 2);
    }

    #[test]
    fn an_emptied_lookup_is_rebuilt_before_interning() {
        let mut t = NameTable::new();
        t.proc("f");
        t.proc("g");
        // Strings present, lookup map empty.
        let mut t2 = t.clone();
        t2.procs.lookup.clear();
        let g = t2.proc("g");
        assert_eq!(t2.proc_name(g), "g");
        assert_eq!(t2.proc_count(), 2, "re-interning must not duplicate");
    }

    #[test]
    fn source_loc_known() {
        assert!(!SourceLoc::new(FileId(0), 0).is_known());
        assert!(SourceLoc::new(FileId(0), 17).is_known());
    }
}
