//! The source pane's data: program source text, addressable by the file
//! ids of an experiment's name table.
//!
//! hpcviewer keeps a source pane next to the navigation pane: selecting a
//! scope navigates the source pane to the file and line it came from,
//! and clicking a call-site icon navigates to the call site instead
//! (Section V-B). The store is deliberately decoupled from the
//! experiment — like hpcviewer, which reads sources from the file system
//! and degrades gracefully (plain-black labels) when they are missing.

use crate::ids::FileId;
use crate::names::NameTable;
use std::collections::HashMap;

/// Source text for some subset of an experiment's files.
#[derive(Debug, Clone, Default)]
pub struct SourceStore {
    files: HashMap<FileId, Vec<String>>,
}

impl SourceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the text of `file`.
    pub fn insert(&mut self, file: FileId, text: &str) {
        self.files
            .insert(file, text.lines().map(str::to_owned).collect());
    }

    /// Build a store by matching `(filename, text)` pairs against an
    /// experiment's name table. Unknown filenames are ignored (the viewer
    /// simply has no source for them).
    pub fn from_texts<'a>(
        names: &NameTable,
        texts: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> SourceStore {
        let by_name: HashMap<&str, FileId> = (0..names.file_count())
            .map(|i| {
                let id = FileId(i as u32);
                (names.file_name(id), id)
            })
            .collect();
        let mut store = SourceStore::new();
        for (name, text) in texts {
            if let Some(&id) = by_name.get(name) {
                store.insert(id, text);
            }
        }
        store
    }

    /// True when the store has text for `file`.
    pub fn has(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// 1-based line lookup.
    pub fn line(&self, file: FileId, line: u32) -> Option<&str> {
        if line == 0 {
            return None;
        }
        self.files
            .get(&file)?
            .get(line as usize - 1)
            .map(String::as_str)
    }

    /// A numbered excerpt around `line` with `context` lines either side;
    /// the focused line is marked with `>`. Returns `None` when the file
    /// is unknown or the line is out of range.
    pub fn excerpt(&self, file: FileId, line: u32, context: u32) -> Option<String> {
        let lines = self.files.get(&file)?;
        if line == 0 || line as usize > lines.len() {
            return None;
        }
        let lo = line.saturating_sub(context).max(1);
        let hi = (line + context).min(lines.len() as u32);
        let mut out = String::new();
        for l in lo..=hi {
            let marker = if l == line { '>' } else { ' ' };
            out.push_str(&format!("{marker}{l:>5}  {}\n", lines[l as usize - 1]));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (SourceStore, FileId) {
        let mut names = NameTable::new();
        let f = names.file("a.c");
        let mut s = SourceStore::new();
        s.insert(f, "int main() {\n  work();\n  return 0;\n}\n");
        (s, f)
    }

    #[test]
    fn line_lookup_is_one_based() {
        let (s, f) = store();
        assert_eq!(s.line(f, 1), Some("int main() {"));
        assert_eq!(s.line(f, 2), Some("  work();"));
        assert_eq!(s.line(f, 0), None, "line 0 = unknown");
        assert_eq!(s.line(f, 4), Some("}"));
        assert_eq!(s.line(f, 5), None, "past the last line");
    }

    #[test]
    fn excerpt_marks_the_focus_line() {
        let (s, f) = store();
        let text = s.excerpt(f, 2, 1).unwrap();
        assert_eq!(
            text,
            "     1  int main() {\n>    2    work();\n     3    return 0;\n"
        );
    }

    #[test]
    fn excerpt_clamps_to_file_bounds() {
        let (s, f) = store();
        let top = s.excerpt(f, 1, 5).unwrap();
        assert!(top.starts_with(">    1"));
        assert_eq!(top.lines().count(), 4);
        assert!(s.excerpt(f, 10, 1).is_none());
    }

    #[test]
    fn from_texts_matches_by_name() {
        let mut names = NameTable::new();
        let a = names.file("a.c");
        let _b = names.file("b.c");
        let store = SourceStore::from_texts(&names, [("a.c", "line1\n"), ("zzz.c", "ignored\n")]);
        assert!(store.has(a));
        assert_eq!(store.line(a, 1), Some("line1"));
        assert!(!store.has(_b));
    }
}
