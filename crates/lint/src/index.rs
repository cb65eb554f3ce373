//! Workspace-wide symbol index.
//!
//! The single-file pass ([`crate::source`]) sees one file at a time; the
//! interprocedural lints need to resolve a call in `runtime/mod.rs` to a
//! function defined in `crates/embedding/src/tiered.rs`. This module holds
//! every file's lexical model plus a flat index of all function
//! definitions, addressable by bare name (`gather_round`) and by qualified
//! `Type::method` path (`TieredStore::gather_round`), so the call-graph
//! pass can resolve call sites across crate boundaries.

use std::collections::BTreeMap;

use crate::source::{strip, tokenize, FnDef, ScanResult, Stripped, Token};

/// Lexical model of one file, kept around for every interprocedural pass.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    pub stripped: Stripped,
    pub tokens: Vec<Token>,
    pub scan: ScanResult,
    /// Whole file is test/bench/example context by location.
    pub is_test_file: bool,
}

impl FileModel {
    /// Strips, tokenizes, and structurally scans one file.
    #[must_use]
    pub fn build(rel_path: &str, text: &str) -> FileModel {
        let stripped = strip(text);
        let tokens = tokenize(&stripped.code_lines);
        let is_test_file = crate::lints::is_test_file(rel_path);
        let scan = crate::source::scan(&tokens, is_test_file);
        FileModel { rel_path: rel_path.to_string(), stripped, tokens, scan, is_test_file }
    }
}

/// Identifies one function in the workspace: index into
/// [`WorkspaceIndex::fns`].
pub type FnId = usize;

/// Where a function lives: file index and position within that file's
/// [`ScanResult::functions`].
#[derive(Debug, Clone, Copy)]
pub struct FnRef {
    pub file: usize,
    pub def: usize,
}

/// All files plus a flat, name-addressable function index.
#[derive(Debug)]
pub struct WorkspaceIndex {
    pub files: Vec<FileModel>,
    fns: Vec<FnRef>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_qual: BTreeMap<String, Vec<FnId>>,
}

impl WorkspaceIndex {
    /// Builds the index over all files.
    #[must_use]
    pub fn build(files: Vec<FileModel>) -> WorkspaceIndex {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (def_idx, def) in file.scan.functions.iter().enumerate() {
                let id = fns.len();
                fns.push(FnRef { file: file_idx, def: def_idx });
                by_name.entry(def.name.clone()).or_default().push(id);
                if let Some(qual) = &def.qual {
                    by_qual.entry(qual.clone()).or_default().push(id);
                }
            }
        }
        WorkspaceIndex { files, fns, by_name, by_qual }
    }

    /// Number of indexed functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// The file and definition behind a function id.
    #[must_use]
    pub fn lookup(&self, id: FnId) -> (&FileModel, &FnDef) {
        let fr = self.fns[id];
        (&self.files[fr.file], &self.files[fr.file].scan.functions[fr.def])
    }

    /// File index a function is defined in.
    #[must_use]
    pub fn file_of(&self, id: FnId) -> usize {
        self.fns[id].file
    }

    /// Ids of every function with this bare name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Ids of every function with this `Type::method` path.
    #[must_use]
    pub fn by_qual(&self, qual: &str) -> &[FnId] {
        self.by_qual.get(qual).map_or(&[], Vec::as_slice)
    }

    /// Iterates all function ids.
    pub fn ids(&self) -> impl Iterator<Item = FnId> {
        0..self.fns.len()
    }

    /// `file:line fn-name` witness string for reports.
    #[must_use]
    pub fn describe(&self, id: FnId) -> String {
        let (file, def) = self.lookup(id);
        format!("{}:{} `{}`", file.rel_path, def.line, def.display_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_resolves_by_name_and_qual() {
        let a = FileModel::build(
            "src/a.rs",
            "impl Cache { pub fn insert(&mut self) {} }\nfn helper() {}\n",
        );
        let b = FileModel::build("src/b.rs", "impl Buffer { pub fn insert(&mut self) {} }\n");
        let index = WorkspaceIndex::build(vec![a, b]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.by_name("insert").len(), 2);
        assert_eq!(index.by_qual("Cache::insert").len(), 1);
        assert_eq!(index.by_qual("Buffer::insert").len(), 1);
        assert_eq!(index.by_name("helper").len(), 1);
        let (file, def) = index.lookup(index.by_qual("Buffer::insert")[0]);
        assert_eq!(file.rel_path, "src/b.rs");
        assert_eq!(def.display_name(), "Buffer::insert");
    }
}
