#![forbid(unsafe_code)]
//! `microrec-lint` — repo-specific static analysis for the MicroRec
//! workspace.
//!
//! The reproduction's robustness and reproducibility guarantees are
//! *invariants*, not conventions: the serving runtime must not panic,
//! placement/simulation must be bit-identical across runs, every `unsafe`
//! needs a written safety argument, and condvar waits must sit in
//! predicate loops. This crate token-scans each file of the workspace on
//! its own and enforces those rules in CI, with a per-site
//! `// lint: allow(<id>) <reason>` escape hatch.
//!
//! What a single-file scan cannot see is carried by the code and its
//! tests instead. Allocation-freedom of the served path is measured by
//! counting-allocator tests (`crates/core/tests/setup_alloc.rs`, the dnn
//! and embedding `zero_alloc` tests). A panic anywhere under an engine
//! call, in any crate, is contained by the runtime worker and fails only
//! its request. Lock discipline (runtime locks never nest; no condvar wait
//! or join under another lock) is checked in debug builds on every
//! acquisition by `crates/core/src/sync.rs`.
//!
//! Lints (configured per crate/module in the checked-in `lint.toml`):
//!
//! | id | rule |
//! |----|------|
//! | `no-panic-serving` | no `.unwrap()`/`.expect(`/`panic!`/`todo!` in the serving runtime outside tests |
//! | `unsafe-audit` | every `unsafe` site carries an adjacent `// SAFETY:` comment (or `# Safety` doc section) |
//! | `determinism` | no `HashMap`/`HashSet`/`Instant`/`SystemTime`/`thread_rng` in bit-identity crates |
//! | `condvar-loop` | `Condvar::wait`/`wait_timeout` only inside `while`/`loop` predicate re-checks |
//! | `unused-allow` | every `lint: allow` still suppresses something |
//!
//! A sixth id, `malformed-allow`, fires on broken escape-hatch comments
//! so a typo can never silently disable enforcement. Run
//! `microrec-lint --explain <id>` for any lint's invariant and
//! rationale.

mod config;
mod docs;
mod lints;
mod source;

pub use config::{glob_match, Config, ConfigError, Severity, LINT_IDS, MALFORMED_ALLOW};
pub use docs::{explain, render_markdown_table, LintDoc, LINT_DOCS};
pub use lints::{count_by_lint, lint_source, Diagnostic, FileReport};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregate result of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by (file, line, lint).
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    /// Findings silenced by well-formed `lint: allow` comments.
    pub suppressed: usize,
}

impl Report {
    /// True when nothing was reported.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics that fail the run: all of them under `deny_all`,
    /// otherwise only those from `severity = "deny"` lints.
    #[must_use]
    pub fn failing(&self, deny_all: bool) -> usize {
        self.diagnostics.iter().filter(|d| deny_all || d.severity == Severity::Deny).count()
    }
}

/// Loads the manifest from `path`.
///
/// # Errors
///
/// Returns an [`io::Error`] when the file is unreadable or malformed
/// (parse errors are wrapped with [`io::ErrorKind::InvalidData`]).
pub fn load_config(path: &Path) -> io::Result<Config> {
    let text = fs::read_to_string(path)?;
    Config::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Lints every `.rs` file under `root` (excluding the manifest's
/// `exclude` globs plus `target/` and VCS metadata).
///
/// # Errors
///
/// Returns an [`io::Error`] if the tree cannot be walked or a source
/// file cannot be read.
pub fn run(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, root, config, &mut files)?;
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let file = lint_source(&rel_str, &text, config);
        report.diagnostics.extend(file.diagnostics);
        report.suppressed += file.suppressed;
    }
    report.diagnostics.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
    Ok(report)
}

/// Renders a report in the stable machine-readable schema
/// (`microrec-lint-v3`): every diagnostic carries `file`, `line`, `lint`,
/// `severity` and `message`. Consumed by CI artifacts and the
/// workspace-clean integration test — field removals or renames are
/// breaking (v3 removed v2's interprocedural `chain`).
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"schema\":\"microrec-lint-v3\",\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"lint\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(&d.lint),
            d.severity,
            json_escape(&d.message),
        ));
    }
    out.push_str(&format!(
        "],\"files_scanned\":{},\"suppressed\":{}}}",
        report.files_scanned, report.suppressed
    ));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn walk(root: &Path, dir: &Path, config: &Config, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if excluded(&rel_str, &name, config) {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            walk(root, &path, config, out)?;
        } else if ty.is_file() && rel_str.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

fn excluded(rel: &str, name: &str, config: &Config) -> bool {
    if name == "target" || name.starts_with('.') {
        return true;
    }
    config.exclude.iter().any(|pattern| {
        glob_match(pattern, rel)
            || rel == pattern.as_str()
            || rel.starts_with(&format!("{pattern}/"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusion_by_prefix_and_glob() {
        let config =
            Config::parse("exclude = [\"crates/lint/tests/fixtures\", \"**/gen\"]\n").unwrap();
        assert!(excluded("crates/lint/tests/fixtures", "fixtures", &config));
        assert!(excluded("crates/lint/tests/fixtures/x.rs", "x.rs", &config));
        assert!(excluded("a/b/gen", "gen", &config));
        assert!(excluded("target", "target", &config));
        assert!(!excluded("crates/core/src/lib.rs", "lib.rs", &config));
    }
}
