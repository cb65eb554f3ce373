//! The lint passes: one token scan per file.
//!
//! Each file's findings ([`crate::source::scan`]) are scoped by the
//! manifest, then checked against the file's `lint: allow` comments; an
//! allow that suppressed nothing is itself reported (`unused-allow`), and
//! a broken one always is (`malformed-allow`).

use std::collections::BTreeMap;

use crate::config::{glob_match, is_configurable, Config, LintScope, Severity, MALFORMED_ALLOW};
use crate::source::{scan, strip, tokenize, Finding, FindingKind, Stripped};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Lint id (one of [`crate::LINT_IDS`]).
    pub lint: String,
    pub severity: Severity,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a well-formed `lint: allow` comment.
    pub suppressed: usize,
}

/// A parsed, well-formed `lint: allow(<id>) <reason>` comment, with a
/// use counter so stale ones can be flagged by `unused-allow`.
#[derive(Debug)]
struct Allow {
    line: usize,
    id: String,
    /// Standalone comment (no code on its line): also covers the line
    /// directly below.
    covers_next: bool,
    used: usize,
}

/// True when an allow for `id` anchors `line`; counts the use.
fn suppressed(allows: &mut [Allow], id: &str, line: usize) -> bool {
    let hit = allows
        .iter_mut()
        .find(|a| a.id == id && (a.line == line || (a.covers_next && a.line + 1 == line)));
    hit.map(|a| a.used += 1).is_some()
}

/// Lints one file's source text against the manifest.
#[must_use]
pub fn lint_source(rel_path: &str, text: &str, config: &Config) -> FileReport {
    let stripped = strip(text);
    let findings = scan(&tokenize(&stripped.code_lines), is_test_file(rel_path));
    let mut diagnostics = Vec::new();
    let mut allows = collect_allows(rel_path, &stripped, &mut diagnostics);
    for finding in &findings {
        let Some((lint, scope)) = scope_for(finding, config, rel_path) else {
            continue;
        };
        if !scope_accepts(finding)
            || (matches!(finding.kind, FindingKind::UnsafeSite { .. })
                && has_safety_comment(&stripped, finding.line))
            || suppressed(&mut allows, lint, finding.line)
        {
            continue;
        }
        diagnostics.push(Diagnostic {
            file: rel_path.to_string(),
            line: finding.line,
            lint: lint.to_string(),
            severity: scope.severity,
            message: message_for(finding),
        });
    }
    unused_allows(rel_path, config, &mut allows, &mut diagnostics);
    diagnostics.sort_by(|a, b| (a.line, &a.lint, &a.message).cmp(&(b.line, &b.lint, &b.message)));
    FileReport { diagnostics, suppressed: allows.iter().map(|a| a.used).sum() }
}

/// Which lint (if any) a finding kind belongs to, when the file is in
/// that lint's configured paths.
fn scope_for<'c>(
    finding: &Finding,
    config: &'c Config,
    rel_path: &str,
) -> Option<(&'static str, &'c LintScope)> {
    let lint = match finding.kind {
        FindingKind::PanicCall { .. } => "no-panic-serving",
        FindingKind::UnsafeSite { .. } => "unsafe-audit",
        FindingKind::Nondet { .. } => "determinism",
        FindingKind::BareWait { .. } => "condvar-loop",
    };
    let scope = config.lints.get(lint)?;
    scope.paths.iter().any(|p| glob_match(p, rel_path)).then_some((lint, scope))
}

/// Per-finding scope rules beyond path matching.
fn scope_accepts(finding: &Finding) -> bool {
    match finding.kind {
        // Unsafe code needs a SAFETY argument even in tests; a bare wait
        // is a deadlock seed wherever it appears.
        FindingKind::UnsafeSite { .. } | FindingKind::BareWait { .. } => true,
        // Panic and determinism rules guard production code only — tests
        // may unwrap and time freely.
        _ => !finding.in_test,
    }
}

fn message_for(finding: &Finding) -> String {
    match &finding.kind {
        FindingKind::PanicCall { what } => {
            format!("`{what}` can panic inside the serving runtime; return an error instead")
        }
        FindingKind::UnsafeSite { kind } => {
            format!("{kind} without an adjacent `// SAFETY:` comment")
        }
        FindingKind::Nondet { what } => {
            format!("`{what}` is nondeterministic in a bit-identity crate")
        }
        FindingKind::BareWait { what } => {
            format!("`Condvar::{what}` outside a `while`/`loop` predicate re-check")
        }
    }
}

/// Whole files that are test/bench/demo context by location.
fn is_test_file(rel_path: &str) -> bool {
    rel_path.split('/').any(|segment| matches!(segment, "tests" | "benches" | "examples"))
}

/// Finds every `lint: allow` comment; malformed ones become diagnostics
/// immediately (they must never silently fail to suppress).
fn collect_allows(rel_path: &str, stripped: &Stripped, out: &mut Vec<Diagnostic>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in &stripped.comments {
        // A directive must *start* the comment (`// lint: allow(...)`),
        // so prose that merely mentions the grammar never matches. Doc
        // comments arrive as `/ lint: ...` (one slash is part of the
        // comment text) and are tolerated.
        let text = comment.text.trim_start().trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let Some(rest) = rest.trim_start().strip_prefix("allow") else {
            continue;
        };
        let mut bad = |why: &str| {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: comment.line,
                lint: MALFORMED_ALLOW.to_string(),
                severity: Severity::Deny,
                message: format!("malformed `lint: allow` comment: {why}"),
            });
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            bad("expected `(<lint-id>)` after `allow`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("unterminated `(<lint-id>)`");
            continue;
        };
        let id = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        if id == MALFORMED_ALLOW {
            bad("`malformed-allow` cannot be allowed");
            continue;
        }
        if !is_configurable(&id) {
            bad(&format!("unknown lint id `{id}`"));
            continue;
        }
        if reason.is_empty() {
            bad("a justification is required after the `(<lint-id>)`");
            continue;
        }
        let covers_next =
            stripped.code_lines.get(comment.line - 1).is_none_or(|code| code.trim().is_empty());
        allows.push(Allow { line: comment.line, id, covers_next, used: 0 });
    }
    allows
}

/// True when an unsafe site at `line` carries a SAFETY justification: a
/// `// SAFETY:` (or `/// # Safety` doc section) comment on the same line
/// or in the contiguous comment/attribute block directly above.
fn has_safety_comment(stripped: &Stripped, line: usize) -> bool {
    let mentions_safety = |l: usize| {
        stripped
            .comments
            .iter()
            .filter(|c| c.line == l)
            .any(|c| c.text.contains("SAFETY:") || c.text.contains("# Safety"))
    };
    if mentions_safety(line) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let code = stripped.code_lines.get(l - 1).map_or("", |s| s.as_str()).trim();
        let has_comment = stripped.comments.iter().any(|c| c.line == l);
        let is_attr = code.starts_with('#') || code.ends_with(']');
        if mentions_safety(l) {
            return true;
        }
        if (code.is_empty() && has_comment) || is_attr {
            l -= 1;
            continue;
        }
        break;
    }
    false
}

/// `unused-allow`: an allow that suppressed nothing is a stale exemption.
/// Stale allows of other ids may be excused by an adjacent
/// `allow(unused-allow)`; a stale `allow(unused-allow)` never is.
fn unused_allows(rel_path: &str, config: &Config, allows: &mut [Allow], out: &mut Vec<Diagnostic>) {
    let Some(scope) = config.lints.get("unused-allow") else {
        return;
    };
    if !scope.paths.iter().any(|p| glob_match(p, rel_path)) {
        return;
    }
    let stale: Vec<(usize, String)> = allows
        .iter()
        .filter(|a| a.used == 0 && a.id != "unused-allow")
        .map(|a| (a.line, a.id.clone()))
        .collect();
    let mut report = |line: usize, id: &str| {
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line,
            lint: "unused-allow".to_string(),
            severity: scope.severity,
            message: format!("`lint: allow({id})` suppresses nothing; remove the stale exemption"),
        });
    };
    for (line, id) in stale {
        if !suppressed(allows, "unused-allow", line) {
            report(line, &id);
        }
    }
    for a in allows.iter().filter(|a| a.used == 0 && a.id == "unused-allow") {
        report(a.line, "unused-allow");
    }
}

/// Groups diagnostics per lint id (for summaries).
#[must_use]
pub fn count_by_lint(diagnostics: &[Diagnostic]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for d in diagnostics {
        *counts.entry(d.lint.clone()).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(toml: &str) -> Config {
        Config::parse(toml).unwrap()
    }

    #[test]
    fn allow_with_reason_suppresses_and_without_reason_reports() {
        let cfg = config("[lints.no-panic-serving]\npaths = [\"**\"]\n");
        let ok = "fn f() {\n    // lint: allow(no-panic-serving) checked non-empty above\n    let v = x.unwrap();\n}\n";
        let report = lint_source("src/a.rs", ok, &cfg);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);

        let bad = "fn f() {\n    let v = x.unwrap(); // lint: allow(no-panic-serving)\n}\n";
        let report = lint_source("src/a.rs", bad, &cfg);
        let lints: Vec<&str> = report.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["malformed-allow", "no-panic-serving"]);
        let never = "fn f() {\n    // lint: allow(malformed-allow) please\n    let v = 1;\n}\n";
        let report = lint_source("src/a.rs", never, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("cannot be allowed"));
    }

    #[test]
    fn allow_of_wrong_id_does_not_suppress() {
        let cfg = config("[lints.no-panic-serving]\npaths = [\"**\"]\n");
        let src =
            "fn f() {\n    // lint: allow(determinism) wrong id\n    let v = x.unwrap();\n}\n";
        let report = lint_source("src/a.rs", src, &cfg);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].lint, "no-panic-serving");
    }

    #[test]
    fn safety_comment_satisfies_unsafe_audit() {
        let cfg = config("[lints.unsafe-audit]\npaths = [\"**\"]\n");
        let good = "// SAFETY: bounds checked above.\nlet x = unsafe { *p };\n";
        assert!(lint_source("src/a.rs", good, &cfg).diagnostics.is_empty());
        let doc = "/// Reads a byte.\n///\n/// # Safety\n///\n/// `p` must be valid.\n#[inline]\npub unsafe fn read(p: *const u8) -> u8 { unsafe { *p } }\n";
        let report = lint_source("src/a.rs", doc, &cfg);
        // The decl is documented; the inner block on the same line sees
        // the same doc block.
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let bad = "let x = unsafe { *p };\n";
        assert_eq!(lint_source("src/a.rs", bad, &cfg).diagnostics.len(), 1);
    }

    #[test]
    fn unsafe_audit_applies_even_in_test_files() {
        let cfg = config("[lints.unsafe-audit]\npaths = [\"**\"]\n");
        let src = "unsafe impl Send for X {}\n";
        assert_eq!(lint_source("crates/x/tests/t.rs", src, &cfg).diagnostics.len(), 1);
    }

    #[test]
    fn determinism_skips_test_modules() {
        let cfg = config("[lints.determinism]\npaths = [\"**\"]\n");
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        let report = lint_source("crates/memsim/src/lib.rs", src, &cfg);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].line, 1);
    }

    #[test]
    fn unused_allow_is_flagged_and_used_allow_is_not() {
        let cfg = config(
            "[lints.no-panic-serving]\npaths = [\"**\"]\n\n[lints.unused-allow]\npaths = [\"**\"]\n",
        );
        let src = "fn f() {\n    // lint: allow(no-panic-serving) justified\n    let v = x.unwrap();\n    // lint: allow(determinism) nothing here matches\n    let x = 1;\n}\n";
        let report = lint_source("src/a.rs", src, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let d = &report.diagnostics[0];
        assert_eq!((d.line, d.lint.as_str()), (4, "unused-allow"));
        assert!(d.message.contains("allow(determinism)"));
    }
}
