//! `lint.toml` manifest: which lint applies where.
//!
//! The workspace has no TOML dependency, so this module parses the small
//! subset the manifest needs: `[lints.<id>]` sections, string keys, and
//! (possibly multi-line) string arrays. Path scopes are `/`-separated
//! globs where `*` matches within one path segment and `**` matches any
//! number of segments.

use std::collections::BTreeMap;
use std::fmt;

/// Every lint id the tool reports, in reporting order. All are
/// single-file token scans; the last, [`MALFORMED_ALLOW`], is always
/// active and can be neither configured nor allowed.
pub const LINT_IDS: [&str; 6] = [
    "no-panic-serving",
    "unsafe-audit",
    "determinism",
    "condvar-loop",
    "unused-allow",
    MALFORMED_ALLOW,
];

/// Diagnostic id for a broken `lint: allow` comment (always active).
pub const MALFORMED_ALLOW: &str = "malformed-allow";

/// True for the ids a manifest section or a `lint: allow` may name.
#[must_use]
pub(crate) fn is_configurable(id: &str) -> bool {
    id != MALFORMED_ALLOW && LINT_IDS.contains(&id)
}

/// How a lint's diagnostics are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// Fails the run (and CI).
    #[default]
    Deny,
    /// Reported but only fails under `--deny-all`.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// Where one lint applies.
#[derive(Debug, Clone, Default)]
pub struct LintScope {
    /// Path globs (workspace-relative) the lint scans.
    pub paths: Vec<String>,
    pub severity: Severity,
}

/// Parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Workspace-relative path prefixes/globs to skip entirely.
    pub exclude: Vec<String>,
    /// Scope per configured lint id; unconfigured lints never fire.
    pub lints: BTreeMap<String, LintScope>,
}

/// A manifest parse error with its line number.
#[derive(Debug, Clone)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the manifest text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for syntax errors, unknown lint ids, or
    /// unknown keys (typos in the manifest must fail loudly).
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section: Vec<String> = Vec::new();
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0usize;
        while i < lines.len() {
            let lineno = i + 1;
            let line = strip_toml_comment(lines[i]).trim().to_string();
            i += 1;
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated section header"))?;
                section = header.split('.').map(|s| s.trim().to_string()).collect();
                if section.len() == 2 && section[0] == "lints" {
                    let id = section[1].clone();
                    if !is_configurable(&id) {
                        return Err(err(lineno, &format!("unknown lint id `{id}`")));
                    }
                    config.lints.entry(id).or_default();
                } else {
                    return Err(err(lineno, &format!("unknown section `[{}]`", section.join("."))));
                }
                continue;
            }
            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            // Multi-line arrays: keep consuming until brackets balance.
            while value.starts_with('[') && !balanced(&value) {
                if i >= lines.len() {
                    return Err(err(lineno, "unterminated array"));
                }
                value.push(' ');
                value.push_str(strip_toml_comment(lines[i]).trim());
                i += 1;
            }
            apply_key(&mut config, &section, &key, &value, lineno)?;
        }
        Ok(config)
    }
}

fn err(line: usize, message: &str) -> ConfigError {
    ConfigError { line, message: message.to_string() }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| err(line, &format!("expected a quoted string, got `{v}`")))
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| err(line, "expected an array"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(part, line)?);
    }
    Ok(out)
}

fn apply_key(
    config: &mut Config,
    section: &[String],
    key: &str,
    value: &str,
    line: usize,
) -> Result<(), ConfigError> {
    if section.is_empty() {
        return match key {
            "exclude" => {
                config.exclude = parse_string_array(value, line)?;
                Ok(())
            }
            _ => Err(err(line, &format!("unknown top-level key `{key}`"))),
        };
    }
    let id = &section[1];
    let scope = config.lints.get_mut(id).expect("section header inserted the entry");
    match key {
        "paths" => scope.paths = parse_string_array(value, line)?,
        "severity" => {
            scope.severity = match parse_string(value, line)?.as_str() {
                "deny" => Severity::Deny,
                "warn" => Severity::Warn,
                other => {
                    return Err(err(line, &format!("severity must be deny|warn, got `{other}`")))
                }
            };
        }
        _ => return Err(err(line, &format!("unknown key `{key}` in [lints.{id}]"))),
    }
    Ok(())
}

/// Matches a `/`-separated glob against a relative path. `**` spans any
/// number of segments; `*` matches within a segment.
#[must_use]
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => (0..=segs.len()).any(|skip| match_segments(&pat[1..], &segs[skip..])),
        Some(p) => {
            !segs.is_empty() && segment_match(p, segs[0]) && match_segments(&pat[1..], &segs[1..])
        }
    }
}

fn segment_match(pattern: &str, segment: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = segment.chars().collect();
    wildcard(&p, &s)
}

fn wildcard(p: &[char], s: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('*') => (0..=s.len()).any(|skip| wildcard(&p[1..], &s[skip..])),
        Some(&c) => !s.is_empty() && s[0] == c && wildcard(&p[1..], &s[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_manifest_with_arrays_and_comments() {
        let cfg = Config::parse(
            r#"
# workspace manifest
exclude = ["target", "crates/lint/tests/fixtures"]

[lints.no-panic-serving]
paths = [
  "crates/core/src/runtime/*.rs", # the serving runtime
  "crates/core/src/sync.rs",
]

[lints.determinism]
paths = ["crates/memsim/**"]
severity = "deny"
"#,
        )
        .unwrap();
        assert_eq!(cfg.exclude.len(), 2);
        let serving = &cfg.lints["no-panic-serving"];
        assert_eq!(serving.paths.len(), 2);
        assert_eq!(cfg.lints["determinism"].severity, Severity::Deny);
    }

    #[test]
    fn unknown_lint_id_is_rejected() {
        assert!(Config::parse("[lints.no-such-lint]\npaths = []\n").is_err());
        assert!(Config::parse("[lints.malformed-allow]\npaths = []\n").is_err());
        assert!(Config::parse("[wrong]\n").is_err());
        assert!(Config::parse("mystery = \"x\"\n").is_err());
        let removed = "[lints.no-panic-serving]\nfunctions = [\"serve\"]\n";
        assert!(Config::parse(removed).is_err(), "`functions` is not a key any more");
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("crates/memsim/**", "crates/memsim/src/stats.rs"));
        assert!(glob_match("**", "anything/at/all.rs"));
        assert!(glob_match("crates/core/src/runtime/*.rs", "crates/core/src/runtime/queue.rs"));
        assert!(!glob_match("crates/core/src/runtime/*.rs", "crates/core/src/runtime/sub/x.rs"));
        assert!(glob_match("crates/core/src/pool.rs", "crates/core/src/pool.rs"));
        assert!(!glob_match("crates/core/src/pool.rs", "crates/core/src/pool.rs.bak"));
        assert!(glob_match("**/fixtures/**", "crates/lint/tests/fixtures/a/b.rs"));
    }
}
