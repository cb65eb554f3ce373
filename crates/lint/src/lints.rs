//! The lint passes.
//!
//! Two layers run over the workspace:
//!
//! 1. **Local lints** — the per-file structural checks (panic,
//!    unsafe-audit, determinism, condvar-loop), scoped by the manifest.
//! 2. **Flow lints** — interprocedural checks over the
//!    [`crate::index::WorkspaceIndex`] / [`crate::callgraph::CallGraph`]
//!    / [`crate::summaries::Summaries`] triple: transitive panic
//!    reachability with witness chains, lock-order
//!    cycle detection, and blocking-under-lock. A final pass flags
//!    `lint: allow` comments that suppressed nothing.
//!
//! Both layers share one [`AllowSet`] so the escape hatch works (and is
//! usage-counted) uniformly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::config::{glob_match, Config, LintScope, Severity, LINT_IDS, MALFORMED_ALLOW};
use crate::index::{FileModel, FnId, WorkspaceIndex};
use crate::source::{Finding, FindingKind, Stripped};
use crate::summaries::Summaries;
use crate::Report;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Lint id (one of [`LINT_IDS`] or `malformed-allow`).
    pub lint: String,
    pub severity: Severity,
    pub message: String,
    /// Call chain for interprocedural findings (`file:line \`fn\``
    /// entries from the anchoring function to the offending site);
    /// empty for local lints.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Result of linting one file (the single-file entry point's view).
#[derive(Debug, Default)]
pub struct FileReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a well-formed `lint: allow` comment.
    pub suppressed: usize,
}

/// A parsed, well-formed `lint: allow(<id>) <reason>` comment, with a
/// use counter so stale ones can be flagged by `unused-allow`.
#[derive(Debug)]
struct AllowEntry {
    file: String,
    line: usize,
    id: String,
    /// Standalone comment (no code on its line): also covers the line
    /// directly below.
    covers_next: bool,
    used: usize,
}

/// Every allow comment in the workspace, usage-counted.
#[derive(Debug, Default)]
struct AllowSet {
    entries: Vec<AllowEntry>,
}

impl AllowSet {
    /// True when an allow for `id` anchors `line` of `file`; counts the
    /// use.
    fn suppresses(&mut self, file: &str, id: &str, line: usize) -> bool {
        for e in &mut self.entries {
            if e.file == file
                && e.id == id
                && (e.line == line || (e.covers_next && e.line + 1 == line))
            {
                e.used += 1;
                return true;
            }
        }
        false
    }

    fn total_used(&self) -> usize {
        self.entries.iter().map(|e| e.used).sum()
    }
}

/// Lints one file's source text against the manifest (the flow lints run
/// over the single-file "workspace", so intra-file chains still work).
#[must_use]
pub fn lint_source(rel_path: &str, text: &str, config: &Config) -> FileReport {
    let report = lint_workspace(vec![FileModel::build(rel_path, text)], config);
    FileReport { diagnostics: report.diagnostics, suppressed: report.suppressed }
}

/// Lints a whole workspace of pre-built file models.
#[must_use]
pub(crate) fn lint_workspace(files: Vec<FileModel>, config: &Config) -> Report {
    let index = WorkspaceIndex::build(files);
    let graph = CallGraph::build(&index);
    let sums = Summaries::build(&index, &graph);

    let mut allows = AllowSet::default();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for file in &index.files {
        collect_allows(&file.rel_path, &file.stripped, &mut allows, &mut diags);
    }

    for file in &index.files {
        local_lints(file, config, &mut allows, &mut diags);
    }

    transitive_panic(&index, &graph, &sums, config, &mut allows, &mut diags);
    lock_order(&index, &graph, &sums, config, &mut allows, &mut diags);
    blocking_under_lock(&index, &graph, &sums, config, &mut allows, &mut diags);
    unused_allows(config, &mut allows, &mut diags);

    diags.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
    Report { diagnostics: diags, files_scanned: index.files.len(), suppressed: allows.total_used() }
}

// ---------------------------------------------------------------------------
// Local (single-file) lints
// ---------------------------------------------------------------------------

fn local_lints(
    file: &FileModel,
    config: &Config,
    allows: &mut AllowSet,
    out: &mut Vec<Diagnostic>,
) {
    for finding in &file.scan.findings {
        let Some((lint, scope)) = scope_for(finding, config, &file.rel_path) else {
            continue;
        };
        if !scope_accepts(scope, finding) {
            continue;
        }
        if let FindingKind::UnsafeSite { .. } = finding.kind {
            if has_safety_comment(&file.stripped, finding.line) {
                continue;
            }
        }
        if allows.suppresses(&file.rel_path, lint, finding.line) {
            continue;
        }
        out.push(Diagnostic {
            file: file.rel_path.clone(),
            line: finding.line,
            lint: lint.to_string(),
            severity: scope.severity,
            message: message_for(finding),
            chain: Vec::new(),
        });
    }
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
    debug_assert!(LINT_IDS.contains(&lint));
    let scope = config.lints.get(lint)?;
    scope.paths.iter().any(|p| glob_match(p, rel_path)).then_some((lint, scope))
}

/// True when a `functions = [...]` entry designates this function: a
/// bare entry matches by name, a `Type::method` entry only matches that
/// impl's method.
fn fn_entry_matches(entries: &[String], name: Option<&str>, qual: Option<&str>) -> bool {
    entries.iter().any(|e| Some(e.as_str()) == name || Some(e.as_str()) == qual)
}

/// Per-finding scope rules beyond path matching.
fn scope_accepts(scope: &LintScope, finding: &Finding) -> bool {
    match finding.kind {
        // Unsafe code needs a SAFETY argument even in tests; a bare wait
        // is a deadlock seed wherever it appears.
        FindingKind::UnsafeSite { .. } | FindingKind::BareWait { .. } => true,
        // Panic and determinism rules guard production code only — tests
        // may unwrap and time freely.
        _ if finding.in_test => false,
        _ if !scope.functions.is_empty() => {
            fn_entry_matches(&scope.functions, finding.func.as_deref(), finding.qual.as_deref())
        }
        _ => true,
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
pub(crate) fn is_test_file(rel_path: &str) -> bool {
    rel_path.split('/').any(|segment| matches!(segment, "tests" | "benches" | "examples"))
}

/// Finds every `lint: allow` comment; malformed ones become diagnostics
/// immediately (they must never silently fail to suppress).
fn collect_allows(
    rel_path: &str,
    stripped: &Stripped,
    allows: &mut AllowSet,
    out: &mut Vec<Diagnostic>,
) {
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
                chain: Vec::new(),
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
        if !LINT_IDS.contains(&id.as_str()) {
            bad(&format!("unknown lint id `{id}`"));
            continue;
        }
        if reason.is_empty() {
            bad("a justification is required after the `(<lint-id>)`");
            continue;
        }
        let covers_next =
            stripped.code_lines.get(comment.line - 1).is_none_or(|code| code.trim().is_empty());
        allows.entries.push(AllowEntry {
            file: rel_path.to_string(),
            line: comment.line,
            id,
            covers_next,
            used: 0,
        });
    }
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

// ---------------------------------------------------------------------------
// Flow lints
// ---------------------------------------------------------------------------

/// A function the given flow-lint scope applies to: non-test, in the
/// scope's paths, and (when a `functions` list exists) designated by it.
fn designated(index: &WorkspaceIndex, id: FnId, scope: &LintScope) -> bool {
    let (file, def) = index.lookup(id);
    if def.in_test || file.is_test_file {
        return false;
    }
    if !scope.paths.iter().any(|p| glob_match(p, &file.rel_path)) {
        return false;
    }
    scope.functions.is_empty()
        || fn_entry_matches(&scope.functions, Some(&def.name), Some(def.display_name()))
}

/// `transitive-panic`: BFS from every designated root's call sites to
/// functions *outside* the scope whose bodies can panic, reporting the
/// full witness chain. Traversal prunes at designated functions (their own
/// bodies are `no-panic-serving`'s job, and their calls are covered when
/// they root their own search), so every violation is reported exactly
/// once, at the nearest designated caller.
fn transitive_panic(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    sums: &Summaries,
    config: &Config,
    allows: &mut AllowSet,
    out: &mut Vec<Diagnostic>,
) {
    let (lint_id, direct_id) = ("transitive-panic", "no-panic-serving");
    let Some(scope) = config.lints.get(lint_id) else {
        return;
    };
    let mut seen: BTreeSet<(String, usize, String, usize)> = BTreeSet::new();
    for root in index.ids() {
        if !designated(index, root, scope) {
            continue;
        }
        let (root_file, root_def) = index.lookup(root);
        for call in graph.of(root) {
            // BFS with parent pointers for chain reconstruction.
            let mut parents: BTreeMap<FnId, FnId> = BTreeMap::new();
            let mut queue: VecDeque<FnId> = VecDeque::new();
            parents.insert(call.callee, root);
            queue.push_back(call.callee);
            while let Some(g) = queue.pop_front() {
                let (g_file, g_def) = index.lookup(g);
                if g_def.in_test || g_file.is_test_file || designated(index, g, scope) {
                    continue;
                }
                for site in &sums.facts[g].panics {
                    let key =
                        (root_file.rel_path.clone(), call.line, g_file.rel_path.clone(), site.line);
                    if !seen.insert(key) {
                        continue;
                    }
                    // The site is justified by an allow at the site itself
                    // (direct or transitive id) or at the root's call line.
                    if allows.suppresses(&g_file.rel_path, direct_id, site.line)
                        || allows.suppresses(&g_file.rel_path, lint_id, site.line)
                        || allows.suppresses(&root_file.rel_path, lint_id, call.line)
                    {
                        continue;
                    }
                    let mut chain_ids = vec![g];
                    let mut cur = g;
                    while let Some(&p) = parents.get(&cur) {
                        chain_ids.push(p);
                        if p == root {
                            break;
                        }
                        cur = p;
                    }
                    chain_ids.reverse();
                    let chain_names: Vec<&str> =
                        chain_ids.iter().map(|&id| index.lookup(id).1.display_name()).collect();
                    out.push(Diagnostic {
                        file: root_file.rel_path.clone(),
                        line: call.line,
                        lint: lint_id.to_string(),
                        severity: scope.severity,
                        message: format!(
                            "`{}` can panic at {}:{}, reached from serving fn `{}` (chain: {})",
                            site.what,
                            g_file.rel_path,
                            site.line,
                            root_def.display_name(),
                            chain_names.join(" -> "),
                        ),
                        chain: chain_ids.iter().map(|&id| index.describe(id)).collect(),
                    });
                }
                for next in graph.of(g) {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        parents.entry(next.callee)
                    {
                        e.insert(g);
                        queue.push_back(next.callee);
                    }
                }
            }
        }
    }
}

/// One `held -> acquired` edge of the lock-acquisition graph.
#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
    what: String,
}

/// `lock-order`: collect every ordered pair of lock labels — a direct
/// acquisition while another guard is held, or a call made under a
/// guard to a function that (transitively) acquires — and flag cycles.
fn lock_order(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    sums: &Summaries,
    config: &Config,
    allows: &mut AllowSet,
    out: &mut Vec<Diagnostic>,
) {
    let Some(scope) = config.lints.get("lock-order") else {
        return;
    };
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut edge_seen: BTreeSet<(String, String)> = BTreeSet::new();
    for f in index.ids() {
        if !designated(index, f, scope) {
            continue;
        }
        let (file, _) = index.lookup(f);
        for acq in &sums.facts[f].acquires {
            for held in &acq.held {
                if edge_seen.insert((held.clone(), acq.label.clone())) {
                    edges.push(LockEdge {
                        from: held.clone(),
                        to: acq.label.clone(),
                        file: file.rel_path.clone(),
                        line: acq.line,
                        what: format!("acquires `{}`", acq.label),
                    });
                }
            }
        }
        for call in graph.of(f) {
            let Some(held) = sums.facts[f].held_at_call.get(&call.tok) else {
                continue;
            };
            for to in &sums.acquires_all[call.callee] {
                for from in held {
                    if from == to {
                        // The direct re-entrant case is covered above;
                        // a call-edge self-loop is almost always the
                        // label of a *different* instance's lock.
                        continue;
                    }
                    if edge_seen.insert((from.clone(), to.clone())) {
                        edges.push(LockEdge {
                            from: from.clone(),
                            to: to.clone(),
                            file: file.rel_path.clone(),
                            line: call.line,
                            what: format!("call to `{}` acquires `{to}`", call.display),
                        });
                    }
                }
            }
        }
    }

    // Two-phase: detect cycles, drop edges whose witness line carries an
    // allow, re-detect. (Allows on acyclic edges stay unused so
    // `unused-allow` can flag them.)
    for _ in 0..2 {
        let cyclic = cyclic_edges(&edges);
        if cyclic.is_empty() {
            return;
        }
        let before = edges.len();
        edges.retain(|e| {
            let on_cycle = cyclic.iter().any(|c| c.from == e.from && c.to == e.to);
            !(on_cycle && allows.suppresses(&e.file, "lock-order", e.line))
        });
        if edges.len() == before {
            // Nothing suppressed: report each cycle component once.
            report_cycles(&cyclic, scope, out);
            return;
        }
    }
    let cyclic = cyclic_edges(&edges);
    if !cyclic.is_empty() {
        report_cycles(&cyclic, scope, out);
    }
}

/// Edges that participate in a cycle (their target reaches their source).
fn cyclic_edges(edges: &[LockEdge]) -> Vec<LockEdge> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if visited.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    edges.iter().filter(|e| reaches(&e.to, &e.from)).cloned().collect()
}

/// Groups cyclic edges into connected components and reports one
/// diagnostic per component, anchored at its first witness.
fn report_cycles(cyclic: &[LockEdge], scope: &LintScope, out: &mut Vec<Diagnostic>) {
    let mut remaining: Vec<&LockEdge> = cyclic.iter().collect();
    while let Some(seed) = remaining.first().copied() {
        let mut labels: BTreeSet<String> = BTreeSet::new();
        labels.insert(seed.from.clone());
        labels.insert(seed.to.clone());
        // Expand the component to fixpoint.
        loop {
            let before = labels.len();
            for e in &remaining {
                if labels.contains(&e.from) || labels.contains(&e.to) {
                    labels.insert(e.from.clone());
                    labels.insert(e.to.clone());
                }
            }
            if labels.len() == before {
                break;
            }
        }
        let (component, rest): (Vec<&LockEdge>, Vec<&LockEdge>) =
            remaining.into_iter().partition(|e| labels.contains(&e.from));
        remaining = rest;
        let mut component = component;
        component.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let anchor = component[0];
        let detail: Vec<String> = component
            .iter()
            .map(|e| format!("`{}` -> `{}` ({}:{}, {})", e.from, e.to, e.file, e.line, e.what))
            .collect();
        let label_list: Vec<String> = labels.iter().map(|l| format!("`{l}`")).collect();
        out.push(Diagnostic {
            file: anchor.file.clone(),
            line: anchor.line,
            lint: "lock-order".to_string(),
            severity: scope.severity,
            message: format!(
                "lock-order cycle between {}: {}",
                label_list.join(", "),
                detail.join("; "),
            ),
            chain: component
                .iter()
                .map(|e| format!("{}:{} `{}` -> `{}`", e.file, e.line, e.from, e.to))
                .collect(),
        });
    }
}

/// `blocking-under-lock`: a blocking operation — directly in the body,
/// or anywhere under a call made while a guard is held — stalls every
/// thread contending for that lock.
fn blocking_under_lock(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    sums: &Summaries,
    config: &Config,
    allows: &mut AllowSet,
    out: &mut Vec<Diagnostic>,
) {
    let Some(scope) = config.lints.get("blocking-under-lock") else {
        return;
    };
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for f in index.ids() {
        if !designated(index, f, scope) {
            continue;
        }
        let (file, _) = index.lookup(f);
        for b in &sums.facts[f].blocking {
            if b.held.is_empty() || !seen.insert((file.rel_path.clone(), b.line)) {
                continue;
            }
            if allows.suppresses(&file.rel_path, "blocking-under-lock", b.line) {
                continue;
            }
            out.push(Diagnostic {
                file: file.rel_path.clone(),
                line: b.line,
                lint: "blocking-under-lock".to_string(),
                severity: scope.severity,
                message: format!("`{}` while holding lock `{}`", b.what, b.held.join("`, `")),
                chain: Vec::new(),
            });
        }
        for call in graph.of(f) {
            let Some(held) = sums.facts[f].held_at_call.get(&call.tok) else {
                continue;
            };
            let Some(witness) = &sums.may_block[call.callee] else {
                continue;
            };
            if !seen.insert((file.rel_path.clone(), call.line)) {
                continue;
            }
            if allows.suppresses(&file.rel_path, "blocking-under-lock", call.line) {
                continue;
            }
            out.push(Diagnostic {
                file: file.rel_path.clone(),
                line: call.line,
                lint: "blocking-under-lock".to_string(),
                severity: scope.severity,
                message: format!(
                    "call to `{}` may block ({witness}) while holding lock `{}`",
                    call.display,
                    held.join("`, `")
                ),
                chain: vec![index.describe(call.callee)],
            });
        }
    }
}

/// `unused-allow`: an allow that suppressed nothing is a stale exemption.
fn unused_allows(config: &Config, allows: &mut AllowSet, out: &mut Vec<Diagnostic>) {
    let Some(scope) = config.lints.get("unused-allow") else {
        return;
    };
    let scope = scope.clone();
    // First pass: stale allows of other ids (suppressible by an
    // adjacent allow(unused-allow)); second pass: stale
    // allow(unused-allow) comments themselves (not further suppressible).
    let mut stale: Vec<(String, usize, String)> = Vec::new();
    for e in &allows.entries {
        if e.used == 0
            && e.id != "unused-allow"
            && scope.paths.iter().any(|p| glob_match(p, &e.file))
        {
            stale.push((e.file.clone(), e.line, e.id.clone()));
        }
    }
    for (file, line, id) in stale {
        if allows.suppresses(&file, "unused-allow", line) {
            continue;
        }
        out.push(Diagnostic {
            file,
            line,
            lint: "unused-allow".to_string(),
            severity: scope.severity,
            message: format!("`lint: allow({id})` suppresses nothing; remove the stale exemption"),
            chain: Vec::new(),
        });
    }
    let stale_unused: Vec<(String, usize)> = allows
        .entries
        .iter()
        .filter(|e| {
            e.used == 0
                && e.id == "unused-allow"
                && scope.paths.iter().any(|p| glob_match(p, &e.file))
        })
        .map(|e| (e.file.clone(), e.line))
        .collect();
    for (file, line) in stale_unused {
        out.push(Diagnostic {
            file,
            line,
            lint: "unused-allow".to_string(),
            severity: scope.severity,
            message: "`lint: allow(unused-allow)` suppresses nothing; remove the stale exemption"
                .to_string(),
            chain: Vec::new(),
        });
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
    fn functions_scope_a_lint_to_the_listed_functions() {
        let cfg =
            config("[lints.no-panic-serving]\npaths = [\"src/a.rs\"]\nfunctions = [\"serve\"]\n");
        let src = "fn serve() { x.unwrap(); }\nfn setup() { x.unwrap(); }\n";
        let report = lint_source("src/a.rs", src, &cfg);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].line, 1);
    }

    #[test]
    fn qualified_function_entry_designates_only_that_impl() {
        let cfg = config(
            "[lints.no-panic-serving]\npaths = [\"src/a.rs\"]\nfunctions = [\"Cache::insert\"]\n",
        );
        let src = "impl Cache {\n    fn insert(&self) { x.unwrap(); }\n}\nimpl Buffer {\n    fn insert(&self) { x.unwrap(); }\n}\nfn insert() { x.unwrap(); }\n";
        let report = lint_source("src/a.rs", src, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 2);
        assert_eq!(report.diagnostics[0].lint, "no-panic-serving");
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
    fn transitive_panic_reports_the_call_chain() {
        let cfg = config(
            "[lints.no-panic-serving]\npaths = [\"src/serve.rs\"]\nfunctions = [\"serve\"]\n\n[lints.transitive-panic]\ninherit = \"no-panic-serving\"\n",
        );
        let files = vec![
            FileModel::build("src/serve.rs", "fn serve() {\n    helper();\n}\n"),
            FileModel::build(
                "src/helper.rs",
                "pub fn helper() { deeper(); }\nfn deeper() { x.unwrap(); }\n",
            ),
        ];
        let report = lint_workspace(files, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        let d = &report.diagnostics[0];
        assert_eq!(
            (d.file.as_str(), d.line, d.lint.as_str()),
            ("src/serve.rs", 2, "transitive-panic")
        );
        assert!(d.message.contains("serve -> helper -> deeper"), "{}", d.message);
        assert_eq!(d.chain.len(), 3);
    }

    #[test]
    fn transitive_panic_prunes_at_in_scope_callees() {
        let cfg = config(
            "[lints.no-panic-serving]\npaths = [\"src/serve/**\"]\n\n[lints.transitive-panic]\ninherit = \"no-panic-serving\"\n",
        );
        // `entry` calls `inner` (also in scope: direct lint's job) and
        // `outside` (out of scope: transitive finding).
        let files = vec![
            FileModel::build(
                "src/serve/a.rs",
                "fn entry() { inner(); outside(); }\nfn inner() { x.unwrap(); }\n",
            ),
            FileModel::build("src/util.rs", "pub fn outside() { y.unwrap(); }\n"),
        ];
        let report = lint_workspace(files, &cfg);
        let lints: Vec<(&str, usize, &str)> =
            report.diagnostics.iter().map(|d| (d.file.as_str(), d.line, d.lint.as_str())).collect();
        assert_eq!(
            lints,
            vec![
                ("src/serve/a.rs", 1, "transitive-panic"),
                ("src/serve/a.rs", 2, "no-panic-serving"),
            ],
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn lock_order_cycle_is_reported_and_ordered_nesting_is_not() {
        let cfg = config("[lints.lock-order]\npaths = [\"**\"]\n");
        let cycle = vec![FileModel::build(
            "src/a.rs",
            "fn ab(&self) {\n    let a = lock_or_recover(&self.alpha);\n    let b = lock_or_recover(&self.beta);\n}\nfn ba(&self) {\n    let b = lock_or_recover(&self.beta);\n    let a = lock_or_recover(&self.alpha);\n}\n",
        )];
        let report = lint_workspace(cycle, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("lock-order cycle"));

        let ordered = vec![FileModel::build(
            "src/a.rs",
            "fn ab(&self) {\n    let a = lock_or_recover(&self.alpha);\n    let b = lock_or_recover(&self.beta);\n}\nfn ab2(&self) {\n    let a = lock_or_recover(&self.alpha);\n    let b = lock_or_recover(&self.beta);\n}\n",
        )];
        assert!(lint_workspace(ordered, &cfg).diagnostics.is_empty());
    }

    #[test]
    fn lock_order_sees_through_calls() {
        let cfg = config("[lints.lock-order]\npaths = [\"**\"]\n");
        let files = vec![FileModel::build(
            "src/a.rs",
            "impl T {\nfn ab(&self) {\n    let a = lock_or_recover(&self.alpha);\n    self.take_beta();\n}\nfn take_beta(&self) {\n    let b = lock_or_recover(&self.beta);\n    let a = lock_or_recover(&self.alpha);\n}\n}\n",
        )];
        // ab: alpha -> beta (via call); take_beta: beta -> alpha. Cycle.
        let report = lint_workspace(files, &cfg);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].lint, "lock-order");
    }

    #[test]
    fn blocking_under_lock_direct_and_through_calls() {
        let cfg = config("[lints.blocking-under-lock]\npaths = [\"**\"]\n");
        let files = vec![
            FileModel::build(
                "src/a.rs",
                "fn f(&self) {\n    let g = lock_or_recover(&self.state);\n    self.queue.push_blocking(1);\n}\nfn h(&self) {\n    let g = lock_or_recover(&self.state);\n    helper();\n}\n",
            ),
            FileModel::build("src/b.rs", "pub fn helper() { std::thread::sleep(d); }\n"),
        ];
        let report = lint_workspace(files, &cfg);
        let lines: Vec<usize> = report.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 7], "{:?}", report.diagnostics);
        assert!(report.diagnostics[1].message.contains("may block"));
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
