//! Per-function summaries and their propagation over the call graph.
//!
//! In the spirit of compositional lock-set analyzers (RacerD-style),
//! each function gets a *summary* of the facts the interprocedural lints
//! need — can it panic, which locks does it acquire, can it block —
//! computed from its own body, then propagated over the call graph to a
//! fixpoint so a caller inherits its callees' behavior without
//! whole-program execution.
//!
//! Lock identity is lexical: an acquisition's *label* is the last field
//! or variable segment of the receiver expression
//! (`self.stats.hist` → `hist`, `self.slots[i]` → `slots`). Two
//! distinct mutexes behind one field name merge (conservative: may
//! report a spurious cycle, never hides one between distinctly named
//! locks); one mutex reached through differently named bindings splits
//! (a documented miss). Guards are held from acquisition to an explicit
//! `drop(binding)`, the end of the binding's block, or — for guard
//! temporaries that are immediately chained (`lock().len()`) — the end
//! of the statement.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::index::{FnId, WorkspaceIndex};
use crate::source::{FindingKind, Tok, Token};

/// A direct panic site inside one function.
#[derive(Debug, Clone)]
pub struct Site {
    pub what: String,
    pub line: usize,
}

/// One direct lock acquisition, with the labels already held at it.
#[derive(Debug, Clone)]
pub struct LockAcquire {
    pub label: String,
    pub line: usize,
    pub held: Vec<String>,
}

/// One direct potentially-blocking operation, with the *foreign* locks
/// held at it (a condvar wait's own guard is excluded).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub what: String,
    pub line: usize,
    pub held: Vec<String>,
}

/// Everything extracted from one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub panics: Vec<Site>,
    pub acquires: Vec<LockAcquire>,
    pub blocking: Vec<BlockingSite>,
    /// Lock labels held at each call site, keyed by the callee-name
    /// token index ([`crate::callgraph::CallSite::tok`]).
    pub held_at_call: BTreeMap<usize, Vec<String>>,
    /// `Some(label)` when the function returns a `MutexGuard` over the
    /// lock it acquires (a lock helper like `QueryQueue::lock`).
    pub returns_guard: Option<String>,
}

/// Summaries for every function plus the propagated fixpoint facts.
#[derive(Debug)]
pub struct Summaries {
    pub facts: Vec<FnFacts>,
    /// `Some(witness)` when the function may block (directly or via a
    /// callee); the witness describes the nearest direct blocking site.
    pub may_block: Vec<Option<String>>,
    /// All lock labels a function may acquire, directly or transitively.
    pub acquires_all: Vec<BTreeSet<String>>,
}

impl Summaries {
    /// Builds per-function facts and runs the fixpoint propagation.
    #[must_use]
    pub fn build(index: &WorkspaceIndex, graph: &CallGraph) -> Summaries {
        // Pass A: body-local facts, which also yields `returns_guard`
        // for the lock-helper pattern.
        let mut facts: Vec<FnFacts> = index
            .ids()
            .map(|id| {
                if is_lock_helper(index, id) {
                    // The poison-recovery helpers are modeled at their
                    // call sites, not as ordinary functions.
                    FnFacts::default()
                } else {
                    extract(index, graph, id, &BTreeMap::new())
                }
            })
            .collect();
        // Pass B: re-extract with helper knowledge, so a call to a
        // guard-returning helper counts as acquiring its lock.
        let helpers: BTreeMap<FnId, String> = facts
            .iter()
            .enumerate()
            .filter_map(|(id, f)| f.returns_guard.clone().map(|label| (id, label)))
            .collect();
        if !helpers.is_empty() {
            for id in index.ids() {
                if !is_lock_helper(index, id) {
                    facts[id] = extract(index, graph, id, &helpers);
                }
            }
        }
        let may_block = propagate_blocking(index, graph, &facts);
        let acquires_all = propagate_acquires(index, graph, &facts);
        Summaries { facts, may_block, acquires_all }
    }
}

/// The poison-tolerant helpers in `core::sync` (and the generic
/// `recover`) are acquisition *primitives*: their bodies would read as
/// "locks `mutex`" which is meaningless out of context.
fn is_lock_helper(index: &WorkspaceIndex, id: FnId) -> bool {
    let (_, def) = index.lookup(id);
    matches!(def.name.as_str(), "lock_or_recover" | "recover")
}

/// Direct panic facts come from the structural scan's findings,
/// mapped onto the function whose body contains them.
fn seed_sites(index: &WorkspaceIndex, id: FnId, facts: &mut FnFacts) {
    let (file, def) = index.lookup(id);
    if def.in_test {
        return;
    }
    let start_line = file.tokens.get(def.body.0).map_or(def.line, |t| t.line);
    let end_line = file.tokens.get(def.body.1).map_or(usize::MAX, |t| t.line);
    for finding in &file.scan.findings {
        if finding.func.as_deref() != Some(def.name.as_str()) || finding.qual != def.qual {
            continue;
        }
        if finding.line < start_line.min(def.line) || finding.line > end_line {
            continue;
        }
        if let FindingKind::PanicCall { what } = &finding.kind {
            facts.panics.push(Site { what: (*what).to_string(), line: finding.line });
        }
    }
}

/// A lock currently held during the body walk.
#[derive(Debug)]
struct Held {
    label: String,
    /// Brace depth (relative to the body) at acquisition; released when
    /// the enclosing block closes.
    depth: usize,
    /// `let` binding holding the guard, when one exists.
    binding: Option<String>,
    /// Guard was a temporary (chained or `drop(..)`-wrapped); released
    /// at the end of the statement.
    temp: bool,
}

struct Walker<'a> {
    tokens: &'a [Token],
    held: Vec<Held>,
    depth: usize,
    paren_depth: i32,
    /// Token indices since the last statement boundary.
    stmt: Vec<usize>,
    facts: FnFacts,
}

impl<'a> Walker<'a> {
    fn word(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Word(w)) => Some(w.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    fn held_labels(&self) -> Vec<String> {
        self.held.iter().map(|h| h.label.clone()).collect()
    }

    /// Index just past the matching `)` for the `(` at `open`.
    fn close_paren(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.tokens.len() {
            match self.tokens[i].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.tokens.len() - 1
    }

    /// Label of the receiver chain ending just before token `end`
    /// (exclusive): the nearest field/variable segment, skipping one
    /// index/call group (`slots[i]` → `slots`, `expected_ring()` →
    /// `expected_ring`).
    fn receiver_label(&self, end: usize) -> Option<String> {
        let mut i = end;
        loop {
            if i == 0 {
                return None;
            }
            i -= 1;
            match &self.tokens[i].tok {
                Tok::Punct(']') | Tok::Punct(')') => {
                    // Skip the bracketed group.
                    let (open, close) = match self.tokens[i].tok {
                        Tok::Punct(']') => ('[', ']'),
                        _ => ('(', ')'),
                    };
                    let mut depth = 1i32;
                    while i > 0 && depth > 0 {
                        i -= 1;
                        match &self.tokens[i].tok {
                            Tok::Punct(c) if *c == close => depth += 1,
                            Tok::Punct(c) if *c == open => depth -= 1,
                            _ => {}
                        }
                    }
                }
                Tok::Word(w) => {
                    if w == "self" {
                        return None;
                    }
                    return Some(w.clone());
                }
                Tok::Punct('.') | Tok::Punct(':') => {}
                _ => return None,
            }
        }
    }

    /// Label of the mutex expression inside `lock_or_recover( … )`:
    /// the last identifier in the argument span that is not `self`.
    fn arg_label(&self, open: usize, close: usize) -> Option<String> {
        let mut label = None;
        for tok in &self.tokens[open + 1..close] {
            if let Tok::Word(w) = &tok.tok {
                if w != "self" && w != "mut" {
                    label = Some(w.clone());
                }
            }
        }
        label
    }

    /// Classifies how the guard produced by the acquisition whose call
    /// closes at `close` is held, and returns (binding, temp).
    fn guard_binding(&self, mut close: usize) -> (Option<String>, bool) {
        // Skip poison adapters chained directly on the lock result.
        loop {
            if self.punct(close + 1) == Some('.')
                && matches!(
                    self.word(close + 2),
                    Some("unwrap" | "expect" | "unwrap_or_else" | "map_err")
                )
                && self.punct(close + 3) == Some('(')
            {
                close = self.close_paren(close + 3);
                continue;
            }
            break;
        }
        if self.punct(close + 1) == Some('.') || self.punct(close + 1) == Some('?') {
            // Further chained — the guard is a statement temporary.
            return (None, true);
        }
        // `drop( lock() )` wrapper: temporary by construction.
        let stmt_words: Vec<&str> = self.stmt.iter().filter_map(|&idx| self.word(idx)).collect();
        if stmt_words.first() == Some(&"drop") {
            return (None, true);
        }
        // `let [mut] name = <acquisition>;` binds the guard.
        if stmt_words.first() == Some(&"let") {
            let name = stmt_words
                .iter()
                .skip(1)
                .find(|w| !matches!(**w, "mut" | "ref"))
                .map(|w| (*w).to_string());
            if name.is_some() {
                return (name, false);
            }
        }
        (None, true)
    }

    fn acquire(&mut self, label: String, line: usize, close: usize) {
        let (binding, temp) = self.guard_binding(close);
        self.facts.acquires.push(LockAcquire {
            label: label.clone(),
            line,
            held: self.held_labels(),
        });
        self.held.push(Held { label, depth: self.depth, binding, temp });
    }

    fn release_temps(&mut self) {
        self.held.retain(|h| !h.temp);
    }

    fn release_block(&mut self) {
        let depth = self.depth;
        self.held.retain(|h| h.depth < depth);
    }

    fn release_binding(&mut self, name: &str) {
        self.held.retain(|h| h.binding.as_deref() != Some(name));
    }
}

#[allow(clippy::too_many_lines)]
fn extract(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    id: FnId,
    helpers: &BTreeMap<FnId, String>,
) -> FnFacts {
    let (file, def) = index.lookup(id);
    let mut facts = FnFacts::default();
    seed_sites(index, id, &mut facts);

    // Guard-returning helper detection: signature mentions MutexGuard.
    let sig_has_guard = def.sig.iter().any(|w| w == "MutexGuard");

    // Call sites of this fn, keyed by token index, with helper labels.
    let helper_calls: BTreeMap<usize, String> = graph
        .of(id)
        .iter()
        .filter_map(|c| helpers.get(&c.callee).map(|label| (c.tok, label.clone())))
        .collect();
    let call_toks: BTreeSet<usize> = graph.of(id).iter().map(|c| c.tok).collect();

    let nested: Vec<(usize, usize)> = file
        .scan
        .functions
        .iter()
        .filter(|f| f.body.0 > def.body.0 && f.body.1 <= def.body.1)
        .map(|f| f.body)
        .collect();

    let mut w = Walker {
        tokens: &file.tokens,
        held: Vec::new(),
        depth: 0,
        paren_depth: 0,
        stmt: Vec::new(),
        facts,
    };

    let mut i = def.body.0;
    let end = def.body.1.min(w.tokens.len());
    while i < end {
        if let Some(&(_, nested_end)) = nested.iter().find(|&&(s, e)| i >= s && i < e) {
            i = nested_end;
            continue;
        }
        let line = w.tokens[i].line;
        match &w.tokens[i].tok {
            Tok::Punct('{') => {
                // Entering a block drops `if`/`while` condition
                // temporaries (`if !m.lock().ready() { .. }` runs the
                // body unlocked). Over-releases a `match` on a guard
                // temporary — accepted imprecision, see DESIGN.md.
                w.release_temps();
                w.depth += 1;
                w.stmt.clear();
            }
            Tok::Punct('}') => {
                w.release_block();
                w.depth = w.depth.saturating_sub(1);
                w.stmt.clear();
            }
            Tok::Punct(';') if w.paren_depth == 0 => {
                w.release_temps();
                w.stmt.clear();
            }
            Tok::Punct('(') => {
                w.paren_depth += 1;
                w.stmt.push(i);
            }
            Tok::Punct(')') => {
                w.paren_depth -= 1;
                w.stmt.push(i);
            }
            Tok::Word(word) => {
                let prev_dot = i >= 1 && w.punct(i - 1) == Some('.');
                let next_paren = w.punct(i + 1) == Some('(');
                match word.as_str() {
                    // --- lock acquisitions ---
                    "lock_or_recover" if next_paren => {
                        let close = w.close_paren(i + 1);
                        if let Some(label) = w.arg_label(i + 1, close) {
                            w.acquire(label, line, close);
                        }
                    }
                    "lock" if prev_dot && next_paren && w.punct(i + 2) == Some(')') => {
                        if let Some(label) = w.receiver_label(i - 1) {
                            w.acquire(label, line, i + 2);
                        }
                    }
                    "drop" if next_paren => {
                        if let Some(binding) = w.word(i + 2) {
                            if w.punct(i + 3) == Some(')') {
                                let binding = binding.to_string();
                                w.release_binding(&binding);
                            }
                        }
                    }
                    // --- blocking operations ---
                    "wait" | "wait_timeout"
                        if prev_dot && next_paren && w.punct(i + 2) != Some(')') =>
                    {
                        let guard = w.word(i + 2).map(str::to_string);
                        let foreign: Vec<String> = w
                            .held
                            .iter()
                            .filter(|h| {
                                guard.as_deref().is_none_or(|g| h.binding.as_deref() != Some(g))
                            })
                            .map(|h| h.label.clone())
                            .collect();
                        // An unidentifiable guard with exactly one held
                        // lock is assumed to be that lock's guard.
                        let foreign =
                            if guard.is_none() && w.held.len() == 1 { Vec::new() } else { foreign };
                        w.facts.blocking.push(BlockingSite {
                            what: format!("Condvar::{word}"),
                            line,
                            held: foreign,
                        });
                    }
                    "push_blocking" | "pop_blocking" if next_paren => {
                        w.facts.blocking.push(BlockingSite {
                            what: word.clone(),
                            line,
                            held: w.held_labels(),
                        });
                    }
                    "park" | "park_timeout" | "sleep" if next_paren && !prev_dot => {
                        w.facts.blocking.push(BlockingSite {
                            what: format!("thread::{word}"),
                            line,
                            held: w.held_labels(),
                        });
                    }
                    "join" if prev_dot && next_paren && w.punct(i + 2) == Some(')') => {
                        w.facts.blocking.push(BlockingSite {
                            what: "JoinHandle::join".to_string(),
                            line,
                            held: w.held_labels(),
                        });
                    }
                    _ => {}
                }
                // Helper calls acquire the helper's lock at this site.
                if let Some(label) = helper_calls.get(&i) {
                    let close = if next_paren { w.close_paren(i + 1) } else { i };
                    w.acquire(label.clone(), line, close);
                }
                // Record held locks at every resolved call site.
                if call_toks.contains(&i) {
                    let labels = w.held_labels();
                    if !labels.is_empty() {
                        w.facts.held_at_call.insert(i, labels);
                    }
                }
                w.stmt.push(i);
            }
            Tok::Punct(_) => {
                w.stmt.push(i);
            }
        }
        i += 1;
    }

    let mut facts = w.facts;
    if sig_has_guard && !def.in_test {
        facts.returns_guard = facts.acquires.first().map(|a| a.label.clone());
    }
    facts
}

/// Fixpoint: a function may block when it has a direct blocking site or
/// any callee may block. The witness is the nearest direct site.
fn propagate_blocking(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    facts: &[FnFacts],
) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = facts
        .iter()
        .enumerate()
        .map(|(id, f)| {
            f.blocking.first().map(|b| {
                let (file, _) = index.lookup(id);
                format!("`{}` at {}:{}", b.what, file.rel_path, b.line)
            })
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in index.ids() {
            if out[id].is_some() {
                continue;
            }
            for call in graph.of(id) {
                if let Some(witness) = &out[call.callee] {
                    out[id] = Some(format!("via `{}`: {}", call.display, witness));
                    changed = true;
                    break;
                }
            }
        }
    }
    out
}

/// Fixpoint: all lock labels a function may acquire, directly or via
/// callees.
fn propagate_acquires(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    facts: &[FnFacts],
) -> Vec<BTreeSet<String>> {
    let mut out: Vec<BTreeSet<String>> =
        facts.iter().map(|f| f.acquires.iter().map(|a| a.label.clone()).collect()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for id in index.ids() {
            let mut additions: Vec<String> = Vec::new();
            for call in graph.of(id) {
                for label in &out[call.callee] {
                    if !out[id].contains(label) {
                        additions.push(label.clone());
                    }
                }
            }
            if !additions.is_empty() {
                out[id].extend(additions);
                changed = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileModel;

    fn summaries(sources: &[(&str, &str)]) -> (WorkspaceIndex, CallGraph, Summaries) {
        let files = sources.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let index = WorkspaceIndex::build(files);
        let graph = CallGraph::build(&index);
        let sums = Summaries::build(&index, &graph);
        (index, graph, sums)
    }

    fn facts_of<'s>(
        index: &WorkspaceIndex,
        sums: &'s Summaries,
        name: &str,
    ) -> (&'s FnFacts, FnId) {
        let id = index.by_name(name)[0];
        (&sums.facts[id], id)
    }

    #[test]
    fn nested_lock_records_held_set() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g1 = a.lock();\n    let g2 = b.lock();\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert_eq!(facts.acquires.len(), 2);
        assert!(facts.acquires[0].held.is_empty());
        assert_eq!(facts.acquires[1].held, vec!["a"]);
    }

    #[test]
    fn drop_releases_the_guard_before_the_next_acquisition() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g1 = a.lock();\n    drop(g1);\n    let g2 = b.lock();\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert!(facts.acquires[1].held.is_empty(), "{:?}", facts.acquires[1]);
    }

    #[test]
    fn chained_guard_is_a_statement_temporary() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(a: &Mutex<Vec<u8>>, b: &Mutex<u8>) {\n    let n = a.lock().unwrap().len();\n    let g = b.lock();\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert!(
            facts.acquires[1].held.is_empty(),
            "temporary released at `;`: {:?}",
            facts.acquires[1]
        );
    }

    #[test]
    fn block_scope_releases_guards() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n    { let g1 = lock_or_recover(a); }\n    let g2 = lock_or_recover(b);\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert!(facts.acquires[1].held.is_empty());
    }

    #[test]
    fn wait_on_own_guard_is_not_foreign_blocking() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(&self) {\n    let mut state = lock_or_recover(&self.state);\n    while state.empty {\n        state = recover(self.cv.wait(state));\n    }\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert_eq!(facts.blocking.len(), 1);
        assert!(facts.blocking[0].held.is_empty(), "{:?}", facts.blocking[0]);
    }

    #[test]
    fn wait_under_a_second_lock_is_foreign_blocking() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "fn f(&self) {\n    let outer = lock_or_recover(&self.outer);\n    let g = lock_or_recover(&self.inner);\n    let g = recover(self.cv.wait(g));\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "f");
        assert_eq!(facts.blocking[0].held, vec!["outer"]);
    }

    #[test]
    fn guard_returning_helper_propagates_to_callers() {
        let (index, _, sums) = summaries(&[(
            "src/a.rs",
            "impl Q {\n    fn lock(&self) -> MutexGuard<'_, u8> { lock_or_recover(&self.state) }\n    fn push(&self) {\n        let mut state = self.lock();\n        let g = lock_or_recover(&self.other);\n    }\n}\n",
        )]);
        let (facts, _) = facts_of(&index, &sums, "push");
        assert_eq!(facts.acquires.len(), 2, "{:?}", facts.acquires);
        assert_eq!(facts.acquires[0].label, "state");
        assert_eq!(facts.acquires[1].held, vec!["state"]);
    }

    #[test]
    fn blocking_and_acquires_propagate_over_calls() {
        let (index, _, sums) = summaries(&[
            ("src/a.rs", "fn top(&self) { mid(); }\nfn mid() { leaf(); }\n"),
            (
                "src/b.rs",
                "fn leaf() {\n    let g = lock_or_recover(&STATS);\n    std::thread::sleep(d);\n}\n",
            ),
        ]);
        let (_, top) = facts_of(&index, &sums, "top");
        assert!(sums.may_block[top].is_some());
        assert!(sums.acquires_all[top].contains("STATS"));
    }
}
