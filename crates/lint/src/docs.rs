//! The one table describing every lint: invariant, rationale, and the
//! allow-comment grammar. `--explain <id>` prints from here, and the
//! README's lint table is generated from the same entries
//! ([`render_markdown_table`]), so the CLI and the docs cannot drift.

use crate::config::MALFORMED_ALLOW;

/// Documentation for one lint id.
#[derive(Debug, Clone, Copy)]
pub struct LintDoc {
    pub id: &'static str,
    /// The invariant the lint enforces, one line.
    pub invariant: &'static str,
    /// Why the MicroRec reproduction needs it.
    pub rationale: &'static str,
    /// A well-formed escape-hatch example (empty when not allowable).
    pub allow_example: &'static str,
}

/// Every lint, in [`crate::LINT_IDS`] order.
pub const LINT_DOCS: [LintDoc; 6] = [
    LintDoc {
        id: "no-panic-serving",
        invariant: "the serving runtime never calls .unwrap()/.expect()/panic!/todo!/unimplemented! outside tests",
        rationale: "runtime code must degrade by returning errors; the worker also contains engine panics, but a panic in admission, the queue or a reply slot would lose requests",
        allow_example: "// lint: allow(no-panic-serving) index bounded by the loop above",
    },
    LintDoc {
        id: "unsafe-audit",
        invariant: "every unsafe block/fn/impl carries an adjacent // SAFETY: comment (or a # Safety doc section)",
        rationale: "the few unsafe sites (aligned loads, FFI) each need a written argument a reviewer can check",
        allow_example: "// lint: allow(unsafe-audit) argument lives in the module header",
    },
    LintDoc {
        id: "determinism",
        invariant: "bit-identity crates avoid HashMap/HashSet iteration order, Instant/SystemTime, and thread_rng",
        rationale: "placement and memory simulation must reproduce bit-identically across runs and machines",
        allow_example: "// lint: allow(determinism) map is never iterated, only probed",
    },
    LintDoc {
        id: "condvar-loop",
        invariant: "Condvar::wait/wait_timeout sits inside a while/loop predicate re-check",
        rationale: "spurious wakeups are legal; a bare wait is a lost-wakeup deadlock seed",
        allow_example: "// lint: allow(condvar-loop) single-shot latch, predicate set exactly once",
    },
    LintDoc {
        id: "unused-allow",
        invariant: "every // lint: allow(<id>) comment suppresses at least one finding",
        rationale: "an allow that no longer matches anything is a stale exemption: the code it justified is gone, but the hole in enforcement remains",
        allow_example: "// lint: allow(unused-allow) kept for the cfg(feature) variant below",
    },
    LintDoc {
        id: MALFORMED_ALLOW,
        invariant: "every lint: allow comment parses as allow(<known-id>) <non-empty reason>",
        rationale: "a typoed escape hatch must fail loudly, never silently not-suppress (or worse, silently suppress)",
        allow_example: "",
    },
];

/// Doc entry for one lint id.
#[must_use]
pub fn explain(id: &str) -> Option<&'static LintDoc> {
    LINT_DOCS.iter().find(|d| d.id == id)
}

/// The README lint table, generated from [`LINT_DOCS`].
#[must_use]
pub fn render_markdown_table() -> String {
    let mut out = String::from("| id | invariant |\n|----|-----------|\n");
    for doc in &LINT_DOCS {
        out.push_str(&format!("| `{}` | {} |\n", doc.id, doc.invariant));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LINT_IDS;

    #[test]
    fn every_lint_id_is_documented_in_order() {
        let documented: Vec<&str> = LINT_DOCS.iter().map(|d| d.id).collect();
        assert_eq!(documented, LINT_IDS);
    }

    #[test]
    fn allow_examples_parse_under_the_allow_grammar() {
        for doc in &LINT_DOCS {
            if doc.allow_example.is_empty() {
                continue;
            }
            let rest = doc
                .allow_example
                .trim_start_matches('/')
                .trim_start()
                .strip_prefix("lint:")
                .and_then(|r| r.trim_start().strip_prefix("allow"))
                .and_then(|r| r.trim_start().strip_prefix('('))
                .expect("example must match the grammar");
            let close = rest.find(')').expect("unterminated id");
            assert_eq!(rest[..close].trim(), doc.id);
            assert!(!rest[close + 1..].trim().is_empty(), "example needs a reason");
        }
    }
}
