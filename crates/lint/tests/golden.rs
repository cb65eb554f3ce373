//! Golden test over the seeded fixture corpus: every lint id must be
//! demonstrated by a failing fixture, and every allowable one by an
//! allow-suppressed fixture and a clean fixture; the diagnostics must
//! match `fixtures/expected.txt` byte for byte.

use std::path::Path;

use microrec_lint::{load_config, run, LINT_IDS};

fn fixtures_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_corpus_matches_golden_diagnostics() {
    let fixtures = fixtures_root();
    let config = load_config(&fixtures.join("lint.toml")).unwrap();
    let report = run(&fixtures, &config).unwrap();

    let got: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    let golden = std::fs::read_to_string(fixtures.join("expected.txt")).unwrap();
    let expected: Vec<&str> =
        golden.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert_eq!(got, expected, "fixture diagnostics drifted from expected.txt");
}

#[test]
fn every_lint_id_has_a_failing_fixture() {
    let fixtures = fixtures_root();
    let config = load_config(&fixtures.join("lint.toml")).unwrap();
    let report = run(&fixtures, &config).unwrap();
    for id in LINT_IDS {
        assert!(
            report.diagnostics.iter().any(|d| d.lint == *id),
            "no failing fixture demonstrates `{id}`"
        );
    }
}

#[test]
fn every_lint_id_has_an_allow_suppressed_fixture() {
    let fixtures = fixtures_root();
    let config = load_config(&fixtures.join("lint.toml")).unwrap();
    let report = run(&fixtures, &config).unwrap();
    // One `allowed.rs` per lint directory, each suppressing exactly one
    // finding; none of them may leak into the diagnostics. The last id,
    // `malformed-allow`, cannot be allowed.
    assert_eq!(report.suppressed, LINT_IDS.len() - 1, "one suppressed case per allowable id");
    assert!(
        !report.diagnostics.iter().any(|d| d.file.ends_with("allowed.rs")),
        "an allow-annotated fixture still reported a diagnostic"
    );
    assert!(
        !report.diagnostics.iter().any(|d| d.file.ends_with("clean.rs")),
        "a clean fixture reported a diagnostic (false positive)"
    );
}
