//! Lints the real workspace as part of `cargo test`: the invariants in
//! `lint.toml` are tier-1, not advisory. An unwrap in the serving
//! runtime, an undocumented `unsafe`, or a clock in a determinism crate
//! fails this test (and the CI lint step) until it is fixed or justified
//! with `// lint: allow(<id>) <reason>`.

use std::collections::BTreeMap;
use std::path::Path;

use microrec_lint::{load_config, render_json, run};

#[test]
fn workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = load_config(&root.join("lint.toml")).unwrap();
    let report = run(&root, &config).unwrap();
    assert!(
        report.is_clean(),
        "microrec-lint found {} violation(s):\n{}",
        report.diagnostics.len(),
        report.diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    // Guard against a silently wrong root: the workspace is >100 files.
    assert!(report.files_scanned > 100, "only {} files scanned", report.files_scanned);
}

/// The `--json` payload is a machine interface (CI artifacts consume
/// it): it must parse as JSON and keep the `microrec-lint-v3` schema
/// fields. Validated against both the clean workspace run and the
/// fixture corpus.
#[test]
fn json_report_parses_and_keeps_the_v3_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = load_config(&root.join("lint.toml")).unwrap();
    let report = run(&root, &config).unwrap();
    let top = parse_object(&render_json(&report));
    assert_eq!(top["schema"], Json::Str("microrec-lint-v3".into()));
    assert!(matches!(top["files_scanned"], Json::Num(n) if n > 100.0));
    assert!(matches!(top["suppressed"], Json::Num(_)));
    assert!(matches!(&top["diagnostics"], Json::Arr(_)));

    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let config = load_config(&fixtures.join("lint.toml")).unwrap();
    let report = run(&fixtures, &config).unwrap();
    let top = parse_object(&render_json(&report));
    let Json::Arr(diags) = &top["diagnostics"] else { panic!("diagnostics must be an array") };
    assert!(!diags.is_empty(), "the fixture corpus must produce findings");
    for d in diags {
        let Json::Obj(d) = d else { panic!("each diagnostic must be an object") };
        assert!(matches!(d["file"], Json::Str(_)));
        assert!(matches!(d["line"], Json::Num(n) if n >= 1.0));
        assert!(matches!(d["lint"], Json::Str(_)));
        assert!(matches!(d["severity"], Json::Str(_)));
        assert!(matches!(d["message"], Json::Str(_)));
        assert_eq!(d.len(), 5, "a diagnostic has exactly the five v3 fields: {d:?}");
    }
}

/// The README's lint table claims to be generated from `LINT_DOCS`;
/// this pins that claim: the text between the `lint-table` markers must
/// be byte-identical to `render_markdown_table()`, so adding or
/// rewording a lint without refreshing the README fails the build.
#[test]
fn readme_lint_table_matches_the_generator() {
    let readme =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"))
            .unwrap();
    let begin = "<!-- lint-table:begin (generated by microrec_lint::render_markdown_table) -->\n";
    let end = "<!-- lint-table:end -->";
    let start = readme.find(begin).expect("README must carry the lint-table begin marker");
    let rest = &readme[start + begin.len()..];
    let stop = rest.find(end).expect("README must carry the lint-table end marker");
    assert_eq!(
        &rest[..stop],
        microrec_lint::render_markdown_table(),
        "README lint table is stale; paste the output of render_markdown_table()"
    );
}

/// Minimal JSON value model for the schema assertions (the workspace is
/// dependency-free, so the test carries its own recursive-descent
/// parser; any syntax error panics with the offending offset).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("indexed a non-object with `{key}`: {other:?}"),
        }
    }
}

fn parse_object(text: &str) -> BTreeMap<String, Json> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing bytes after the JSON document");
    match value {
        Json::Obj(map) => map,
        other => panic!("top-level value must be an object, got {other:?}"),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) {
    assert!(*pos < b.len() && b[*pos] == c, "expected `{}` at byte {pos:?}", c as char);
    *pos += 1;
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos) {
                    Json::Str(s) => s,
                    other => panic!("object key must be a string, got {other:?}"),
                };
                skip_ws(b, pos);
                expect(b, pos, b':');
                map.insert(key, parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Json::Obj(map);
                    }
                    other => panic!("expected `,` or `}}` in object, got {other:?}"),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    other => panic!("expected `,` or `]` in array, got {other:?}"),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        return Json::Str(s);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5]).unwrap();
                                let code = u32::from_str_radix(hex, 16).unwrap();
                                s.push(char::from_u32(code).expect("valid BMP escape"));
                                *pos += 4;
                            }
                            other => panic!("bad escape {other:?}"),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Multi-byte UTF-8 sequences pass through intact.
                        let start = *pos;
                        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                            *pos += 1;
                        }
                        s.push_str(std::str::from_utf8(&b[start..*pos]).unwrap());
                    }
                    None => panic!("unterminated string"),
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Json::Bool(true)
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Json::Bool(false)
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Json::Null
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number `{text}`")))
        }
        None => panic!("unexpected end of input"),
    }
}
