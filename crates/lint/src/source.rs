//! Lexical model of one Rust source file.
//!
//! The linter does not parse Rust; it works from a faithful *lexical*
//! model: comments and string/char literals are stripped (so an `.unwrap()`
//! inside a doc example or a log message never trips a lint), the
//! remaining code is tokenized, and a single structural pass tracks the
//! brace-nesting context — function bodies, `#[cfg(test)]` regions,
//! and `loop`/`while` bodies — that the lints need. This keeps the crate
//! dependency-free while staying robust against the usual false-positive
//! sources (strings, comments, doctests, test modules).

/// One comment's text and the 1-indexed line it starts on. Block comments
/// are split per line so adjacency checks stay line-based.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: usize,
    pub text: String,
}

/// A lexical token of the stripped code: a word (identifier, keyword, or
/// numeric literal) or a single punctuation character.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Word(String),
    Punct(char),
}

#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

/// Comment- and literal-stripped view of a source file.
#[derive(Debug)]
pub struct Stripped {
    /// Code with comments and string/char literals blanked, one entry per
    /// source line (so indices map back to real line numbers).
    pub code_lines: Vec<String>,
    pub comments: Vec<Comment>,
}

/// Strips comments and string/char literals, recording comment text.
pub fn strip(text: &str) -> Stripped {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let mut code_lines: Vec<String> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut cur = String::new();
    let mut line = 1usize;
    let mut i = 0usize;
    // True when the previous code char continues an identifier, so an `r`
    // or `b` here cannot start a raw/byte string literal.
    let mut prev_ident = false;

    macro_rules! newline {
        () => {{
            code_lines.push(std::mem::take(&mut cur));
            line += 1;
            prev_ident = false;
        }};
    }

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                newline!();
                i += 1;
            }
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                comments.push(Comment { line, text: chars[start..j].iter().collect() });
                cur.push(' ');
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1usize;
                let mut buf = String::new();
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else if chars[i] == '\n' {
                        comments.push(Comment { line, text: std::mem::take(&mut buf) });
                        newline!();
                        i += 1;
                    } else {
                        buf.push(chars[i]);
                        i += 1;
                    }
                }
                comments.push(Comment { line, text: buf });
                cur.push(' ');
            }
            '"' => {
                i = skip_string(&chars, i + 1, &mut |nl| {
                    if nl {
                        code_lines.push(std::mem::take(&mut cur));
                        line += 1;
                    }
                });
                cur.push(' ');
                prev_ident = false;
            }
            'r' | 'b' if !prev_ident => {
                if let Some(next) = raw_or_byte_literal(&chars, i) {
                    // Count newlines the literal spans.
                    for &ch in &chars[i..next] {
                        if ch == '\n' {
                            code_lines.push(std::mem::take(&mut cur));
                            line += 1;
                        }
                    }
                    cur.push(' ');
                    i = next;
                    prev_ident = false;
                } else {
                    cur.push(c);
                    prev_ident = true;
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    let mut j = i + 2;
                    if j < n {
                        j += 1; // the escaped char
                    }
                    // Unicode escapes: \u{...}
                    while j < n && chars[j] != '\'' && chars[j] != '\n' {
                        j += 1;
                    }
                    cur.push(' ');
                    i = (j + 1).min(n);
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    cur.push(' ');
                    i += 3;
                } else {
                    // A lifetime: keep the quote so tokens stay aligned.
                    cur.push('\'');
                    i += 1;
                }
                prev_ident = false;
            }
            _ => {
                cur.push(c);
                prev_ident = c.is_alphanumeric() || c == '_';
                i += 1;
            }
        }
    }
    code_lines.push(cur);
    Stripped { code_lines, comments }
}

/// Advances past a normal (escaped) string literal body; `on_char` is told
/// whether each consumed char was a newline.
fn skip_string(chars: &[char], mut i: usize, on_char: &mut dyn FnMut(bool)) -> usize {
    let n = chars.len();
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            c => {
                on_char(c == '\n');
                i += 1;
            }
        }
    }
    n
}

/// If `chars[i]` starts a raw string (`r"`, `r#"`), byte string (`b"`),
/// raw byte string (`br#"`) or byte char (`b'x'`), returns the index just
/// past the literal.
fn raw_or_byte_literal(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    let (raw_start, is_raw) = match chars[i] {
        'r' => (i + 1, true),
        'b' if i + 1 < n && chars[i + 1] == 'r' => (i + 2, true),
        'b' if i + 1 < n && chars[i + 1] == '"' => (i + 1, false),
        'b' if i + 1 < n && chars[i + 1] == '\'' => {
            // Byte char literal b'x' / b'\n'.
            let mut j = i + 2;
            while j < n && chars[j] != '\'' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            return Some((j + 1).min(n));
        }
        _ => return None,
    };
    if is_raw {
        let mut hashes = 0usize;
        let mut j = raw_start;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || chars[j] != '"' {
            return None;
        }
        j += 1;
        // Scan for `"` followed by `hashes` hashes.
        while j < n {
            if chars[j] == '"' {
                let mut k = 0usize;
                while k < hashes && j + 1 + k < n && chars[j + 1 + k] == '#' {
                    k += 1;
                }
                if k == hashes {
                    return Some(j + 1 + hashes);
                }
            }
            j += 1;
        }
        Some(n)
    } else {
        // b"..." — plain escaped string after the prefix.
        let mut j = raw_start + 1;
        while j < n {
            match chars[j] {
                '\\' => j += 2,
                '"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        Some(n)
    }
}

/// Tokenizes stripped code lines into words and punctuation.
pub fn tokenize(code_lines: &[String]) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, text) in code_lines.iter().enumerate() {
        let line = idx + 1;
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token { tok: Tok::Word(chars[start..i].iter().collect()), line });
            } else {
                out.push(Token { tok: Tok::Punct(c), line });
                i += 1;
            }
        }
    }
    out
}

/// What a finding is, with enough lexical context to scope and report it.
#[derive(Debug, Clone, PartialEq)]
pub enum FindingKind {
    /// A panicking construct (`.unwrap()`, `panic!`, ...).
    PanicCall { what: &'static str },
    /// An `unsafe` block / fn / impl / trait site.
    UnsafeSite { kind: &'static str },
    /// A nondeterministic construct (`HashMap`, `Instant::now`, ...).
    Nondet { what: &'static str },
    /// A bare `Condvar::wait`/`wait_timeout` call not inside a loop.
    BareWait { what: &'static str },
}

/// One raw (pre-config, pre-suppression) finding from the structural scan.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: FindingKind,
    pub line: usize,
    /// True inside `#[cfg(test)]` modules, `#[test]` fns, or files the
    /// caller marked as test-only (integration tests, benches).
    pub in_test: bool,
}

#[derive(Debug)]
enum BlockKind {
    Fn,
    Loop,
    Other,
}

#[derive(Debug)]
struct Block {
    kind: BlockKind,
    is_test_root: bool,
}

/// Runs the structural pass: walks the token stream tracking blocks and
/// emits every lintable site with its context. `file_is_test` marks whole
/// files (integration tests, benches) as test context.
pub fn scan(tokens: &[Token], file_is_test: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut stack: Vec<Block> = Vec::new();
    // Token indices since the last statement/block boundary; decides what
    // an opening `{` belongs to.
    let mut buffer: Vec<usize> = Vec::new();

    let punct = |i: usize| -> Option<char> {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    };

    for (i, token) in tokens.iter().enumerate() {
        let line = token.line;
        let in_test = file_is_test || stack.iter().any(|b| b.is_test_root);
        match &token.tok {
            Tok::Punct('{') => {
                let kind = classify_block(tokens, &buffer);
                let is_test_root = block_is_test_root(tokens, &buffer, &kind);
                stack.push(Block { kind, is_test_root });
                buffer.clear();
                continue;
            }
            Tok::Punct('}') => {
                stack.pop();
                buffer.clear();
                continue;
            }
            Tok::Punct(';') => {
                buffer.clear();
                continue;
            }
            Tok::Word(w) => {
                let mut emit = |kind: FindingKind| findings.push(Finding { kind, line, in_test });
                let prev_dot = i > 0 && punct(i - 1) == Some('.');
                let next_bang = punct(i + 1) == Some('!');
                let next_paren = punct(i + 1) == Some('(');
                match w.as_str() {
                    // --- no-panic-serving ---
                    "unwrap" if prev_dot && next_paren => {
                        emit(FindingKind::PanicCall { what: ".unwrap()" });
                    }
                    "expect" if prev_dot && next_paren => {
                        emit(FindingKind::PanicCall { what: ".expect(" });
                    }
                    "panic" if next_bang => emit(FindingKind::PanicCall { what: "panic!" }),
                    "todo" if next_bang => emit(FindingKind::PanicCall { what: "todo!" }),
                    // --- unsafe-audit ---
                    "unsafe" => {
                        let kind = match tokens.get(i + 1).map(|t| &t.tok) {
                            Some(Tok::Punct('{')) => "unsafe block",
                            Some(Tok::Word(k)) if k == "fn" => "unsafe fn",
                            Some(Tok::Word(k)) if k == "impl" => "unsafe impl",
                            Some(Tok::Word(k)) if k == "trait" => "unsafe trait",
                            Some(Tok::Word(k)) if k == "extern" => "unsafe extern",
                            _ => "unsafe",
                        };
                        emit(FindingKind::UnsafeSite { kind });
                    }
                    // --- determinism ---
                    "HashMap" => emit(FindingKind::Nondet { what: "HashMap" }),
                    "HashSet" => emit(FindingKind::Nondet { what: "HashSet" }),
                    "Instant" => emit(FindingKind::Nondet { what: "Instant" }),
                    "SystemTime" => emit(FindingKind::Nondet { what: "SystemTime" }),
                    "thread_rng" => emit(FindingKind::Nondet { what: "thread_rng" }),
                    // --- condvar-loop ---
                    // `Condvar::wait` always takes the guard; a
                    // zero-argument `.wait()` is some other type.
                    "wait"
                        if prev_dot
                            && next_paren
                            && punct(i + 2) != Some(')')
                            && !in_loop(&stack) =>
                    {
                        emit(FindingKind::BareWait { what: "wait" });
                    }
                    "wait_timeout" if prev_dot && next_paren && !in_loop(&stack) => {
                        emit(FindingKind::BareWait { what: "wait_timeout" });
                    }
                    _ => {}
                }
            }
            Tok::Punct(_) => {}
        }
        buffer.push(i);
        if buffer.len() > 256 {
            // Pathological statement; keep only the tail that block
            // classification looks at.
            buffer.drain(..128);
        }
    }
    findings
}

/// True when the innermost enclosing block chain, up to the containing
/// function boundary, includes a `loop`/`while`/`for` body.
fn in_loop(stack: &[Block]) -> bool {
    for block in stack.iter().rev() {
        match block.kind {
            BlockKind::Loop => return true,
            BlockKind::Fn => return false,
            BlockKind::Other => {}
        }
    }
    false
}

/// Decides what an opening `{` belongs to from the tokens since the last
/// statement boundary (`buffer` holds indices into `tokens`): `fn` followed
/// by a name opens a function body (`fn(u8)`, a pointer type, does not),
/// and an `impl`/`trait` header is never a loop.
fn classify_block(tokens: &[Token], buffer: &[usize]) -> BlockKind {
    let mut is_fn = false;
    let mut looped = false;
    let mut is_impl = false;
    let mut after_fn = false;
    for &idx in buffer {
        match &tokens[idx].tok {
            Tok::Word(w) => {
                is_fn |= after_fn;
                after_fn = w == "fn";
                match w.as_str() {
                    "impl" | "trait" => is_impl = true,
                    "loop" | "while" | "for" => looped = true,
                    _ => {}
                }
            }
            Tok::Punct(_) => after_fn = false,
        }
    }
    if is_fn {
        BlockKind::Fn
    } else if looped && !is_impl {
        BlockKind::Loop
    } else {
        BlockKind::Other
    }
}

/// True when the block being opened is a test root: a `#[cfg(test)]`
/// module or a `#[test]` function (attribute tokens are still in the
/// buffer because attributes precede the item with no `;`).
fn block_is_test_root(tokens: &[Token], buffer: &[usize], kind: &BlockKind) -> bool {
    let mut has_attr = false;
    let mut has_test = false;
    let mut has_not = false;
    let mut has_mod = false;
    for &idx in buffer {
        match &tokens[idx].tok {
            Tok::Punct('#') => has_attr = true,
            Tok::Word(w) => match w.as_str() {
                "test" => has_test = true,
                "not" => has_not = true,
                "mod" => has_mod = true,
                _ => {}
            },
            _ => {}
        }
    }
    if !(has_attr && has_test) || has_not {
        return false;
    }
    has_mod || matches!(kind, BlockKind::Fn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(src: &str) -> Vec<Finding> {
        let stripped = strip(src);
        scan(&tokenize(&stripped.code_lines), false)
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let findings = scan_src(
            r##"
fn f() {
    let s = "Vec::new() .unwrap() HashMap";
    // Vec::new() in a comment
    let r = r#"panic!("x")"#;
    let c = 'x';
}
"##,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn panic_sites_outside_tests_are_live() {
        let findings =
            scan_src("fn serve() {\n    let v = x.unwrap();\n    v.len().expect(\"\");\n}\n");
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| !f.in_test));
    }

    #[test]
    fn cfg_test_mod_marks_findings_as_test() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live() { y.unwrap(); }\n";
        let findings = scan_src(src);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].in_test);
        assert!(!findings[1].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let findings = scan_src("#[cfg(not(test))]\nmod live {\n    fn f() { x.unwrap(); }\n}\n");
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].in_test);
    }

    #[test]
    fn wait_inside_loop_is_fine_outside_is_flagged() {
        let looped = scan_src("fn f() { loop { g = cv.wait(g); } }");
        assert!(looped.is_empty(), "{looped:?}");
        let bare = scan_src("fn f() { if x { g = cv.wait(g); } }");
        assert_eq!(bare.len(), 1);
        assert!(matches!(bare[0].kind, FindingKind::BareWait { .. }));
        // Zero-argument `.wait()` is a different API (e.g. a future).
        assert!(scan_src("fn f() { p.wait(); }").is_empty());
    }

    #[test]
    fn while_let_counts_as_loop() {
        let findings = scan_src("fn f() { while let Some(x) = q.front() { g = cv.wait(g); } }");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_sites_are_classified() {
        let findings = scan_src("unsafe fn f() {}\nfn g() { unsafe { f() } }\n");
        let kinds: Vec<_> = findings
            .iter()
            .filter_map(|f| match f.kind {
                FindingKind::UnsafeSite { kind } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["unsafe fn", "unsafe block"]);
    }

    #[test]
    fn lifetimes_do_not_break_the_lexer() {
        let findings = scan_src("fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let _ = c; x }\n");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
