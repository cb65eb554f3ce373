//! Call-graph construction over the workspace index.
//!
//! Works from the lexical model only (no type inference), so resolution
//! is heuristic and deliberately conservative:
//!
//! - `Type::method(...)` and `Self::method(...)` resolve by qualified
//!   path (exact).
//! - `self.method(...)` resolves to the enclosing impl's method when one
//!   exists, otherwise falls back to the method rules below.
//! - `free_fn(...)` prefers a definition in the same file, then a
//!   unique definition anywhere in the workspace.
//! - `receiver.method(...)` first tries the receiver's *written* type:
//!   parameter annotations (`fn f(engine: &mut MicroRec)`), `let`
//!   annotations, and struct-field declarations are pattern-matched, and
//!   `self.field.method()` chains resolve field by field. A known
//!   concrete type resolves exactly (and terminates resolution when the
//!   workspace defines no such method — the call is std or external).
//! - Otherwise the method links to **every** workspace method with that
//!   name (same-file candidates preferred when any exist). This
//!   over-approximates — a deliberate choice: for invariant propagation
//!   a spurious edge can only make the analysis stricter, never hide a
//!   violation. Trait-object/dyn/`impl Trait` dispatch and generic
//!   receivers are the same case: all same-named methods are linked.
//!
//! Calls to functions not defined in the workspace (std, vendored-out
//! code) resolve to nothing and simply terminate propagation.

use crate::index::{FnId, WorkspaceIndex};
use crate::source::{Tok, Token};

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Resolved callee.
    pub callee: FnId,
    /// 1-indexed source line of the call.
    pub line: usize,
    /// Token index of the callee name (for held-lock annotation).
    pub tok: usize,
    /// What the call looked like in source (`helper`, `Type::method`).
    pub display: String,
}

/// Per-function call sites, indexed by [`FnId`].
#[derive(Debug)]
pub struct CallGraph {
    pub calls: Vec<Vec<CallSite>>,
}

/// Words that look like calls but never are.
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "break"
            | "continue"
            | "unsafe"
            | "drop"
    )
}

impl CallGraph {
    /// Extracts and resolves every call site in every indexed function.
    #[must_use]
    pub fn build(index: &WorkspaceIndex) -> CallGraph {
        let fields = field_types(index);
        let mut calls = vec![Vec::new(); index.len()];
        for id in index.ids() {
            calls[id] = extract_calls(index, id, &fields);
        }
        CallGraph { calls }
    }

    /// Call sites of one function.
    #[must_use]
    pub fn of(&self, id: FnId) -> &[CallSite] {
        &self.calls[id]
    }
}

/// The impl type of a function id, when it is a method.
fn impl_type(index: &WorkspaceIndex, id: FnId) -> Option<String> {
    let (_, def) = index.lookup(id);
    def.qual.as_ref().and_then(|q| q.split("::").next().map(str::to_string))
}

fn extract_calls(
    index: &WorkspaceIndex,
    id: FnId,
    fields: &std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>>,
) -> Vec<CallSite> {
    let (file, def) = index.lookup(id);
    let tokens = &file.tokens;
    let own_type = impl_type(index, id);
    let locals: std::collections::BTreeMap<String, String> =
        param_types(tokens, def).into_iter().chain(let_types(tokens, def)).collect();
    // Nested named fns own their call sites; skip their body ranges.
    let nested: Vec<(usize, usize)> = file
        .scan
        .functions
        .iter()
        .filter(|f| f.body.0 > def.body.0 && f.body.1 <= def.body.1)
        .map(|f| f.body)
        .collect();

    let word = |i: usize| -> Option<&str> {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Word(w)) => Some(w.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize| -> Option<char> {
        match tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    };

    let mut out = Vec::new();
    let mut i = def.body.0;
    while i < def.body.1.min(tokens.len()) {
        if let Some(&(_, end)) = nested.iter().find(|&&(start, end)| i >= start && i < end) {
            i = end;
            continue;
        }
        let Some(w) = word(i) else {
            i += 1;
            continue;
        };
        // A call looks like `name (`; skip keywords, macro bangs, and
        // nested-fn declarations (`fn inner(` sits in the outer body).
        if punct(i + 1) != Some('(') || is_keyword(w) || word(i.wrapping_sub(1)) == Some("fn") {
            i += 1;
            continue;
        }
        let prev_dot = i >= 1 && punct(i - 1) == Some('.');
        let prev_path = i >= 2 && punct(i - 1) == Some(':') && punct(i - 2) == Some(':');
        let resolved: Vec<FnId> = if prev_path {
            // `Seg::name(` — resolve by qualified path; `Self::name` and
            // `OwnType::name` go through the enclosing impl type first.
            let seg = word(i.saturating_sub(3)).unwrap_or("");
            let parent = if seg == "Self" { own_type.as_deref().unwrap_or(seg) } else { seg };
            let qual = format!("{parent}::{w}");
            let hits = index.by_qual(&qual);
            if hits.is_empty() {
                // `module::free_fn(` — fall back to a unique free fn.
                unique_by_name(index, file_idx(index, id), w)
            } else {
                hits.to_vec()
            }
        } else if prev_dot {
            let receiver_self =
                i >= 2 && word(i - 2) == Some("self") && punct(i.saturating_sub(3)) != Some('.');
            if receiver_self {
                if let Some(own) = own_type.as_deref() {
                    let hits = index.by_qual(&format!("{own}::{w}"));
                    if !hits.is_empty() {
                        record(&mut out, tokens, i, w, hits);
                        i += 1;
                        continue;
                    }
                }
                method_candidates(index, file_idx(index, id), w, None)
            } else {
                let known = receiver_chain(tokens, i)
                    .and_then(|chain| typed_receiver(&chain, own_type.as_deref(), &locals, fields))
                    .filter(|ty| !is_generic_name(ty));
                if let Some(ty) = known {
                    // The receiver's written type is known: resolve
                    // exactly, or terminate (std/external method).
                    index.by_qual(&format!("{ty}::{w}")).to_vec()
                } else {
                    let hint = receiver_hint(tokens, i);
                    method_candidates(index, file_idx(index, id), w, hint.as_deref())
                }
            }
        } else {
            // Free call: same file first, then unique workspace-wide.
            let same_file: Vec<FnId> = index
                .by_name(w)
                .iter()
                .copied()
                .filter(|&c| index.file_of(c) == file_idx(index, id))
                .collect();
            if same_file.is_empty() {
                unique_by_name(index, file_idx(index, id), w)
            } else {
                same_file
            }
        };
        let caller_file = file_idx(index, id);
        let resolved: Vec<FnId> = resolved
            .into_iter()
            .filter(|&c| index.file_of(c) == caller_file || !in_binary(index, c))
            .collect();
        record(&mut out, tokens, i, w, &resolved);
        i += 1;
    }
    out
}

fn file_idx(index: &WorkspaceIndex, id: FnId) -> usize {
    index.file_of(id)
}

/// The field/variable segment nearest the `.method(` call (token `i` is
/// the method name): `self.stats.hist.lock()` → `hist`,
/// `self.slots[k].take()` → `slots`. `self` and unrecognizable shapes
/// yield no hint.
fn receiver_hint(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i.checked_sub(1)?; // the '.'
    loop {
        j = j.checked_sub(1)?;
        match &tokens[j].tok {
            Tok::Punct(']') | Tok::Punct(')') => {
                let (open, close) = match tokens[j].tok {
                    Tok::Punct(']') => ('[', ']'),
                    _ => ('(', ')'),
                };
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &tokens[j].tok {
                        Tok::Punct(c) if *c == close => depth += 1,
                        Tok::Punct(c) if *c == open => depth -= 1,
                        _ => {}
                    }
                }
            }
            Tok::Word(w) => return if w == "self" { None } else { Some(w.clone()) },
            Tok::Punct('.') | Tok::Punct(':') => {}
            _ => return None,
        }
    }
}

/// Container/smart-pointer types that forward method resolution to
/// their payload: a call through `&Arc<Mutex<LatencyHistogram>>` is a
/// call on `LatencyHistogram` for flow purposes (guards and cells
/// dereference).
const TYPE_WRAPPERS: [&str; 15] = [
    "Option",
    "Arc",
    "Rc",
    "Box",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "Vec",
    "VecDeque",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Fn",
    "FnMut",
];

/// Builtin scalar/slice types: a receiver of one of these never calls a
/// workspace method.
const PRIMITIVES: [&str; 17] = [
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
    "f64", "bool", "char", "str",
];

/// The payload type named by an annotation's word sequence, e.g.
/// `["Arc", "BoundedQueue", "Request"]` → `BoundedQueue`. Returns `None`
/// for `dyn`/`impl Trait` (dispatch target unknowable — keep the
/// conservative fan-out) and for annotations with no usable name.
fn annotated_type(words: &[&str]) -> Option<String> {
    if words.iter().any(|w| *w == "dyn" || *w == "impl") {
        return None;
    }
    words
        .iter()
        .find(|w| {
            if TYPE_WRAPPERS.contains(w) || matches!(**w, "mut" | "ref" | "const" | "FnOnce") {
                return false;
            }
            // Uppercase-initial path segment or a builtin primitive;
            // everything else (lifetimes, `crate`, module segments in
            // lowercase) carries no type signal on its own.
            w.chars().next().is_some_and(char::is_uppercase) || PRIMITIVES.contains(w)
        })
        .map(|w| (*w).to_string())
}

/// Single/double-character type names are generic parameters (`T`, `P`,
/// `Q8` is real but three chars): unresolvable, keep the fan-out.
fn is_generic_name(ty: &str) -> bool {
    ty.len() <= 2
}

/// Splits the token range `(start, end)` into comma-separated segments,
/// respecting paren/bracket/angle nesting (`->` arrows do not close
/// angles). Returns word lists per segment.
fn comma_segments(tokens: &[Token], start: usize, end: usize) -> Vec<Vec<usize>> {
    let mut segments = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let (mut paren, mut bracket, mut angle) = (0i32, 0i32, 0i32);
    for j in start..end.min(tokens.len()) {
        match &tokens[j].tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>')
                if !matches!(
                    tokens.get(j.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('-'))
                ) =>
            {
                angle -= 1;
            }
            Tok::Punct(',') if paren == 0 && bracket == 0 && angle == 0 => {
                segments.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(j);
    }
    if !current.is_empty() {
        segments.push(current);
    }
    segments
}

/// `name: Type` from one declaration segment: the name is the last word
/// before the first top-level `:` (skipping `mut`/`pub` modifiers), the
/// type is everything after it.
fn name_type_pair(tokens: &[Token], segment: &[usize]) -> Option<(String, String)> {
    let mut colon = None;
    let (mut paren, mut bracket) = (0i32, 0i32);
    for (k, &j) in segment.iter().enumerate() {
        match &tokens[j].tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            Tok::Punct('[') => bracket += 1,
            Tok::Punct(']') => bracket -= 1,
            Tok::Punct(':') if paren == 0 && bracket == 0 => {
                let next_is_path =
                    segment.get(k + 1).is_some_and(|&n| matches!(tokens[n].tok, Tok::Punct(':')));
                let prev_is_path = k > 0 && matches!(tokens[segment[k - 1]].tok, Tok::Punct(':'));
                if !next_is_path && !prev_is_path {
                    colon = Some(k);
                    break;
                }
            }
            _ => {}
        }
    }
    let colon = colon?;
    let name = segment[..colon].iter().rev().find_map(|&j| match &tokens[j].tok {
        Tok::Word(w) if w != "mut" && w != "ref" && w != "pub" && w != "crate" => Some(w.clone()),
        _ => None,
    })?;
    if name == "self" {
        return None;
    }
    let words: Vec<&str> = segment[colon + 1..]
        .iter()
        .filter_map(|&j| match &tokens[j].tok {
            Tok::Word(w) => Some(w.as_str()),
            _ => None,
        })
        .collect();
    Some((name, annotated_type(&words)?))
}

/// Parameter annotations of `def`: walks back from the body brace to the
/// `fn` keyword, then parses `name: Type` pairs out of the parameter
/// list.
fn param_types(tokens: &[Token], def: &crate::source::FnDef) -> Vec<(String, String)> {
    let brace = match def.body.0.checked_sub(1) {
        Some(b) => b,
        None => return Vec::new(),
    };
    let mut fn_kw = None;
    let mut j = brace;
    for _ in 0..400 {
        let Some(prev) = j.checked_sub(1) else { break };
        j = prev;
        match &tokens[j].tok {
            Tok::Word(w) if w == "fn" => {
                fn_kw = Some(j);
                break;
            }
            Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(';') => break,
            _ => {}
        }
    }
    let Some(fn_kw) = fn_kw else { return Vec::new() };
    // Skip the name and an optional generic list to the opening paren.
    let mut j = fn_kw + 2;
    if matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('<'))) {
        let mut angle = 1i32;
        while angle > 0 && j + 1 < brace {
            j += 1;
            match &tokens[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !matches!(tokens[j - 1].tok, Tok::Punct('-')) => {
                    angle -= 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    if !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('('))) {
        return Vec::new();
    }
    let open = j;
    let mut paren = 1i32;
    while paren > 0 && j + 1 < brace {
        j += 1;
        match &tokens[j].tok {
            Tok::Punct('(') => paren += 1,
            Tok::Punct(')') => paren -= 1,
            _ => {}
        }
    }
    comma_segments(tokens, open + 1, j)
        .iter()
        .filter_map(|seg| name_type_pair(tokens, seg))
        .collect()
}

/// Explicitly annotated `let` bindings in `def`'s body (untyped lets
/// carry no signal and fall back to the heuristics).
fn let_types(tokens: &[Token], def: &crate::source::FnDef) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let end = def.body.1.min(tokens.len());
    let word = |j: usize| match tokens.get(j).map(|t| &t.tok) {
        Some(Tok::Word(w)) => Some(w.as_str()),
        _ => None,
    };
    let mut i = def.body.0;
    while i < end {
        if word(i) != Some("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if word(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = word(j) else {
            i += 1;
            continue;
        };
        if !matches!(tokens.get(j + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
            || matches!(tokens.get(j + 2).map(|t| &t.tok), Some(Tok::Punct(':')))
        {
            i += 1;
            continue;
        }
        let mut words = Vec::new();
        let mut k = j + 2;
        while k < end && !matches!(tokens[k].tok, Tok::Punct('=') | Tok::Punct(';')) {
            if let Tok::Word(w) = &tokens[k].tok {
                words.push(w.as_str());
            }
            k += 1;
        }
        if let Some(ty) = annotated_type(&words) {
            out.push((name.to_string(), ty));
        }
        i = k;
    }
    out
}

/// Field annotations of every `struct Name { .. }` in the workspace:
/// `type → field → field type`, for resolving `self.field.method()`
/// chains. Tuple and unit structs contribute nothing.
pub(crate) fn field_types(
    index: &WorkspaceIndex,
) -> std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>> {
    let mut map: std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>> =
        std::collections::BTreeMap::new();
    for file in &index.files {
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let Tok::Word(kw) = &tokens[i].tok else { continue };
            if kw != "struct" {
                continue;
            }
            let Some(Tok::Word(name)) = tokens.get(i + 1).map(|t| &t.tok) else { continue };
            // Find the body brace (skipping generics/where); `;` or `(`
            // first means unit/tuple struct.
            let mut j = i + 2;
            let mut angle = 0i32;
            let open = loop {
                match tokens.get(j).map(|t| &t.tok) {
                    Some(Tok::Punct('<')) => angle += 1,
                    Some(Tok::Punct('>')) => angle -= 1,
                    Some(Tok::Punct('{')) if angle == 0 => break Some(j),
                    Some(Tok::Punct(';') | Tok::Punct('(')) if angle == 0 => break None,
                    None => break None,
                    _ => {}
                }
                j += 1;
            };
            let Some(open) = open else { continue };
            let mut j = open;
            let mut brace = 1i32;
            while brace > 0 && j + 1 < tokens.len() {
                j += 1;
                match &tokens[j].tok {
                    Tok::Punct('{') => brace += 1,
                    Tok::Punct('}') => brace -= 1,
                    _ => {}
                }
            }
            let fields = map.entry(name.clone()).or_default();
            for seg in comma_segments(tokens, open + 1, j) {
                if let Some((fname, fty)) = name_type_pair(tokens, &seg) {
                    fields.insert(fname, fty);
                }
            }
        }
    }
    map
}

/// The receiver's segment chain when it is a plain place expression:
/// `self.slot.ready.wait(..)` → `["self", "slot", "ready"]`. Index
/// groups (`xs[k].m()`) are transparent (the wrapper-stripped element
/// type is the indexed type); call results yield `None`.
fn receiver_chain(tokens: &[Token], i: usize) -> Option<Vec<String>> {
    let mut j = i.checked_sub(1)?; // the '.'
    if !matches!(tokens[j].tok, Tok::Punct('.')) {
        return None;
    }
    let mut rev = Vec::new();
    while let Some(prev) = j.checked_sub(1) {
        j = prev;
        match &tokens[j].tok {
            Tok::Punct(']') => {
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &tokens[j].tok {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
            }
            Tok::Punct(')') => return None,
            Tok::Word(w) => {
                let mut head = w.clone();
                let mut k = j;
                // A `::`-qualified head (`Activation::Sigmoid.apply()`)
                // names its type in the leftmost path segment; variant /
                // associated-item segments carry no extra signal.
                while k >= 2
                    && matches!(tokens[k - 1].tok, Tok::Punct(':'))
                    && matches!(tokens[k - 2].tok, Tok::Punct(':'))
                {
                    match tokens.get(k.wrapping_sub(3)).map(|t| &t.tok) {
                        Some(Tok::Word(seg)) => {
                            head = seg.clone();
                            k -= 3;
                        }
                        _ => break,
                    }
                }
                rev.push(head);
                j = k;
                if !matches!(tokens.get(j.wrapping_sub(1)).map(|t| &t.tok), Some(Tok::Punct('.'))) {
                    break;
                }
                j -= 1; // continue from the '.'
            }
            _ => break,
        }
    }
    if rev.is_empty() {
        return None;
    }
    rev.reverse();
    Some(rev)
}

/// Resolves a receiver chain to a concrete type via locals (`self` = the
/// enclosing impl type) and struct-field annotations.
fn typed_receiver(
    chain: &[String],
    own_type: Option<&str>,
    locals: &std::collections::BTreeMap<String, String>,
    fields: &std::collections::BTreeMap<String, std::collections::BTreeMap<String, String>>,
) -> Option<String> {
    let mut parts = chain.iter();
    let first = parts.next()?;
    let mut ty = if first == "self" {
        own_type?.to_string()
    } else if let Some(local) = locals.get(first) {
        local.clone()
    } else if first.starts_with(char::is_uppercase) && first.chars().any(char::is_lowercase) {
        // A mixed-case head is a type named in place: an enum-variant or
        // associated-item receiver (`Activation::Sigmoid.apply(x)`).
        // SCREAMING_CASE heads are consts of undeclared type — skipped.
        first.clone()
    } else {
        return None;
    };
    for seg in parts {
        if is_generic_name(&ty) {
            return None;
        }
        ty = fields.get(&ty)?.get(seg)?.clone();
    }
    if ty == "Self" {
        return own_type.map(str::to_string);
    }
    Some(ty)
}

/// Method names that overwhelmingly mean a std type (`Vec::push`,
/// `HashMap::insert`, `Option::take`, iterator adapters). A lexical
/// resolver cannot tell `vec.pop()` from `fan_in.pop()`, and linking
/// every such call to every same-named workspace method would flood the
/// flow lints with false edges — so cross-file fan-out is dropped for
/// these names. Same-file, `self.`-receiver, and `Type::method` calls
/// still resolve normally.
const STD_SHADOWED: [&str; 66] = [
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clone",
    "next",
    "iter",
    "iter_mut",
    "into_iter",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "clear",
    "take",
    "replace",
    "entry",
    "join",
    "last",
    "first",
    "sort",
    "retain",
    "append",
    "resize",
    "map",
    "and_then",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "sum",
    "count",
    "write",
    "read",
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "map_err",
    "ok",
    "err",
    "fmt",
    "to_string",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "min",
    "max",
    "abs",
    "cmp",
    "eq",
    "lock",
    "wait",
    "wait_timeout",
];

/// All same-named methods, narrowed in priority order: (1) candidates
/// whose impl type name matches the receiver's field/variable name
/// (`self.interaction.apply(..)` → `FeatureInteraction::apply`), (2)
/// same-file definitions (the conservative dyn-dispatch rule), (3)
/// everything — unless the name is [`STD_SHADOWED`], where workspace
/// fan-out is suppressed.
fn method_candidates(
    index: &WorkspaceIndex,
    file: usize,
    name: &str,
    receiver: Option<&str>,
) -> Vec<FnId> {
    let methods: Vec<FnId> = index
        .by_name(name)
        .iter()
        .copied()
        .filter(|&c| {
            let (_, def) = index.lookup(c);
            def.qual.is_some()
        })
        .collect();
    // Short receiver names (`o`, `rb`) carry no signal; `contains` on
    // them would match almost any type.
    if let Some(receiver) = receiver.filter(|r| r.len() >= 3) {
        let hint = receiver.replace('_', "").to_ascii_lowercase();
        let hinted: Vec<FnId> = methods
            .iter()
            .copied()
            .filter(|&c| {
                let (_, def) = index.lookup(c);
                def.qual
                    .as_ref()
                    .and_then(|q| q.split("::").next())
                    .is_some_and(|ty| ty.to_ascii_lowercase().contains(&hint))
            })
            .collect();
        if !hinted.is_empty() {
            return hinted;
        }
    }
    // Shadowed names resolve only via a receiver hint (above) — even a
    // same-file `cv.wait(guard)` means `Condvar::wait`, not a local fn
    // that happens to be named `wait`.
    if STD_SHADOWED.contains(&name) {
        return Vec::new();
    }
    let same_file: Vec<FnId> =
        methods.iter().copied().filter(|&c| index.file_of(c) == file).collect();
    if !same_file.is_empty() {
        same_file
    } else {
        methods
    }
}

/// A free-fn name that resolves only when exactly one definition exists.
fn unique_by_name(index: &WorkspaceIndex, _file: usize, name: &str) -> Vec<FnId> {
    let hits = index.by_name(name);
    if hits.len() == 1 {
        hits.to_vec()
    } else {
        Vec::new()
    }
}

/// A function defined in a binary target: other files cannot call it.
fn in_binary(index: &WorkspaceIndex, id: FnId) -> bool {
    let (file, _) = index.lookup(id);
    file.rel_path.contains("/bin/") || file.rel_path.ends_with("/main.rs")
}

fn record(out: &mut Vec<CallSite>, tokens: &[Token], i: usize, name: &str, resolved: &[FnId]) {
    for &callee in resolved {
        out.push(CallSite { callee, line: tokens[i].line, tok: i, display: name.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileModel;

    fn graph(sources: &[(&str, &str)]) -> (WorkspaceIndex, CallGraph) {
        let files = sources.iter().map(|(p, s)| FileModel::build(p, s)).collect();
        let index = WorkspaceIndex::build(files);
        let graph = CallGraph::build(&index);
        (index, graph)
    }

    fn callee_names(index: &WorkspaceIndex, graph: &CallGraph, caller: &str) -> Vec<String> {
        let id = index.by_name(caller)[0];
        graph.of(id).iter().map(|c| index.lookup(c.callee).1.display_name().to_string()).collect()
    }

    #[test]
    fn cross_file_free_call_resolves_when_unique() {
        let (index, graph) = graph(&[
            ("src/a.rs", "fn hot() { helper(); }\n"),
            ("src/b.rs", "pub fn helper() { other(); }\n"),
        ]);
        assert_eq!(callee_names(&index, &graph, "hot"), vec!["helper"]);
        assert!(callee_names(&index, &graph, "helper").is_empty(), "unknown callee drops");
    }

    #[test]
    fn qualified_and_self_calls_resolve_by_impl_type() {
        let (index, graph) = graph(&[(
            "src/a.rs",
            "impl Ring {\n    fn push(&self) { self.wake(); Ring::helper(); Self::helper(); }\n    fn wake(&self) {}\n    fn helper() {}\n}\n",
        )]);
        assert_eq!(
            callee_names(&index, &graph, "push"),
            vec!["Ring::wake", "Ring::helper", "Ring::helper"]
        );
    }

    #[test]
    fn ambiguous_method_links_all_candidates_conservatively() {
        let (index, graph) = graph(&[
            ("src/a.rs", "fn hot(x: &dyn Sink) { x.ingest(); }\n"),
            ("src/b.rs", "impl Cache { pub fn ingest(&self) {} }\n"),
            ("src/c.rs", "impl Buffer { pub fn ingest(&self) {} }\n"),
        ]);
        let mut names = callee_names(&index, &graph, "hot");
        names.sort();
        assert_eq!(names, vec!["Buffer::ingest", "Cache::ingest"]);
    }

    #[test]
    fn std_shadowed_method_names_do_not_fan_out_across_files() {
        {
            let (index, cg) = graph(&[
                ("src/a.rs", "fn f(v: &mut Vec<u8>) { v.pop(); }\n"),
                ("src/b.rs", "impl Stack { pub fn pop(&self) {} }\n"),
            ]);
            assert!(callee_names(&index, &cg, "f").is_empty());
        }
        // Not even same-file: `cv.wait(g)` means `Condvar::wait`, never a
        // local fn that happens to share the name.
        let (index, cg) = graph(&[(
            "src/a.rs",
            "impl Pending { fn poll(&self, cv: &Condvar) { cv.wait(g); } fn wait(&self) {} }\n",
        )]);
        assert!(callee_names(&index, &cg, "poll").is_empty());
    }

    #[test]
    fn same_file_method_shadows_remote_candidates() {
        // `o` is untyped (no annotation), so resolution falls back to
        // the same-file preference.
        let (index, graph) = graph(&[
            ("src/a.rs", "impl Local { fn go(&self) { let o = acquire(); o.refresh(); } fn refresh(&self) {} }\nfn acquire() {}\n"),
            ("src/b.rs", "impl Remote { pub fn refresh(&self) {} }\n"),
        ]);
        let mut names = callee_names(&index, &graph, "go");
        names.sort();
        assert_eq!(names, vec!["Local::refresh", "acquire"]);
    }

    #[test]
    fn annotated_param_resolves_the_receiver_exactly() {
        let (index, cg) = graph(&[
            ("src/a.rs", "fn drive(engine: &mut MicroRec) { engine.predict_batch(); }\n"),
            ("src/b.rs", "impl MicroRec { pub fn predict_batch(&mut self) {} }\n"),
            ("src/c.rs", "impl CpuReferenceEngine { pub fn predict_batch(&mut self) {} }\n"),
        ]);
        assert_eq!(callee_names(&index, &cg, "drive"), vec!["MicroRec::predict_batch"]);
    }

    #[test]
    fn known_concrete_type_without_the_method_terminates_resolution() {
        let (index, cg) = graph(&[
            ("src/a.rs", "fn go(o: &Other) { o.refresh(); }\n"),
            ("src/b.rs", "impl Remote { pub fn refresh(&self) {} }\n"),
        ]);
        assert!(callee_names(&index, &cg, "go").is_empty());
    }

    #[test]
    fn field_chain_and_let_annotation_resolve_through_wrappers() {
        let (index, cg) = graph(&[(
            "src/a.rs",
            "struct Request { slot: Arc<Slot> }\n\
             impl Worker {\n    fn go(&self, r: &Request) { r.slot.fulfill(); let g: MutexGuard<State> = x(); g.touch(); }\n}\n\
             impl Slot { fn fulfill(&self) {} }\n\
             impl State { fn touch(&self) {} }\n\
             impl Other { fn fulfill(&self) {} fn touch(&self) {} }\n\
             fn x() {}\n",
        )]);
        let mut names = callee_names(&index, &cg, "go");
        names.sort();
        assert_eq!(names, vec!["Slot::fulfill", "State::touch", "x"]);
    }

    #[test]
    fn generic_receivers_keep_the_conservative_fan_out() {
        let (index, cg) = graph(&[
            ("src/a.rs", "fn step<P>(p: &mut P) { p.advance(); }\n"),
            ("src/b.rs", "impl Left { pub fn advance(&mut self) {} }\n"),
            ("src/c.rs", "impl Right { pub fn advance(&mut self) {} }\n"),
        ]);
        let mut names = callee_names(&index, &cg, "step");
        names.sort();
        assert_eq!(names, vec!["Left::advance", "Right::advance"]);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let (index, graph) = graph(&[(
            "src/a.rs",
            "fn f() { if (x) { return (1); } assert!(helper()); }\nfn helper() -> bool { true }\n",
        )]);
        assert_eq!(callee_names(&index, &graph, "f"), vec!["helper"]);
    }

    #[test]
    fn nested_fn_bodies_are_not_attributed_to_the_outer_fn() {
        let (index, graph) = graph(&[(
            "src/a.rs",
            "fn outer() { fn inner() { helper(); } inner(); }\nfn helper() {}\n",
        )]);
        assert_eq!(callee_names(&index, &graph, "outer"), vec!["inner"]);
        assert_eq!(callee_names(&index, &graph, "inner"), vec!["helper"]);
    }
}
