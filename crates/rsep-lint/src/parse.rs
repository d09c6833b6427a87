//! Item-level parse over the token stream.
//!
//! Extracts what the lints need and nothing more: struct names, `impl`
//! blocks with their methods, free functions (name,
//! visibility and body range), `const` definitions, enum/trait/type-alias
//! names, `#[cfg(test)]`
//! line ranges (excluded from every lint), and the obs-gated token spans
//! (`obs! { ... }` invocations, items under `#[cfg(feature = "obs")]`, and
//! files under `#![cfg(feature = "obs")]`). `macro_rules!` bodies are
//! skipped entirely — macro fragments are not real items.

use crate::lexer::{TokKind, Token};

/// A struct definition (named-field, tuple or unit).
#[derive(Debug)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Token index of the name token.
    pub tok: usize,
    /// `pub` without a restriction (`pub(crate)` etc. count as private).
    pub is_pub: bool,
}

/// A function with an optional body given as a `start..end` token index
/// range (exclusive of the closing brace).
#[derive(Debug)]
pub(crate) struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Token index of the name token.
    pub tok: usize,
    /// `pub` without a restriction.
    pub is_pub: bool,
    /// Body token range, `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
}

/// A `const` definition.
#[derive(Debug)]
pub struct ConstDef {
    /// Constant name.
    pub name: String,
    /// Token index of the name token.
    pub tok: usize,
    /// `pub` without a restriction.
    pub is_pub: bool,
    /// Defined at brace depth 0 (module top level).
    pub top_level: bool,
}

/// A named item the lints only need by name: enums, traits, type aliases.
#[derive(Debug)]
pub struct ItemDecl {
    /// `"enum"`, `"trait"` or `"type"`.
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Token index of the name token.
    pub tok: usize,
    /// `pub` without a restriction.
    pub is_pub: bool,
}

/// An `impl` block: `impl Trait for Type { ... }` or `impl Type { ... }`.
#[derive(Debug)]
pub struct ImplDef {
    /// Last path segment of the trait, when this is a trait impl.
    pub trait_name: Option<String>,
    /// Last path segment of the implementing type.
    pub type_name: String,
    /// Functions defined directly in the block.
    pub(crate) fns: Vec<FnDef>,
}

/// Everything the lints need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// `impl` blocks, in source order.
    pub impls: Vec<ImplDef>,
    /// Free (non-impl) functions, including trait-declaration methods.
    pub(crate) free_fns: Vec<FnDef>,
    /// `const` definitions anywhere in the file, in source order.
    pub consts: Vec<ConstDef>,
    /// Enum, trait and type-alias declarations, in source order.
    pub others: Vec<ItemDecl>,
    /// Inclusive line ranges under `#[cfg(test)]`.
    pub test_lines: Vec<(usize, usize)>,
    /// Inclusive token index ranges gated by `obs!` or
    /// `#[cfg(feature = "obs")]` (a `#![cfg(feature = "obs")]` inner
    /// attribute gates the rest of the file).
    pub obs_tokens: Vec<(usize, usize)>,
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

fn as_ident(t: &Token) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_ident(t: &Token, s: &str) -> bool {
    as_ident(t) == Some(s)
}

fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| is_punct(t, c))
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(as_ident)
}

/// Index just after the delimiter matching `toks[i]` (which must be `open`).
fn skip_balanced(toks: &[Token], i: usize, open: char, close: char) -> usize {
    let mut depth = 1usize;
    let mut j = i + 1;
    while j < toks.len() && depth > 0 {
        if is_punct(&toks[j], open) {
            depth += 1;
        } else if is_punct(&toks[j], close) {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Index just after the `>` matching `toks[i]` (which must be `<`). The `>`
/// of a `->` arrow is not treated as a closer.
fn skip_generics(toks: &[Token], i: usize) -> usize {
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < toks.len() && depth > 0 {
        if is_punct(&toks[j], '<') {
            depth += 1;
        } else if is_punct(&toks[j], '>') && !is_punct(&toks[j - 1], '-') {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Visibility of the item a `pub` run precedes. Only unrestricted `pub`
/// makes an item part of the workspace API; `pub(crate)`/`pub(super)` are
/// internal.
fn pub_before(toks: &[Token], k: usize) -> bool {
    // `k` is the index of the item keyword. A `pub(crate)`/`pub(super)`
    // item keyword is preceded by `)` — restricted, never workspace-pub.
    k > 0 && is_ident(&toks[k - 1], "pub")
}

/// Parses a whole token stream into items and gated spans.
pub fn parse_file(toks: &[Token]) -> ParsedFile {
    let mut pf = ParsedFile::default();
    scan_gating(toks, &mut pf);
    scan_consts(toks, &mut pf);
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(&toks[i], "macro_rules") && punct_at(toks, i + 1, '!') {
            let mut j = i + 2;
            if ident_at(toks, j).is_some() {
                j += 1;
            }
            i = match toks.get(j).map(|t| &t.kind) {
                Some(TokKind::Punct('{')) => skip_balanced(toks, j, '{', '}'),
                Some(TokKind::Punct('(')) => skip_balanced(toks, j, '(', ')'),
                Some(TokKind::Punct('[')) => skip_balanced(toks, j, '[', ']'),
                _ => j,
            };
            continue;
        }
        if is_ident(&toks[i], "struct") {
            if let Some((sd, next)) = parse_struct(toks, i) {
                pf.structs.push(sd);
                i = next;
                continue;
            }
        }
        if is_ident(&toks[i], "impl") {
            if let Some((im, next)) = parse_impl(toks, i) {
                pf.impls.push(im);
                i = next;
                continue;
            }
        }
        if is_ident(&toks[i], "fn") {
            if let Some((f, next)) = parse_fn(toks, i) {
                pf.free_fns.push(f);
                i = next;
                continue;
            }
        }
        if is_ident(&toks[i], "enum") || is_ident(&toks[i], "trait") {
            let kind = if is_ident(&toks[i], "enum") { "enum" } else { "trait" };
            if let Some((decl, body, next)) = parse_named_block(toks, i, kind) {
                // Trait-declaration methods stay visible as free functions
                // (their bodies or signatures matter to the same passes).
                if kind == "trait" {
                    if let Some((b0, b1)) = body {
                        let mut k = b0;
                        while k < b1 {
                            if is_ident(&toks[k], "fn") {
                                if let Some((f, nk)) = parse_fn(toks, k) {
                                    pf.free_fns.push(f);
                                    k = nk;
                                    continue;
                                }
                            }
                            k += 1;
                        }
                    }
                }
                pf.others.push(decl);
                i = next;
                continue;
            }
        }
        if is_ident(&toks[i], "type") {
            if let Some(name) = ident_at(toks, i + 1) {
                pf.others.push(ItemDecl {
                    kind: "type",
                    name: name.to_string(),
                    line: toks[i + 1].line,
                    tok: i + 1,
                    is_pub: pub_before(toks, i),
                });
                let mut j = i + 2;
                while j < toks.len() && !is_punct(&toks[j], ';') {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    pf
}

/// Body token range of a block item, `None` for bodyless declarations.
type BodyRange = Option<(usize, usize)>;

/// Parses `enum`/`trait` `Name ... { body }`, returning the declaration,
/// the body token range, and the index after the closing brace.
fn parse_named_block(
    toks: &[Token],
    i: usize,
    kind: &'static str,
) -> Option<(ItemDecl, BodyRange, usize)> {
    let name = ident_at(toks, i + 1)?.to_string();
    let decl =
        ItemDecl { kind, name, line: toks[i + 1].line, tok: i + 1, is_pub: pub_before(toks, i) };
    let mut j = i + 2;
    if punct_at(toks, j, '<') {
        j = skip_generics(toks, j);
    }
    while j < toks.len() && !is_punct(&toks[j], '{') && !is_punct(&toks[j], ';') {
        j += 1;
    }
    if j >= toks.len() || is_punct(&toks[j], ';') {
        return Some((decl, None, j + 1));
    }
    let after = skip_balanced(toks, j, '{', '}');
    Some((decl, Some((j + 1, after.saturating_sub(1))), after))
}

/// Full-stream scan for `const NAME: TYPE = value;` definitions at any
/// depth (module level, impl blocks, function bodies). Const generic
/// parameters (`<const N: usize>`) have no `=` value and are skipped.
fn scan_consts(toks: &[Token], pf: &mut ParsedFile) {
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth -= 1,
            TokKind::Ident(s) if s == "const" => {
                if let Some((cd, next)) = parse_const(toks, i, depth == 0) {
                    pf.consts.push(cd);
                    i = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parses `const NAME: TYPE = value;` starting at the `const` keyword.
fn parse_const(toks: &[Token], i: usize, top_level: bool) -> Option<(ConstDef, usize)> {
    let name = ident_at(toks, i + 1)?.to_string();
    if !punct_at(toks, i + 2, ':') {
        return None;
    }
    let mut j = i + 3;
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('=') if depth == 0 => break,
            // `;`, `,`, `>` or `)` before `=`: a const without a value
            // (trait decl or const-generic parameter) — not a definition.
            TokKind::Punct(';' | ',' | '>' | ')') if depth == 0 => return None,
            TokKind::Punct('<' | '[' | '(') => depth += 1,
            TokKind::Punct(']' | ')') => depth -= 1,
            TokKind::Punct('>') if !punct_at(toks, j - 1, '-') => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let mut k = j + 1;
    let mut vdepth = 0i32;
    while k < toks.len() {
        match &toks[k].kind {
            TokKind::Punct('(' | '[' | '{') => vdepth += 1,
            TokKind::Punct(')' | ']' | '}') => vdepth -= 1,
            TokKind::Punct(';') if vdepth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    Some((ConstDef { name, tok: i + 1, is_pub: pub_before(toks, i), top_level }, k + 1))
}

/// Full-stream scan for `#[cfg(test)]` line ranges and obs-gated token
/// spans. Runs over every token (not just top level) because `obs!`
/// invocations live inside method bodies. Inner attributes
/// (`#![cfg(feature = "obs")]`, `#![cfg(test)]`) gate every following
/// token.
fn scan_gating(toks: &[Token], pf: &mut ParsedFile) {
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(&toks[i], "obs") && punct_at(toks, i + 1, '!') {
            let after = match toks.get(i + 2).map(|t| &t.kind) {
                Some(TokKind::Punct('{')) => skip_balanced(toks, i + 2, '{', '}'),
                Some(TokKind::Punct('(')) => skip_balanced(toks, i + 2, '(', ')'),
                Some(TokKind::Punct('[')) => skip_balanced(toks, i + 2, '[', ']'),
                _ => {
                    i += 1;
                    continue;
                }
            };
            pf.obs_tokens.push((i, after.saturating_sub(1)));
            i = after;
            continue;
        }
        if is_punct(&toks[i], '#') && (punct_at(toks, i + 1, '[') || punct_at(toks, i + 1, '!')) {
            let inner = punct_at(toks, i + 1, '!');
            let open = if inner { i + 2 } else { i + 1 };
            if !punct_at(toks, open, '[') {
                i += 1;
                continue;
            }
            let after_attr = skip_balanced(toks, open, '[', ']');
            let attr = &toks[open + 1..after_attr.saturating_sub(1).max(open + 1)];
            let has = |s: &str| attr.iter().any(|t| is_ident(t, s));
            let has_obs_str = attr.iter().any(|t| matches!(&t.kind, TokKind::Str(v) if v == "obs"));
            let is_cfg = has("cfg");
            let gates_test = is_cfg && has("test") && !has("not");
            let gates_obs = is_cfg && has("feature") && has_obs_str && !has("not");
            if (gates_test || gates_obs) && after_attr < toks.len() {
                // An inner attribute gates the rest of the file; an outer
                // one gates the next item.
                let end = if inner { toks.len() - 1 } else { item_end(toks, after_attr) };
                if gates_test {
                    pf.test_lines.push((toks[i].line, toks[end].line));
                }
                if gates_obs {
                    pf.obs_tokens.push((i, end));
                }
            }
            i = after_attr;
            continue;
        }
        i += 1;
    }
}

/// Index (inclusive) of the last token of the item starting at `k`: the
/// matching `}` of its first top-level block, or the `;`/`,` that terminates
/// it, or the token before an enclosing closer. Leading attributes are
/// skipped into the item.
fn item_end(toks: &[Token], mut k: usize) -> usize {
    while punct_at(toks, k, '#') && punct_at(toks, k + 1, '[') {
        k = skip_balanced(toks, k + 1, '[', ']');
    }
    let (mut paren, mut brack, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
    while k < toks.len() {
        if let TokKind::Punct(c) = toks[k].kind {
            match c {
                '(' => paren += 1,
                ')' => {
                    if paren == 0 {
                        return k.saturating_sub(1);
                    }
                    paren -= 1;
                }
                '[' => brack += 1,
                ']' => {
                    if brack == 0 {
                        return k.saturating_sub(1);
                    }
                    brack -= 1;
                }
                '{' => {
                    if paren == 0 && brack == 0 && brace == 0 {
                        return skip_balanced(toks, k, '{', '}').saturating_sub(1);
                    }
                    brace += 1;
                }
                '}' => {
                    if brace == 0 {
                        return k.saturating_sub(1);
                    }
                    brace -= 1;
                }
                '<' => angle += 1,
                '>' if !punct_at(toks, k.wrapping_sub(1), '-') && angle > 0 => angle -= 1,
                ';' | ',' if paren == 0 && brack == 0 && brace == 0 && angle <= 0 => return k,
                _ => {}
            }
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// Parses `struct Name ... { ... }` (or a tuple/unit struct) starting at
/// the `struct` keyword; returns the definition and the index after it.
fn parse_struct(toks: &[Token], i: usize) -> Option<(StructDef, usize)> {
    let name = ident_at(toks, i + 1)?.to_string();
    let sd = StructDef { name, line: toks[i + 1].line, tok: i + 1, is_pub: pub_before(toks, i) };
    let mut j = i + 2;
    if punct_at(toks, j, '<') {
        j = skip_generics(toks, j);
    }
    // Scan over a possible `where` clause to the body/terminator.
    while j < toks.len()
        && !is_punct(&toks[j], '{')
        && !is_punct(&toks[j], '(')
        && !is_punct(&toks[j], ';')
    {
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    if is_punct(&toks[j], ';') {
        return Some((sd, j + 1));
    }
    if is_punct(&toks[j], '(') {
        let mut k = skip_balanced(toks, j, '(', ')');
        while k < toks.len() && !is_punct(&toks[k], ';') {
            k += 1;
        }
        return Some((sd, k + 1));
    }
    Some((sd, skip_balanced(toks, j, '{', '}')))
}

/// Parses `fn name(...) ... { body }` (or `...;`) starting at `fn`.
fn parse_fn(toks: &[Token], i: usize) -> Option<(FnDef, usize)> {
    let name = ident_at(toks, i + 1)?.to_string();
    let line = toks[i + 1].line;
    let tok = i + 1;
    let is_pub = pub_before(toks, i);
    let mut j = i + 2;
    if punct_at(toks, j, '<') {
        j = skip_generics(toks, j);
    }
    if !punct_at(toks, j, '(') {
        return None;
    }
    j = skip_balanced(toks, j, '(', ')');
    // Skip the return type and `where` clause up to the body or `;`.
    let (mut paren, mut brack, mut angle) = (0i32, 0i32, 0i32);
    while j < toks.len() {
        if let TokKind::Punct(c) = toks[j].kind {
            match c {
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => brack += 1,
                ']' => brack -= 1,
                '<' => angle += 1,
                '>' if !punct_at(toks, j - 1, '-') && angle > 0 => angle -= 1,
                '{' if paren == 0 && brack == 0 && angle == 0 => break,
                ';' if paren == 0 && brack == 0 && angle == 0 => {
                    return Some((FnDef { name, line, tok, is_pub, body: None }, j + 1));
                }
                _ => {}
            }
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let after = skip_balanced(toks, j, '{', '}');
    let body = Some((j + 1, after.saturating_sub(1)));
    Some((FnDef { name, line, tok, is_pub, body }, after))
}

/// Parses `impl [<..>] [Trait for] Type [where ..] { fns }` starting at
/// `impl`.
fn parse_impl(toks: &[Token], i: usize) -> Option<(ImplDef, usize)> {
    let mut j = i + 1;
    if punct_at(toks, j, '<') {
        j = skip_generics(toks, j);
    }
    let mut path_a: Vec<String> = Vec::new();
    let mut path_b: Vec<String> = Vec::new();
    let mut after_for = false;
    let mut angle = 0i32;
    while j < toks.len() {
        if angle == 0 && is_punct(&toks[j], '{') {
            break;
        }
        if angle == 0 && is_ident(&toks[j], "where") {
            while j < toks.len() && !is_punct(&toks[j], '{') {
                j += 1;
            }
            break;
        }
        if angle == 0 && is_ident(&toks[j], "for") {
            after_for = true;
            j += 1;
            continue;
        }
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !punct_at(toks, j - 1, '-') && angle > 0 => angle -= 1,
            TokKind::Ident(s) if angle == 0 => {
                if after_for {
                    path_b.push(s.clone());
                } else {
                    path_a.push(s.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let (trait_name, type_name) = if after_for {
        (path_a.last().cloned(), path_b.last().cloned()?)
    } else {
        (None, path_a.last().cloned()?)
    };
    let after = skip_balanced(toks, j, '{', '}');
    let body_end = after.saturating_sub(1);
    let mut fns = Vec::new();
    let mut k = j + 1;
    while k < body_end {
        if is_ident(&toks[k], "fn") {
            if let Some((f, next)) = parse_fn(toks, k) {
                fns.push(f);
                k = next;
                continue;
            }
        }
        k += 1;
    }
    Some((ImplDef { trait_name, type_name, fns }, after))
}
