//! Token-level scanner for the workspace linter.
//!
//! Hand-rolled — the workspace builds offline, so no `syn`/`proc-macro2`.
//! Produces a flat token stream with 1-based line numbers, strips comments,
//! and captures `// lint: exempt(<lint>, <reason>)` directives on the way
//! through. String literals become single tokens, so later passes can track
//! brace/paren depth without worrying about quoted delimiters.

/// What a [`Token`] is. Only the distinctions the lints need survive:
/// identifiers (field/type references), string literals (JSON keys) and
/// punctuation (delimiter matching).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (raw text between the quotes, escapes unresolved).
    Str(String),
    /// Single punctuation character.
    Punct(char),
    /// Numeric or char literal.
    Num,
    /// Lifetime such as `'a` (name unused by any lint).
    Lifetime,
}

/// One token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token payload.
    pub kind: TokKind,
    /// 1-based source line of the token's first character.
    pub line: usize,
}

/// An in-source exemption directive:
/// `// lint: exempt(<lint>, <reason>)` or
/// `// lint: exempt-file(<lint>, <reason>)`.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the directive comment starts on.
    pub line: usize,
    /// `exempt-file` — the exemption covers the whole file.
    pub file_level: bool,
    /// Lint name the exemption targets.
    pub lint: String,
    /// Human justification; must be non-empty (enforced by the engine).
    pub reason: String,
    /// Set when the directive could not be parsed; the engine reports it.
    pub malformed: Option<String>,
}

impl Directive {
    fn malformed(line: usize, msg: &str) -> Directive {
        Directive {
            line,
            file_level: false,
            lint: String::new(),
            reason: String::new(),
            malformed: Some(msg.to_string()),
        }
    }
}

/// A `// lint: json-reader(<Type>)` declaration: the next function consumes
/// JSON produced by `<Type>`'s `to_json`, so every key it `get`s must be
/// emitted by that writer — even when the writer lives in another crate.
#[derive(Debug, Clone)]
pub struct ReaderDecl {
    /// 1-based line the declaration comment starts on.
    pub line: usize,
    /// Writer type whose emitted keys bound the reader.
    pub target: String,
}

/// Result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order (lines are non-decreasing).
    pub tokens: Vec<Token>,
    /// Exemption directives found in comments, in source order.
    pub directives: Vec<Directive>,
    /// `json-reader` declarations found in comments, in source order.
    pub readers: Vec<ReaderDecl>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens plus exemption directives.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut line_of = Vec::with_capacity(n);
    let mut line = 1usize;
    for &c in &chars {
        line_of.push(line);
        if c == '\n' {
            line += 1;
        }
    }

    let mut out = Lexed::default();
    let mut i = 0usize;
    while i < n {
        let c = chars[i];
        let ln = line_of[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments; line comments may carry directives.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            let body: String = chars[start..j].iter().collect();
            match parse_directive(&body, ln) {
                Some(ParsedComment::Exempt(d)) => out.directives.push(d),
                Some(ParsedComment::Reader(r)) => out.readers.push(r),
                None => {}
            }
            i = j;
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            // Block comments nest in Rust.
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Prefixed literals and raw identifiers: r"", r#""#, b"", br"", b'', r#ident.
        if c == 'r' || c == 'b' {
            if let Some((tok, next)) = lex_prefixed(&chars, i, ln) {
                out.tokens.push(tok);
                i = next;
                continue;
            }
        }
        if c == '"' {
            let (text, next) = lex_string(&chars, i + 1);
            out.tokens.push(Token { kind: TokKind::Str(text), line: ln });
            i = next;
            continue;
        }
        if c == '\'' {
            // Char literal or lifetime.
            if i + 1 < n && chars[i + 1] == '\\' {
                let mut j = i + 2;
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
                out.tokens.push(Token { kind: TokKind::Num, line: ln });
                i = j + 1;
                continue;
            }
            if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
                out.tokens.push(Token { kind: TokKind::Num, line: ln });
                i += 3;
                continue;
            }
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            out.tokens.push(Token { kind: TokKind::Lifetime, line: ln });
            i = j;
            continue;
        }
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            let name: String = chars[i..j].iter().collect();
            out.tokens.push(Token { kind: TokKind::Ident(name), line: ln });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (is_ident_continue(chars[j])) {
                j += 1;
            }
            if j + 1 < n && chars[j] == '.' && chars[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
            }
            out.tokens.push(Token { kind: TokKind::Num, line: ln });
            i = j;
            continue;
        }
        out.tokens.push(Token { kind: TokKind::Punct(c), line: ln });
        i += 1;
    }
    out
}

/// Lexes a normal (escaped) string body starting just after the opening
/// quote; returns the raw inner text and the index after the closing quote.
fn lex_string(chars: &[char], mut j: usize) -> (String, usize) {
    let n = chars.len();
    let mut text = String::new();
    while j < n {
        if chars[j] == '\\' && j + 1 < n {
            text.push(chars[j]);
            text.push(chars[j + 1]);
            j += 2;
        } else if chars[j] == '"' {
            return (text, j + 1);
        } else {
            text.push(chars[j]);
            j += 1;
        }
    }
    (text, j)
}

/// Tries to lex an `r`/`b`-prefixed literal (raw string, byte string, byte
/// char) or a raw identifier at `i`. Returns `None` when `chars[i]` is just
/// the start of an ordinary identifier.
fn lex_prefixed(chars: &[char], i: usize, ln: usize) -> Option<(Token, usize)> {
    let n = chars.len();
    let mut j = i;
    let mut raw = false;
    if chars[j] == 'b' {
        j += 1;
        if j < n && chars[j] == 'r' {
            raw = true;
            j += 1;
        }
    } else {
        // chars[i] == 'r'
        raw = true;
        j += 1;
    }
    if j >= n {
        return None;
    }
    // Byte char: b'x' / b'\n'.
    if !raw && chars[j] == '\'' {
        let mut k = j + 1;
        if k < n && chars[k] == '\\' {
            k += 1;
        }
        while k < n && chars[k] != '\'' {
            k += 1;
        }
        return Some((Token { kind: TokKind::Num, line: ln }, k + 1));
    }
    if raw && chars[j] == '#' {
        let mut hashes = 0usize;
        while j + hashes < n && chars[j + hashes] == '#' {
            hashes += 1;
        }
        if j + hashes < n && chars[j + hashes] == '"' {
            // Raw string with hashes: ends at `"` followed by `hashes` #s.
            let mut k = j + hashes + 1;
            let start = k;
            while k < n {
                if chars[k] == '"'
                    && chars[k + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
                {
                    let text: String = chars[start..k].iter().collect();
                    return Some((Token { kind: TokKind::Str(text), line: ln }, k + 1 + hashes));
                }
                k += 1;
            }
            return Some((Token { kind: TokKind::Str(String::new()), line: ln }, n));
        }
        // Raw identifier: r#ident (only with a single leading r).
        if chars[i] == 'r' && hashes == 1 && j + 1 < n && is_ident_start(chars[j + 1]) {
            let mut k = j + 1;
            while k < n && is_ident_continue(chars[k]) {
                k += 1;
            }
            let name: String = chars[j + 1..k].iter().collect();
            return Some((Token { kind: TokKind::Ident(name), line: ln }, k));
        }
        return None;
    }
    if chars[j] == '"' {
        if raw {
            // Raw string without hashes: no escapes, ends at next quote.
            let mut k = j + 1;
            let start = k;
            while k < n && chars[k] != '"' {
                k += 1;
            }
            let text: String = chars[start..k].iter().collect();
            return Some((Token { kind: TokKind::Str(text), line: ln }, k + 1));
        }
        let (text, next) = lex_string(chars, j + 1);
        return Some((Token { kind: TokKind::Str(text), line: ln }, next));
    }
    None
}

/// A recognised `lint:` comment: an exemption (possibly malformed, so the
/// engine can report it) or a `json-reader` declaration.
enum ParsedComment {
    Exempt(Directive),
    Reader(ReaderDecl),
}

/// Parses a lint directive out of a line-comment body (the text after
/// `//`). Returns `None` for ordinary comments; malformed `lint:` directives
/// come back with [`Directive::malformed`] set so the engine can report them.
fn parse_directive(body: &str, line: usize) -> Option<ParsedComment> {
    let t = body.trim_start_matches(['/', '!']).trim_start();
    let rest = t.strip_prefix("lint:")?.trim();
    if let Some(r) = rest.strip_prefix("json-reader") {
        let r = r.trim_start();
        let target = r
            .strip_prefix('(')
            .and_then(|r| r.split_once(')'))
            .map(|(inner, _)| inner.trim())
            .filter(|t| !t.is_empty() && t.chars().all(|c| c.is_alphanumeric() || c == '_'));
        return Some(match target {
            Some(t) => ParsedComment::Reader(ReaderDecl { line, target: t.to_string() }),
            None => ParsedComment::Exempt(Directive::malformed(
                line,
                "expected `(<WriterType>)` after `json-reader`",
            )),
        });
    }
    let (file_level, rest) = if let Some(r) = rest.strip_prefix("exempt-file") {
        (true, r.trim_start())
    } else if let Some(r) = rest.strip_prefix("exempt") {
        (false, r.trim_start())
    } else {
        return Some(ParsedComment::Exempt(Directive::malformed(
            line,
            "unknown `lint:` directive (expected `exempt(<lint>, <reason>)`, `exempt-file(...)` \
             or `json-reader(<Type>)`)",
        )));
    };
    let Some(after_paren) = rest.strip_prefix('(') else {
        return Some(ParsedComment::Exempt(Directive::malformed(
            line,
            "expected `(<lint>, <reason>)` after `exempt`",
        )));
    };
    let Some(end) = after_paren.rfind(')') else {
        return Some(ParsedComment::Exempt(Directive::malformed(
            line,
            "unclosed `(` in exemption directive",
        )));
    };
    let inner = &after_paren[..end];
    let Some((lint, reason)) = inner.split_once(',') else {
        return Some(ParsedComment::Exempt(Directive::malformed(
            line,
            "expected `, <reason>` after the lint name",
        )));
    };
    Some(ParsedComment::Exempt(Directive {
        line,
        file_level,
        lint: lint.trim().to_string(),
        reason: reason.trim().to_string(),
        malformed: None,
    }))
}
