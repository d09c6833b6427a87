//! `rsep-lint` — workspace invariant linter.
//!
//! The equivalence-proof discipline of this repo rests on a few coverage
//! invariants that neither `rustc` nor `clippy` can see: every
//! hand-rolled `to_json` key read back by `from_json` (across crates),
//! both halves of a binary codec agreeing on their layout constants,
//! attribution code kept behind the `obs` gate, and no `pub` item that no
//! other compilation unit uses.
//!
//! The linter runs in two passes. Pass 1 lexes and parses every scanned
//! file (no `syn`, no dependencies — a token-level scanner) and builds a
//! workspace [symbol graph](graph::Graph): every struct/enum/trait/fn/const
//! with its crate, file, line, visibility and `#[cfg]`/`obs!` gate, plus
//! every identifier reference resolved by name across all crates. Pass 2
//! runs the lints — the per-file checks plus the cross-file queries
//! (`dead-pub-api` and the cross-crate half of `json-roundtrip`).
//!
//! A bug class that the compiler or a runtime test already catches gets no
//! lint of its own:
//!
//! - every manual [`Fingerprint`] impl and every stats `merge()` opens
//!   with an exhaustive `let Self { .. } = self;` (or `= other;`), so a
//!   new field is a compile error until it is bound, and a bound field
//!   that is never hashed or merged is an `unused variable` warning, which
//!   `cargo clippy -- -D warnings` rejects;
//! - the root `clippy.toml` disallows `HashMap`, `HashSet`,
//!   `Instant::now` and `SystemTime::now`; each justified use carries an
//!   `#[expect(clippy::disallowed_types | clippy::disallowed_methods,
//!   reason = ...)]`, and an expectation that no longer suppresses
//!   anything is itself a warning;
//! - a non-`obs` build that references an `obs`-only symbol fails
//!   `cargo build`, and the packed predictor words are pinned by their
//!   `entry_packing_round_trips` unit tests.
//!
//! Deliberate exclusions are declared in-source:
//!
//! ```text
//! // lint: exempt(<lint>, <reason>)        — covers this line and the next item's line
//! // lint: exempt-file(<lint>, <reason>)   — covers the whole file
//! // lint: json-reader(<Type>)             — next fn's get("...") keys must be
//! //                                         emitted by <Type>'s to_json
//! ```
//!
//! Empty reasons, unknown lint names, malformed directives and exemptions
//! that no longer suppress anything are themselves findings (lint name
//! `exemption`), so the exemption inventory can never rot.
//!
//! [`Fingerprint`]: ../rsep_isa/fingerprint/trait.Fingerprint.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parse;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{Directive, ReaderDecl, Token};
use parse::ParsedFile;

/// The four enforced lints, in diagnostic-name form.
pub const LINT_NAMES: [&str; 4] = ["bin-roundtrip", "dead-pub-api", "json-roundtrip", "obs-gate"];

/// Lint name under which exemption-hygiene findings are reported. Not
/// exemptable itself.
pub const EXEMPTION_LINT: &str = "exemption";

/// One finding, rendered as `file:line: lint-name: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Display path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name ([`LINT_NAMES`] or [`EXEMPTION_LINT`]).
    pub lint: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(file: &str, line: usize, lint: &str, message: String) -> Diagnostic {
        Diagnostic { file: file.to_string(), line, lint: lint.to_string(), message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.lint, self.message)
    }
}

/// A diagnostic plus whether an exemption suppressed it. Exempted findings
/// are kept (for `--json` and exemption-inventory tooling) but do not fail
/// the lint run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The diagnostic.
    pub diag: Diagnostic,
    /// Suppressed by a well-formed `// lint: exempt(...)` directive.
    pub exempted: bool,
}

/// Which source tree a file came from; decides which lints apply. The
/// codec invariants (json/bin) bind library code only; exemption hygiene
/// and the symbol-graph reference scan run everywhere, so a bench or test
/// referencing a pub item keeps it alive for `dead-pub-api`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// `src/` of a crate (library or binary code).
    Src,
    /// `tests/` integration tests.
    Tests,
    /// `benches/` benchmarks.
    Benches,
    /// `examples/`.
    Examples,
}

/// One source file handed to the linter.
#[derive(Debug)]
pub struct SourceFile {
    /// Display path used in diagnostics (workspace-relative in CLI runs).
    pub path: String,
    /// Owning crate's directory name (scopes the `obs-gate` lint).
    pub crate_name: String,
    /// Source tree the file belongs to.
    pub tree: Tree,
    /// Full source text.
    pub text: String,
}

/// A lexed and parsed source file, as consumed by the lint passes.
#[derive(Debug)]
pub struct Unit {
    /// Display path used in diagnostics.
    pub path: String,
    /// Owning crate's directory name.
    pub crate_name: String,
    /// Source tree the file belongs to.
    pub tree: Tree,
    /// Compilation-unit key: `crate:<name>` for a crate's library tree,
    /// `file:<path>` for binaries, tests, benches and examples (each is its
    /// own unit). `dead-pub-api` counts references across these keys.
    pub unit_key: String,
    /// Flat token stream (lines non-decreasing).
    pub tokens: Vec<Token>,
    /// Exemption directives, in source order.
    pub directives: Vec<Directive>,
    /// `json-reader(<Type>)` declarations, in source order.
    pub readers: Vec<ReaderDecl>,
    /// Items and gated spans.
    pub parsed: ParsedFile,
}

fn unit_key(tree: Tree, crate_name: &str, path: &str) -> String {
    let lib_tree = tree == Tree::Src && !path.contains("/src/bin/") && !path.ends_with("/main.rs");
    if lib_tree {
        format!("crate:{crate_name}")
    } else {
        format!("file:{path}")
    }
}

/// Lints a set of in-memory sources and returns all findings, exempted
/// ones included, sorted by `(file, line, lint, message)`. Findings inside
/// `#[cfg(test)]` spans are dropped; findings matched by a well-formed
/// exemption are kept with `exempted = true`; exemption-hygiene problems
/// are appended as `exemption` findings.
pub fn lint_sources(files: Vec<SourceFile>) -> Vec<Finding> {
    let units: Vec<Unit> = files
        .into_iter()
        .map(|f| {
            let lexed = lexer::lex(&f.text);
            let parsed = parse::parse_file(&lexed.tokens);
            let key = unit_key(f.tree, &f.crate_name, &f.path);
            Unit {
                path: f.path,
                crate_name: f.crate_name,
                tree: f.tree,
                unit_key: key,
                tokens: lexed.tokens,
                directives: lexed.directives,
                readers: lexed.readers,
                parsed,
            }
        })
        .collect();

    let mut raw: Vec<Diagnostic> = Vec::new();
    raw.extend(lints::json_roundtrip(&units));
    raw.extend(lints::json_reader_checks(&units));
    raw.extend(lints::bin_roundtrip(&units));
    raw.extend(lints::obs_gate(&units));
    let g = graph::Graph::build(&units);
    // With a single compilation unit there is no possible external
    // consumer, so dead-pub-api would flag everything `pub`; it only means
    // something over a multi-unit workspace.
    if units.len() >= 2 {
        raw.extend(lints::dead_pub_api(&units, &g));
    }

    let by_path: BTreeMap<&str, usize> =
        units.iter().enumerate().map(|(i, u)| (u.path.as_str(), i)).collect();
    // For each directive: the line it is on plus the line of the next token
    // after it (the item the comment annotates).
    let covered: Vec<Vec<(usize, Option<usize>)>> = units
        .iter()
        .map(|u| {
            u.directives
                .iter()
                .map(|d| {
                    let split = u.tokens.partition_point(|t| t.line <= d.line);
                    (d.line, u.tokens.get(split).map(|t| t.line))
                })
                .collect()
        })
        .collect();
    let mut used: Vec<Vec<bool>> = units.iter().map(|u| vec![false; u.directives.len()]).collect();

    let mut kept: Vec<Finding> = Vec::new();
    for d in raw {
        let Some(&ui) = by_path.get(d.file.as_str()) else {
            kept.push(Finding { diag: d, exempted: false });
            continue;
        };
        let u = &units[ui];
        if u.parsed.test_lines.iter().any(|&(a, b)| a <= d.line && d.line <= b) {
            continue;
        }
        let mut suppressed = false;
        for (di, dir) in u.directives.iter().enumerate() {
            if dir.malformed.is_some()
                || dir.reason.is_empty()
                || !LINT_NAMES.contains(&dir.lint.as_str())
                || dir.lint != d.lint
            {
                continue;
            }
            let (own, next) = covered[ui][di];
            if dir.file_level || d.line == own || Some(d.line) == next {
                used[ui][di] = true;
                suppressed = true;
                break;
            }
        }
        kept.push(Finding { diag: d, exempted: suppressed });
    }

    // Exemption hygiene: malformed, unknown lint, empty reason, unused.
    for (ui, u) in units.iter().enumerate() {
        for (di, dir) in u.directives.iter().enumerate() {
            let in_tests = u.parsed.test_lines.iter().any(|&(a, b)| a <= dir.line && dir.line <= b);
            if in_tests {
                continue;
            }
            let diag = if let Some(msg) = &dir.malformed {
                Some(Diagnostic::new(&u.path, dir.line, EXEMPTION_LINT, msg.clone()))
            } else if !LINT_NAMES.contains(&dir.lint.as_str()) {
                Some(Diagnostic::new(
                    &u.path,
                    dir.line,
                    EXEMPTION_LINT,
                    format!("exemption names unknown lint `{}`", dir.lint),
                ))
            } else if dir.reason.is_empty() {
                Some(Diagnostic::new(
                    &u.path,
                    dir.line,
                    EXEMPTION_LINT,
                    format!("exemption for `{}` must carry a non-empty reason", dir.lint),
                ))
            } else if !used[ui][di] {
                Some(Diagnostic::new(
                    &u.path,
                    dir.line,
                    EXEMPTION_LINT,
                    format!("exemption for `{}` does not suppress any finding", dir.lint),
                ))
            } else {
                None
            };
            if let Some(d) = diag {
                kept.push(Finding { diag: d, exempted: false });
            }
        }
    }

    kept.sort();
    kept.dedup();
    kept
}

/// Lints the workspace under `root` and returns all findings (exempted ones
/// included) plus the number of files scanned. Scans `crates/*/{src,tests,
/// benches,examples}`; fixture directories are outside all of these and
/// therefore never scanned.
pub fn lint_workspace(root: &Path) -> Result<(Vec<Finding>, usize), String> {
    const TREES: [(&str, Tree); 4] = [
        ("src", Tree::Src),
        ("tests", Tree::Tests),
        ("benches", Tree::Benches),
        ("examples", Tree::Examples),
    ];
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for cdir in &crate_dirs {
        let crate_name =
            cdir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        for (sub, tree) in TREES {
            let dir = cdir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut paths = Vec::new();
            collect_rs(&dir, &mut paths)?;
            paths.sort();
            for p in paths {
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
                let display = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(SourceFile {
                    path: display,
                    crate_name: crate_name.clone(),
                    tree,
                    text,
                });
            }
        }
    }
    if files.is_empty() {
        return Err(format!("no source files under {}", root.display()));
    }
    let count = files.len();
    Ok((lint_sources(files), count))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|ext| ext == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
