//! CLI for the workspace invariant linter.
//!
//! ```text
//! rsep-lint [--json] [ROOT]     # default ROOT: current directory
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/IO error. Diagnostics go
//! to stdout in `file:line: lint-name: message` form (or as a JSON array
//! with `--json`); the summary goes to stderr.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rsep-lint [--json] [ROOT]

Walks ROOT/crates/*/{src,tests,benches,examples}, builds a workspace symbol
graph, and enforces the invariants rustc and clippy cannot see:
  json-roundtrip        to_json keys are read by the paired from_json (and
                        vice versa), pairing across crates; `// lint:
                        json-reader(<Type>)` binds a one-directional reader
                        to <Type>'s to_json keys
  bin-roundtrip         an encode_<x>/decode_<x> pair references the same
                        layout constants on both sides
  obs-gate              attribution types in rsep-uarch stay behind obs! /
                        #[cfg(feature = \"obs\")]
  dead-pub-api          pub items in library trees have at least one inbound
                        reference from another workspace compilation unit

Fingerprint and merge coverage are compile errors or unused-variable
warnings (exhaustive `let Self { .. }` destructuring), and determinism is
clippy's disallowed_types/disallowed_methods (root clippy.toml).

Options:
  --json                emit findings as a JSON array of
                        {file, line, lint, message, exempted} objects
                        (exempted findings included)

Deliberate exclusions: `// lint: exempt(<lint>, <reason>)` on or above the
line, or `// lint: exempt-file(<lint>, <reason>)` for a whole file.

Exit codes: 0 clean, 1 findings, 2 usage/IO error.";

/// Escapes `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    let mut root: Option<String> = None;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            s if s.starts_with('-') => {
                eprintln!("rsep-lint: unknown option `{s}`\n{USAGE}");
                return ExitCode::from(2);
            }
            s => {
                if root.is_some() {
                    eprintln!("rsep-lint: at most one ROOT argument\n{USAGE}");
                    return ExitCode::from(2);
                }
                root = Some(s.to_string());
            }
        }
    }
    let root = root.unwrap_or_else(|| ".".to_string());
    match rsep_lint::lint_workspace(Path::new(&root)) {
        Err(e) => {
            eprintln!("rsep-lint: {e}");
            ExitCode::from(2)
        }
        Ok((findings, scanned)) => {
            let failing = findings.iter().filter(|f| !f.exempted).count();
            if json {
                let mut out = String::from("[");
                for (i, f) in findings.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \
                         \"message\": \"{}\", \"exempted\": {}}}",
                        json_escape(&f.diag.file),
                        f.diag.line,
                        json_escape(&f.diag.lint),
                        json_escape(&f.diag.message),
                        f.exempted
                    ));
                }
                out.push_str(if findings.is_empty() { "]" } else { "\n]" });
                println!("{out}");
            } else {
                for f in findings.iter().filter(|f| !f.exempted) {
                    println!("{}", f.diag);
                }
            }
            if failing == 0 {
                eprintln!("rsep-lint: clean ({scanned} files)");
                ExitCode::SUCCESS
            } else {
                eprintln!("rsep-lint: {failing} finding(s) in {scanned} files");
                ExitCode::from(1)
            }
        }
    }
}
