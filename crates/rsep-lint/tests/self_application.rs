//! Self-application: the shipped workspace lints clean, and deliberate
//! mutations of real invariant-bearing code are caught: a blanked
//! exemption reason, a JSON key read back under the wrong name and a bench
//! gate key its writer never emits.

use std::path::Path;

use rsep_lint::{lint_sources, lint_workspace, SourceFile, Tree};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn shipped_workspace_is_clean() {
    let (findings, scanned) = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(scanned > 50, "suspiciously few files scanned: {scanned}");
    let rendered: Vec<String> =
        findings.iter().filter(|f| !f.exempted).map(|f| f.diag.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "rsep-lint findings on the shipped tree:\n{}",
        rendered.join("\n")
    );
}

/// Lints real workspace files (optionally mutated) as one in-memory set.
fn lint_set(files: Vec<(&str, &str, String)>) -> Vec<String> {
    let files = files
        .into_iter()
        .map(|(rel, crate_name, text)| SourceFile {
            path: rel.to_string(),
            crate_name: crate_name.to_string(),
            tree: Tree::Src,
            text,
        })
        .collect();
    lint_sources(files).iter().filter(|f| !f.exempted).map(|f| f.diag.to_string()).collect()
}

fn lint_one(rel: &str, crate_name: &str, text: String) -> Vec<String> {
    lint_set(vec![(rel, crate_name, text)])
}

fn read_workspace_file(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// 1-based line of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines().position(|l| l.contains(needle)).expect(needle) + 1
}

#[test]
fn blanking_an_exemption_reason_is_caught() {
    let rel = "crates/rsep-uarch/src/core.rs";
    let original = read_workspace_file(rel);
    let needle =
        "// lint: exempt(obs-gate, accessor exists in both builds; returns None without obs)";
    assert!(original.contains(needle), "expected the attribution accessor exemption in {rel}");
    let mutated = original.replacen(needle, "// lint: exempt(obs-gate, )", 1);
    let diags = lint_one(rel, "rsep-uarch", mutated);
    // The blanked exemption no longer suppresses, so both the hygiene
    // finding and the underlying obs-gate finding surface.
    assert_eq!(diags.len(), 2, "expected two findings, got:\n{}", diags.join("\n"));
    assert!(diags.iter().any(|d| d.contains("must carry a non-empty reason")), "{diags:?}");
    assert!(diags.iter().any(|d| d.contains("obs-gate: `StageAttribution`")), "{diags:?}");
}

#[test]
fn dropping_a_from_json_reader_is_caught() {
    let rel = "crates/rsep-campaign/src/store.rs";
    let original = read_workspace_file(rel);
    // Stop reading back SimStats' "cycles": the writer side now emits a key
    // the reader ignores, exactly the stale-schema bug the lint exists for.
    let needle = "\"cycles\"";
    assert!(original.contains(needle), "expected a cycles key in {rel}");
    let mutated = original.replacen("\"cycles\"", "\"cycles_renamed\"", 1);
    let diags = lint_one(rel, "rsep-campaign", mutated);
    assert!(
        diags.iter().any(|d| d.contains("json-roundtrip")),
        "expected a json-roundtrip finding, got:\n{}",
        diags.join("\n")
    );
}

#[test]
fn renaming_a_bench_gate_key_is_caught() {
    // The bench gate reads BenchRecord JSON from another crate; the
    // `json-reader(BenchRecord)` declaration pairs them. Renaming a key the
    // writer never emits must fail.
    let gate_rel = "crates/rsep-bench/src/bin/bench_gate.rs";
    let record_rel = "crates/rsep-bench/src/record.rs";
    let gate = read_workspace_file(gate_rel);
    let record = read_workspace_file(record_rel);
    let clean = lint_set(vec![
        (gate_rel, "rsep-bench", gate.clone()),
        (record_rel, "rsep-bench", record.clone()),
    ]);
    assert!(
        !clean.iter().any(|d| d.contains("json-roundtrip")),
        "unexpected json findings on the shipped pair:\n{}",
        clean.join("\n")
    );

    let needle = "get(\"results\")";
    assert!(gate.contains(needle), "expected {needle} in {gate_rel}");
    let mutated = gate.replace(needle, "get(\"result_rows\")");
    let key_line = line_of(&mutated, "get(\"result_rows\")");
    let diags =
        lint_set(vec![(gate_rel, "rsep-bench", mutated), (record_rel, "rsep-bench", record)]);
    let expected = format!(
        "{gate_rel}:{key_line}: json-roundtrip: key \"result_rows\" is read by `compare` \
         (json-reader of `BenchRecord`) but never emitted by `BenchRecord`'s to_json"
    );
    assert!(diags.contains(&expected), "expected:\n{expected}\ngot:\n{}", diags.join("\n"));
}
