//! Self-application: the shipped workspace lints clean, and deliberate
//! mutations of real invariant-bearing code are caught. The mutations are
//! the in-tree version of the CI demos: deleting a `fingerprint()` field
//! reference and stripping an exclusion proof — each must fail the gate at
//! the exact expected `file:line`.

use std::path::Path;

use rsep_lint::{lint_sources_with_root, lint_workspace, SourceFile, Tree};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn shipped_workspace_is_clean() {
    let (diags, scanned) = lint_workspace(workspace_root()).expect("workspace walk");
    assert!(scanned > 50, "suspiciously few files scanned: {scanned}");
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "rsep-lint findings on the shipped tree:\n{}",
        rendered.join("\n")
    );
}

/// Lints real workspace files (optionally mutated) as one in-memory set,
/// resolving `proven-by` citations against the real workspace root.
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
    lint_sources_with_root(files, Some(workspace_root()))
        .iter()
        .filter(|f| !f.exempted)
        .map(|f| f.diag.to_string())
        .collect()
}

fn lint_one(rel: &str, crate_name: &str, text: String) -> Vec<String> {
    lint_set(vec![(rel, crate_name, text)])
}

fn read_workspace_file(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Removes the unique line containing `needle`, panicking if absent (the
/// mutation must actually mutate).
fn delete_line(text: &str, needle: &str) -> String {
    let mut found = false;
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            let hit = l.contains(needle);
            found |= hit;
            !hit
        })
        .collect();
    assert!(found, "mutation target `{needle}` not found");
    kept.join("\n") + "\n"
}

/// 1-based line of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> usize {
    text.lines().position(|l| l.contains(needle)).expect(needle) + 1
}

#[test]
fn deleting_a_fingerprint_field_reference_is_caught() {
    let rel = "crates/rsep-uarch/src/config.rs";
    let original = read_workspace_file(rel);
    assert_eq!(lint_one(rel, "rsep-uarch", original.clone()), [] as [&str; 0]);

    let mutated = delete_line(&original, "self.dram_latency.fingerprint(h);");
    let field_line = line_of(&mutated, "pub dram_latency:");
    assert_eq!(
        lint_one(rel, "rsep-uarch", mutated),
        [format!(
            "{rel}:{field_line}: fingerprint-coverage: field `dram_latency` of `CoreConfig` is \
             not referenced in its `fingerprint()` body"
        )]
    );
}

#[test]
fn deleting_a_merge_statement_is_caught() {
    let rel = "crates/rsep-uarch/src/stats.rs";
    let original = read_workspace_file(rel);
    assert_eq!(lint_one(rel, "rsep-uarch", original.clone()), [] as [&str; 0]);

    let mutated = delete_line(&original, "self.stlf_forwards += other.stlf_forwards;");
    let field_line = line_of(&mutated, "pub stlf_forwards:");
    assert_eq!(
        lint_one(rel, "rsep-uarch", mutated),
        [format!(
            "{rel}:{field_line}: merge-coverage: field `stlf_forwards` of `SimStats` does not \
             appear in its `merge()`"
        )]
    );
}

#[test]
fn blanking_an_exemption_reason_is_caught() {
    let rel = "crates/rsep-core/src/config.rs";
    let original = read_workspace_file(rel);
    let needle = "// lint: exempt(fingerprint-coverage, presentation-only; cached cells must \
                  be label-invariant; proven-by crates/rsep-campaign/tests/store.rs)";
    assert!(original.contains(needle), "expected the label exemption in {rel}");
    let mutated = original.replace(needle, "// lint: exempt(fingerprint-coverage, )");
    let diags = lint_one(rel, "rsep-core", mutated);
    // The blanked exemption no longer suppresses, so both the hygiene
    // finding and the underlying fingerprint-coverage finding surface.
    assert_eq!(diags.len(), 2, "expected two findings, got:\n{}", diags.join("\n"));
    assert!(diags.iter().any(|d| d.contains("must carry a non-empty reason")), "{diags:?}");
    assert!(diags.iter().any(|d| d.contains("field `label` of `MechanismConfig`")), "{diags:?}");
}

#[test]
fn stripping_an_exclusion_proof_is_caught() {
    let rel = "crates/rsep-core/src/config.rs";
    let original = read_workspace_file(rel);
    let needle = "; proven-by crates/rsep-campaign/tests/store.rs)";
    assert!(original.contains(needle), "expected a proven-by clause in {rel}");
    let mutated = original.replace(needle, ")");
    let directive_line = line_of(&mutated, "// lint: exempt(fingerprint-coverage,");
    assert_eq!(
        lint_one(rel, "rsep-core", mutated),
        [format!(
            "{rel}:{directive_line}: fingerprint-exclusion-audit: fingerprint-coverage \
             exemption must cite the equivalence test proving the exclusion safe: append \
             `; proven-by <file>` to the reason"
        )]
    );
}

#[test]
fn citing_a_nonexistent_proof_is_caught() {
    let rel = "crates/rsep-core/src/config.rs";
    let original = read_workspace_file(rel);
    let mutated = original.replace(
        "proven-by crates/rsep-campaign/tests/store.rs",
        "proven-by crates/rsep-campaign/tests/gone.rs",
    );
    assert_ne!(mutated, original);
    let diags = lint_one(rel, "rsep-core", mutated);
    assert!(
        diags.iter().any(|d| d.contains(
            "`crates/rsep-campaign/tests/gone.rs` cited by \
                                         proven-by does not exist"
        )),
        "{diags:?}"
    );
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
