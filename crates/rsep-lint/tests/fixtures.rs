//! Fixture corpus: each lint demonstrated on a known-bad snippet with the
//! exact `file:line: lint-name: message` output pinned, plus the
//! exempted-good twin that must come back clean.

use std::path::Path;

use rsep_lint::{lint_sources_with_root, SourceFile, Tree};

fn read_fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints fixture files under the given crate name and returns the rendered
/// non-exempt diagnostics. `proven-by` paths resolve against the crate
/// directory, so fixtures can cite sibling fixtures.
fn run_many(names: &[&str], crate_name: &str) -> Vec<String> {
    let files = names
        .iter()
        .map(|name| SourceFile {
            path: format!("fixtures/{name}"),
            crate_name: crate_name.to_string(),
            tree: Tree::Src,
            text: read_fixture(name),
        })
        .collect();
    lint_sources_with_root(files, Some(Path::new(env!("CARGO_MANIFEST_DIR"))))
        .iter()
        .filter(|f| !f.exempted)
        .map(|f| f.diag.to_string())
        .collect()
}

fn run(name: &str, crate_name: &str) -> Vec<String> {
    run_many(&[name], crate_name)
}

#[test]
fn fingerprint_bad_pins_the_diagnostic() {
    assert_eq!(
        run("fingerprint_bad.rs", "fixture"),
        ["fixtures/fingerprint_bad.rs:5: fingerprint-coverage: field `depth` of `Knobs` is not \
          referenced in its `fingerprint()` body"]
    );
}

#[test]
fn fingerprint_exempted_twin_is_clean() {
    assert_eq!(run("fingerprint_exempt.rs", "fixture"), [] as [&str; 0]);
}

#[test]
fn merge_bad_pins_both_diagnostics() {
    assert_eq!(
        run("merge_bad.rs", "fixture"),
        [
            "fixtures/merge_bad.rs:6: merge-coverage: field `flushes` of `SimStats` does not \
             appear in its `merge()`",
            "fixtures/merge_bad.rs:15: merge-coverage: `CacheStats` is in the stats family but \
             has no `merge()`",
        ]
    );
}

#[test]
fn merge_exempted_twin_is_clean() {
    assert_eq!(run("merge_exempt.rs", "fixture"), [] as [&str; 0]);
}

#[test]
fn json_bad_pins_all_three_diagnostics() {
    assert_eq!(
        run("json_bad.rs", "fixture"),
        [
            "fixtures/json_bad.rs:6: json-roundtrip: key \"written\" is emitted by `Report`'s \
             to_json but never read by its from_json",
            "fixtures/json_bad.rs:10: json-roundtrip: key \"ghost\" is read by `Report`'s \
             from_json but never emitted by its to_json",
            "fixtures/json_bad.rs:19: json-roundtrip: key \"extra\" is read by `stats`'s \
             from_json but never emitted by its to_json",
        ]
    );
}

#[test]
fn json_exempted_twin_is_clean() {
    assert_eq!(run("json_exempt.rs", "fixture"), [] as [&str; 0]);
}

#[test]
fn bin_bad_pins_both_asymmetries() {
    // `F_GHOST` (writer-only) anchors at the decoder; `END_MARK`
    // (reader-only) anchors at the encoder. The lone `encode_orphan` with
    // no decode partner is skipped.
    assert_eq!(
        run("bin_bad.rs", "fixture"),
        [
            "fixtures/bin_bad.rs:9: bin-roundtrip: `decode_rec` uses layout constant \
             `END_MARK` but `encode_rec` never references it",
            "fixtures/bin_bad.rs:13: bin-roundtrip: `encode_rec` uses layout constant \
             `F_GHOST` but `decode_rec` never references it",
        ]
    );
}

#[test]
fn bin_exempted_twin_is_clean() {
    assert_eq!(run("bin_exempt.rs", "fixture"), [] as [&str; 0]);
}

#[test]
fn json_pairing_crosses_file_boundaries() {
    // Writer and reader live in different files of different crates; the
    // pairing must still find the `written`/`ghost` mismatches (the old
    // per-file pairing stopped at the file boundary and saw nothing).
    let writer = "impl Report {\n\
                  \x20   pub fn to_json(&self) -> Json {\n\
                  \x20       obj(&[(\"cycles\", self.cycles), (\"written\", self.written)])\n\
                  \x20   }\n\
                  }\n";
    let reader = "impl Report {\n\
                  \x20   pub fn from_json(json: &Json) -> Report {\n\
                  \x20       Report { cycles: get(json, \"cycles\"), ghost: get(json, \"ghost\") }\n\
                  \x20   }\n\
                  }\n";
    let files = vec![
        SourceFile {
            path: "a/writer.rs".to_string(),
            crate_name: "crate-a".to_string(),
            tree: Tree::Src,
            text: writer.to_string(),
        },
        SourceFile {
            path: "b/reader.rs".to_string(),
            crate_name: "crate-b".to_string(),
            tree: Tree::Src,
            text: reader.to_string(),
        },
    ];
    let diags: Vec<String> = lint_sources_with_root(files, None)
        .iter()
        .filter(|f| !f.exempted)
        .map(|f| f.diag.to_string())
        .collect();
    assert_eq!(
        diags,
        [
            "a/writer.rs:3: json-roundtrip: key \"written\" is emitted by `Report`'s to_json \
             but never read by its from_json",
            "b/reader.rs:3: json-roundtrip: key \"ghost\" is read by `Report`'s from_json but \
             never emitted by its to_json",
        ]
    );
}

#[test]
fn json_reader_bad_pins_the_unknown_key() {
    assert_eq!(
        run("json_reader_bad.rs", "fixture"),
        ["fixtures/json_reader_bad.rs:18: json-roundtrip: key \"gamma\" is read by `check` \
          (json-reader of `Rec`) but never emitted by `Rec`'s to_json"]
    );
}

#[test]
fn json_reader_without_a_writer_is_a_hygiene_finding() {
    let text = "// lint: json-reader(NoSuchRecord)\n\
                pub fn check(map: &Map) -> u64 {\n    map.get(\"alpha\").copied().unwrap_or(0)\n}\n";
    let diags: Vec<String> = lint_sources_with_root(
        vec![SourceFile {
            path: "inline.rs".to_string(),
            crate_name: "fixture".to_string(),
            tree: Tree::Src,
            text: text.to_string(),
        }],
        None,
    )
    .iter()
    .map(|f| f.diag.to_string())
    .collect();
    assert_eq!(
        diags,
        ["inline.rs:1: exemption: json-reader names `NoSuchRecord` but no `NoSuchRecord` \
          to_json writer exists in the workspace"]
    );
}

#[test]
fn obs_bad_flags_only_the_ungated_reference() {
    assert_eq!(
        run("obs_bad.rs", "rsep-uarch"),
        ["fixtures/obs_bad.rs:8: obs-gate: `StageAttribution` referenced outside `obs!` / \
          `#[cfg(feature = \"obs\")]`"]
    );
}

#[test]
fn obs_exempted_twin_is_clean() {
    assert_eq!(run("obs_exempt.rs", "rsep-uarch"), [] as [&str; 0]);
}

#[test]
fn obs_gate_is_scoped_to_rsep_uarch() {
    // The identical bad source is fine in any other crate.
    assert_eq!(run("obs_bad.rs", "rsep-campaign"), [] as [&str; 0]);
}

#[test]
fn determinism_bad_pins_all_four_diagnostics() {
    assert_eq!(
        run("determinism_bad.rs", "fixture"),
        [
            "fixtures/determinism_bad.rs:3: determinism: `HashMap` has nondeterministic \
             iteration order; use an ordered structure or exempt with a justification",
            "fixtures/determinism_bad.rs:7: determinism: `Instant::now()` reads the wall clock; \
             results must not depend on it",
            "fixtures/determinism_bad.rs:8: determinism: `HashMap` has nondeterministic \
             iteration order; use an ordered structure or exempt with a justification",
            "fixtures/determinism_bad.rs:14: determinism: `SystemTime::now()` reads the wall \
             clock; results must not depend on it",
        ]
    );
}

#[test]
fn determinism_exempted_twin_is_clean() {
    // Also proves `#[cfg(test)]` modules are out of scope: the fixture's
    // test module uses HashSet and Instant::now with no exemption.
    assert_eq!(run("determinism_exempt.rs", "fixture"), [] as [&str; 0]);
}

#[test]
fn determinism_alias_pins_the_renamed_sources() {
    assert_eq!(
        run("determinism_alias.rs", "fixture"),
        [
            "fixtures/determinism_alias.rs:4: determinism: `HashMap` has nondeterministic \
             iteration order; use an ordered structure or exempt with a justification",
            "fixtures/determinism_alias.rs:8: determinism: `Clock::now()` (alias of \
             `Instant::now()`) reads the wall clock; results must not depend on it",
            "fixtures/determinism_alias.rs:9: determinism: `Map` (alias of `HashMap`) has \
             nondeterministic iteration order; use an ordered structure or exempt with a \
             justification",
        ]
    );
}

#[test]
fn exclusion_audit_bad_pins_all_three_broken_proofs() {
    assert_eq!(
        run("exclusion_audit_bad.rs", "fixture"),
        [
            "fixtures/exclusion_audit_bad.rs:6: fingerprint-exclusion-audit: \
             fingerprint-coverage exemption must cite the equivalence test proving the \
             exclusion safe: append `; proven-by <file>` to the reason",
            "fixtures/exclusion_audit_bad.rs:8: fingerprint-exclusion-audit: equivalence test \
             `fixtures/no_such_proof.rs` cited by proven-by does not exist",
            "fixtures/exclusion_audit_bad.rs:10: fingerprint-exclusion-audit: equivalence test \
             `fixtures/audit_proof.rs` does not reference the excluded field `hue`",
        ]
    );
}

#[test]
fn dead_pub_bad_pins_the_orphans() {
    assert_eq!(
        run_many(&["dead_pub_bad.rs", "dead_pub_user.rs"], "fixture"),
        [
            "fixtures/dead_pub_bad.rs:9: dead-pub-api: pub fn `orphan_helper` is not \
             referenced outside its defining file by any workspace compilation unit",
            "fixtures/dead_pub_bad.rs:13: dead-pub-api: pub struct `OrphanConfig` is not \
             referenced outside its defining file by any workspace compilation unit",
        ]
    );
}

#[test]
fn exemption_hygiene_violations_are_findings() {
    assert_eq!(
        run("exemption_bad.rs", "fixture"),
        [
            "fixtures/exemption_bad.rs:4: exemption: exemption for `determinism` must carry a \
             non-empty reason",
            "fixtures/exemption_bad.rs:5: exemption: exemption names unknown lint `made-up-lint`",
            "fixtures/exemption_bad.rs:6: exemption: exemption for `determinism` does not \
             suppress any finding",
            "fixtures/exemption_bad.rs:7: exemption: expected `(<lint>, <reason>)` after \
             `exempt`",
            "fixtures/exemption_bad.rs:8: exemption: unclosed `(` in exemption directive",
            "fixtures/exemption_bad.rs:9: exemption: unknown `lint:` directive (expected \
             `exempt(<lint>, <reason>)`, `exempt-file(...)` or `json-reader(<Type>)`)",
        ]
    );
}

#[test]
fn exempt_file_covers_the_whole_file() {
    let text = "use std::collections::HashMap;\n\
                // lint: exempt-file(determinism, fixture-wide justification)\n\
                pub fn build() -> HashMap<u64, u64> {\n    HashMap::new()\n}\n";
    let findings = lint_sources_with_root(
        vec![SourceFile {
            path: "inline.rs".to_string(),
            crate_name: "fixture".to_string(),
            tree: Tree::Src,
            text: text.to_string(),
        }],
        None,
    );
    assert!(findings.iter().all(|f| f.exempted), "{findings:?}");
    // The exempted findings stay visible to `--json` consumers.
    assert_eq!(findings.iter().filter(|f| f.exempted).count(), 3);
}

#[test]
fn tests_tree_skips_coverage_lints_but_keeps_determinism() {
    // The fingerprint fixture is fine as an integration test (coverage
    // lints bind library code only)...
    let files = vec![SourceFile {
        path: "tests/fp.rs".to_string(),
        crate_name: "fixture".to_string(),
        tree: Tree::Tests,
        text: read_fixture("fingerprint_bad.rs"),
    }];
    assert!(lint_sources_with_root(files, None).is_empty());
    // ...but nondeterminism is flagged in every tree.
    let files = vec![SourceFile {
        path: "tests/det.rs".to_string(),
        crate_name: "fixture".to_string(),
        tree: Tree::Tests,
        text: read_fixture("determinism_bad.rs"),
    }];
    let diags = lint_sources_with_root(files, None);
    assert_eq!(diags.iter().filter(|f| f.diag.lint == "determinism").count(), 4, "{diags:?}");
}
