//! Fixture corpus: each lint demonstrated on a known-bad snippet with the
//! exact `file:line: lint-name: message` output pinned, plus the
//! exempted-good twin that must come back clean.

use rsep_lint::{lint_sources, SourceFile, Tree, EXEMPTION_LINT};

fn read_fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints fixture files under the given crate name and returns the rendered
/// non-exempt diagnostics.
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
    lint_sources(files).iter().filter(|f| !f.exempted).map(|f| f.diag.to_string()).collect()
}

fn run(name: &str, crate_name: &str) -> Vec<String> {
    run_many(&[name], crate_name)
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
    let diags: Vec<String> =
        lint_sources(files).iter().filter(|f| !f.exempted).map(|f| f.diag.to_string()).collect();
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
    let diags: Vec<String> = lint_sources(vec![SourceFile {
        path: "inline.rs".to_string(),
        crate_name: "fixture".to_string(),
        tree: Tree::Src,
        text: text.to_string(),
    }])
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
            "fixtures/exemption_bad.rs:4: exemption: exemption for `dead-pub-api` must carry a \
             non-empty reason",
            "fixtures/exemption_bad.rs:5: exemption: exemption names unknown lint `made-up-lint`",
            "fixtures/exemption_bad.rs:6: exemption: exemption for `dead-pub-api` does not \
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
    // The directive sits below the first finding: file-level exemptions
    // cover lines above them too.
    let text = "use crate::attribution::StageAttribution;\n\
                // lint: exempt-file(obs-gate, fixture-wide justification)\n\
                pub fn build() -> StageAttribution {\n    StageAttribution::default()\n}\n";
    let findings = lint_sources(vec![SourceFile {
        path: "inline.rs".to_string(),
        crate_name: "rsep-uarch".to_string(),
        tree: Tree::Src,
        text: text.to_string(),
    }]);
    assert!(findings.iter().all(|f| f.exempted), "{findings:?}");
    // The exempted findings stay visible to `--json` consumers.
    assert_eq!(findings.iter().filter(|f| f.exempted).count(), 3);
}

#[test]
fn tests_tree_skips_codec_lints_but_keeps_exemption_hygiene() {
    // The json fixture is fine as an integration test (the codec lints
    // bind library code only)...
    let files = vec![SourceFile {
        path: "tests/json.rs".to_string(),
        crate_name: "fixture".to_string(),
        tree: Tree::Tests,
        text: read_fixture("json_bad.rs"),
    }];
    assert!(lint_sources(files).is_empty());
    // ...but a broken exemption is a finding in every tree.
    let files = vec![SourceFile {
        path: "tests/exempt.rs".to_string(),
        crate_name: "fixture".to_string(),
        tree: Tree::Tests,
        text: read_fixture("exemption_bad.rs"),
    }];
    let diags = lint_sources(files);
    assert_eq!(diags.iter().filter(|f| f.diag.lint == EXEMPTION_LINT).count(), 6, "{diags:?}");
}
