//! The lint passes.
//!
//! Each pass takes the full set of lexed+parsed [`Unit`]s (cross-file,
//! because a struct and its `impl Fingerprint` may live in different files)
//! and returns raw diagnostics; the engine applies `#[cfg(test)]` filtering
//! and exemption suppression afterwards. The cross-file `dead-pub-api`
//! pass runs as a query over the [`Graph`] built in pass 1.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::graph::{Gate, Graph};
use crate::lexer::TokKind;
use crate::{Diagnostic, Tree, Unit};

/// The stats family whose `merge()` coverage is enforced: everything a
/// sharded/checkpointed campaign folds together. A field missing from
/// `merge()` silently drops data on every shard merge.
pub const STATS_FAMILY: [&str; 10] = [
    "CacheStats",
    "CoverageCounts",
    "FetchCycles",
    "IssueCycles",
    "PredictorStats",
    "RedundancyReport",
    "RenameCycles",
    "SimStats",
    "StageAttribution",
    "WorkCounts",
];

/// Attribution types that must stay behind the `obs` gate in `rsep-uarch`
/// (the zero-overhead claim of the observability layer).
pub const OBS_TYPES: [&str; 6] =
    ["FetchCycles", "IssueCycles", "RenameBlock", "RenameCycles", "StageAttribution", "WorkCounts"];

fn ident_of(kind: &TokKind) -> Option<&str> {
    match kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

/// Idents appearing in a set of body token ranges.
fn body_idents<'a>(u: &'a Unit, bodies: &[(usize, usize)]) -> BTreeSet<&'a str> {
    let mut set = BTreeSet::new();
    for &(b0, b1) in bodies {
        for t in &u.tokens[b0..b1] {
            if let Some(s) = ident_of(&t.kind) {
                set.insert(s);
            }
        }
    }
    set
}

/// **fingerprint-coverage** — every named field of a struct with a manual
/// `impl Fingerprint` must be referenced in its `fingerprint()` body. A
/// field left out of the hash means two configs that differ only in that
/// field share a `CellKey`, and the result cache serves one config's
/// numbers for the other.
pub fn fingerprint_coverage(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let struct_map = struct_index(units);
    for u in units.iter().filter(|u| u.tree == Tree::Src) {
        for im in &u.parsed.impls {
            if im.trait_name.as_deref() != Some("Fingerprint") {
                continue;
            }
            let Some(&(ui, si)) = struct_map.get(im.type_name.as_str()) else { continue };
            let Some(f) = im.fns.iter().find(|f| f.name == "fingerprint" && f.body.is_some())
            else {
                continue;
            };
            let body = body_idents(u, &[f.body.unwrap()]);
            let def_unit = &units[ui];
            let sd = &def_unit.parsed.structs[si];
            for field in &sd.fields {
                if !body.contains(field.name.as_str()) {
                    diags.push(Diagnostic::new(
                        &def_unit.path,
                        field.line,
                        "fingerprint-coverage",
                        format!(
                            "field `{}` of `{}` is not referenced in its `fingerprint()` body",
                            field.name, sd.name
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// **merge-coverage** — every field of the [`STATS_FAMILY`] must appear in
/// that type's `merge()`.
pub fn merge_coverage(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let struct_map = struct_index(units);
    for name in STATS_FAMILY {
        let Some(&(ui, si)) = struct_map.get(name) else { continue };
        let def_unit = &units[ui];
        let sd = &def_unit.parsed.structs[si];
        let mut merge_bodies: Vec<(&Unit, (usize, usize))> = Vec::new();
        for u in units.iter().filter(|u| u.tree == Tree::Src) {
            for im in &u.parsed.impls {
                if im.type_name != name {
                    continue;
                }
                for f in &im.fns {
                    if f.name == "merge" {
                        if let Some(b) = f.body {
                            merge_bodies.push((u, b));
                        }
                    }
                }
            }
        }
        if merge_bodies.is_empty() {
            diags.push(Diagnostic::new(
                &def_unit.path,
                sd.line,
                "merge-coverage",
                format!("`{name}` is in the stats family but has no `merge()`"),
            ));
            continue;
        }
        let mut idents = BTreeSet::new();
        for (u, b) in &merge_bodies {
            idents.extend(body_idents(u, &[*b]));
        }
        for field in &sd.fields {
            if !idents.contains(field.name.as_str()) {
                diags.push(Diagnostic::new(
                    &def_unit.path,
                    field.line,
                    "merge-coverage",
                    format!("field `{}` of `{name}` does not appear in its `merge()`", field.name),
                ));
            }
        }
    }
    diags
}

/// `ALL_CAPS`-with-underscore identifier: the naming shape of a binary
/// layout constant (`F_MEM`, `FORMAT_MAJOR`, `MAX_SOURCES`). Plain
/// one-word consts like `ALL` are excluded — they name tables, not wire
/// layout.
fn is_layout_const(name: &str) -> bool {
    let mut first = true;
    let mut has_underscore = false;
    for c in name.chars() {
        if first {
            if !c.is_ascii_uppercase() {
                return false;
            }
            first = false;
        } else if c == '_' {
            has_underscore = true;
        } else if !c.is_ascii_uppercase() && !c.is_ascii_digit() {
            return false;
        }
    }
    has_underscore && !name.ends_with('_') && !name.contains("__")
}

/// Layout constants referenced by one body range.
fn layout_consts(u: &Unit, body: (usize, usize)) -> BTreeSet<&str> {
    body_idents(u, &[body]).into_iter().filter(|n| is_layout_const(n)).collect()
}

/// **bin-roundtrip** — binary-codec symmetry. An `encode_<x>` /
/// `decode_<x>` free-function pair in one file is a two-sided wire codec;
/// every layout constant (an `ALL_CAPS` identifier with an underscore,
/// e.g. `F_MEM`, `FORMAT_MAJOR`) one side depends on must be referenced
/// by the other. A flag byte the writer packs but the reader never tests
/// — or a chunk id the reader skips that no writer emits — is a silently
/// skewed on-disk format that round-trip tests with matched halves cannot
/// catch. Functions with only one side present are skipped.
pub fn bin_roundtrip(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for u in units {
        if u.tree != Tree::Src {
            continue;
        }
        type Side = Option<((usize, usize), usize)>;
        let mut pairs: BTreeMap<&str, (Side, Side)> = BTreeMap::new();
        for f in &u.parsed.free_fns {
            let Some(b) = f.body else { continue };
            if let Some(p) = f.name.strip_prefix("encode_") {
                pairs.entry(p).or_default().0.get_or_insert((b, f.line));
            } else if let Some(p) = f.name.strip_prefix("decode_") {
                pairs.entry(p).or_default().1.get_or_insert((b, f.line));
            }
        }
        for (name, sides) in pairs {
            let (Some((enc, enc_line)), Some((dec, dec_line))) = sides else { continue };
            let enc_consts = layout_consts(u, enc);
            let dec_consts = layout_consts(u, dec);
            for c in enc_consts.difference(&dec_consts) {
                diags.push(Diagnostic::new(
                    &u.path,
                    dec_line,
                    "bin-roundtrip",
                    format!(
                        "`encode_{name}` uses layout constant `{c}` but `decode_{name}` \
                         never references it"
                    ),
                ));
            }
            for c in dec_consts.difference(&enc_consts) {
                diags.push(Diagnostic::new(
                    &u.path,
                    enc_line,
                    "bin-roundtrip",
                    format!(
                        "`decode_{name}` uses layout constant `{c}` but `encode_{name}` \
                         never references it"
                    ),
                ));
            }
        }
    }
    diags
}

/// **json-roundtrip** — string keys emitted by a `to_json`/`to_json_value`
/// must be read by the paired `from_json` and vice versa. Pairing is
/// workspace-wide: impl methods pair by type name, free functions pair by
/// the `<prefix>_to_json` / `<prefix>_from_json` naming convention, even
/// when writer and reader live in different crates. Types with only one
/// side (e.g. write-only bench records) are skipped — unless a
/// `// lint: json-reader(<Type>)` declaration pairs a consumer with them
/// (see [`json_reader_checks`]).
pub fn json_roundtrip(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let pairs = json_pairs(units);
    for (name, (tos, froms)) in pairs {
        if tos.is_empty() || froms.is_empty() {
            continue;
        }
        let emitted = multi_unit_keys(units, &tos);
        let consumed = multi_unit_keys(units, &froms);
        for (key, &(ui, line)) in &emitted {
            if !consumed.contains_key(key.as_str()) {
                diags.push(Diagnostic::new(
                    &units[ui].path,
                    line,
                    "json-roundtrip",
                    format!(
                        "key \"{key}\" is emitted by `{name}`'s to_json but never read by \
                         its from_json"
                    ),
                ));
            }
        }
        for (key, &(ui, line)) in &consumed {
            if !emitted.contains_key(key.as_str()) {
                diags.push(Diagnostic::new(
                    &units[ui].path,
                    line,
                    "json-roundtrip",
                    format!(
                        "key \"{key}\" is read by `{name}`'s from_json but never emitted by \
                         its to_json"
                    ),
                ));
            }
        }
    }
    diags
}

/// Writer/reader body ranges per pairing name, across all `Src` units.
type Sides = (Vec<(usize, (usize, usize))>, Vec<(usize, (usize, usize))>);
fn json_pairs(units: &[Unit]) -> BTreeMap<String, Sides> {
    let mut pairs: BTreeMap<String, Sides> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        if u.tree != Tree::Src {
            continue;
        }
        for im in &u.parsed.impls {
            for f in &im.fns {
                let Some(b) = f.body else { continue };
                match f.name.as_str() {
                    "to_json" | "to_json_value" => {
                        pairs.entry(im.type_name.clone()).or_default().0.push((ui, b));
                    }
                    "from_json" => pairs.entry(im.type_name.clone()).or_default().1.push((ui, b)),
                    _ => {}
                }
            }
        }
        for f in &u.parsed.free_fns {
            let Some(b) = f.body else { continue };
            if let Some(p) = f.name.strip_suffix("_to_json") {
                pairs.entry(p.to_string()).or_default().0.push((ui, b));
            } else if let Some(p) = f.name.strip_suffix("_from_json") {
                pairs.entry(p.to_string()).or_default().1.push((ui, b));
            }
        }
    }
    pairs
}

/// Like [`string_keys`] but over bodies spread across several units; the
/// value is `(unit index, first line)`.
fn multi_unit_keys(
    units: &[Unit],
    bodies: &[(usize, (usize, usize))],
) -> BTreeMap<String, (usize, usize)> {
    let mut keys = BTreeMap::new();
    for &(ui, b) in bodies {
        for (k, line) in string_keys(&units[ui], &[b]) {
            keys.entry(k).or_insert((ui, line));
        }
    }
    keys
}

/// The `// lint: json-reader(<Type>)` half of cross-crate json-roundtrip:
/// every string literal the declared function passes to a `get(...)` must
/// be a key the named writer actually emits. This pairs one-directional
/// readers (the CI bench gate) with write-only producers (`BenchRecord`)
/// across crate boundaries.
pub fn json_reader_checks(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let pairs = json_pairs(units);
    for u in units {
        for rd in &u.readers {
            let writer_keys = match pairs.get(&rd.target) {
                Some((tos, _)) if !tos.is_empty() => multi_unit_keys(units, tos),
                _ => {
                    diags.push(Diagnostic::new(
                        &u.path,
                        rd.line,
                        crate::EXEMPTION_LINT,
                        format!(
                            "json-reader names `{}` but no `{}` to_json writer exists in the \
                             workspace",
                            rd.target, rd.target
                        ),
                    ));
                    continue;
                }
            };
            // The declaration covers the next function definition.
            let split = u.tokens.partition_point(|t| t.line <= rd.line);
            let target_fn = u
                .parsed
                .free_fns
                .iter()
                .chain(u.parsed.impls.iter().flat_map(|im| im.fns.iter()))
                .filter(|f| f.tok >= split && f.body.is_some())
                .min_by_key(|f| f.tok);
            let Some(f) = target_fn else {
                diags.push(Diagnostic::new(
                    &u.path,
                    rd.line,
                    crate::EXEMPTION_LINT,
                    "json-reader declaration is not followed by a function".to_string(),
                ));
                continue;
            };
            let (b0, b1) = f.body.unwrap();
            let mut k = b0;
            while k + 2 < b1 {
                if ident_of(&u.tokens[k].kind) == Some("get")
                    && matches!(u.tokens[k + 1].kind, TokKind::Punct('('))
                {
                    if let TokKind::Str(key) = &u.tokens[k + 2].kind {
                        if !writer_keys.contains_key(key.as_str()) {
                            diags.push(Diagnostic::new(
                                &u.path,
                                u.tokens[k + 2].line,
                                "json-roundtrip",
                                format!(
                                    "key \"{key}\" is read by `{}` (json-reader of `{}`) but \
                                     never emitted by `{}`'s to_json",
                                    f.name, rd.target, rd.target
                                ),
                            ));
                        }
                    }
                }
                k += 1;
            }
        }
    }
    diags
}

/// **obs-gate** — in `rsep-uarch`, attribution types must only be named
/// inside `obs! { ... }` or under `#[cfg(feature = "obs")]`.
pub fn obs_gate(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for u in units {
        if u.crate_name != "rsep-uarch" {
            continue;
        }
        let spans = &u.parsed.obs_tokens;
        let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
        for (ti, t) in u.tokens.iter().enumerate() {
            let Some(s) = ident_of(&t.kind) else { continue };
            if !OBS_TYPES.contains(&s) {
                continue;
            }
            if spans.iter().any(|&(a, b)| a <= ti && ti <= b) {
                continue;
            }
            if seen.insert((t.line, s)) {
                diags.push(Diagnostic::new(
                    &u.path,
                    t.line,
                    "obs-gate",
                    format!("`{s}` referenced outside `obs!` / `#[cfg(feature = \"obs\")]`"),
                ));
            }
        }
    }
    diags
}

/// Nondeterminism sources the determinism lint knows about.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// **determinism** — wall-clock reads and hash-order collections flagged
/// everywhere: campaign results must be bit-identical across machines,
/// thread counts and shardings, so nondeterminism sources need an explicit
/// justification. Matches bare identifiers, fully-qualified paths
/// (`std::collections::HashMap`, `std::time::Instant::now()`) and `use ...
/// as` aliases — renaming `Instant` to `Clock` does not launder the
/// wall-clock read.
pub fn determinism(units: &[Unit]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for u in units {
        // `use std::time::Instant as Clock;` — track the alias.
        let mut aliases: BTreeMap<&str, &str> = BTreeMap::new();
        for (ti, t) in u.tokens.iter().enumerate() {
            let Some(s) = ident_of(&t.kind) else { continue };
            if !HASH_TYPES.contains(&s) && !CLOCK_TYPES.contains(&s) {
                continue;
            }
            if u.tokens.get(ti + 1).and_then(|t| ident_of(&t.kind)) == Some("as") {
                if let Some(alias) = u.tokens.get(ti + 2).and_then(|t| ident_of(&t.kind)) {
                    aliases.insert(alias, s);
                }
            }
        }
        let mut seen: BTreeSet<(usize, &str)> = BTreeSet::new();
        for (ti, t) in u.tokens.iter().enumerate() {
            let Some(s) = ident_of(&t.kind) else { continue };
            // The alias name itself (in the `use ... as Alias` position) is
            // a definition, not a use.
            let prev_is_as =
                ti >= 1 && u.tokens.get(ti - 1).and_then(|t| ident_of(&t.kind)) == Some("as");
            let (effective, alias_of) = match aliases.get(s) {
                Some(&orig) if !prev_is_as => (orig, Some(s)),
                _ => (s, None),
            };
            if HASH_TYPES.contains(&effective) && (s == effective || alias_of.is_some()) {
                if seen.insert((t.line, s)) {
                    let label = match alias_of {
                        Some(a) => format!("`{a}` (alias of `{effective}`)"),
                        None => format!("`{s}`"),
                    };
                    diags.push(Diagnostic::new(
                        &u.path,
                        t.line,
                        "determinism",
                        format!(
                            "{label} has nondeterministic iteration order; use an ordered \
                             structure or exempt with a justification"
                        ),
                    ));
                }
                continue;
            }
            if CLOCK_TYPES.contains(&effective)
                && (s == effective || alias_of.is_some())
                && matches!(u.tokens.get(ti + 1).map(|t| &t.kind), Some(TokKind::Punct(':')))
                && matches!(u.tokens.get(ti + 2).map(|t| &t.kind), Some(TokKind::Punct(':')))
                && u.tokens.get(ti + 3).and_then(|t| ident_of(&t.kind)) == Some("now")
                && seen.insert((t.line, s))
            {
                let label = match alias_of {
                    Some(a) => format!("`{a}::now()` (alias of `{effective}::now()`)"),
                    None => format!("`{s}::now()`"),
                };
                diags.push(Diagnostic::new(
                    &u.path,
                    t.line,
                    "determinism",
                    format!("{label} reads the wall clock; results must not depend on it"),
                ));
            }
        }
    }
    diags
}

/// **dead-pub-api** — a `pub` item in a library tree that nothing outside
/// its defining file references (no other crate, binary, test, bench,
/// example — and no sibling module either) is surface area nothing uses:
/// demote it from `pub` or exempt it with its intended consumer.
pub fn dead_pub_api(units: &[Unit], graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for sym in &graph.symbols {
        if !sym.is_pub
            || !sym.top_level
            || sym.kind == "method"
            || sym.gate != Gate::Unconditional
            || sym.name == "main"
            || sym.name.starts_with('_')
        {
            continue;
        }
        let def_unit = &units[sym.unit];
        if !def_unit.unit_key.starts_with("crate:") {
            continue;
        }
        let alive =
            graph.refs.get(&sym.name).is_some_and(|sites| sites.iter().any(|s| s.unit != sym.unit));
        if !alive {
            diags.push(Diagnostic::new(
                &def_unit.path,
                sym.line,
                "dead-pub-api",
                format!(
                    "pub {} `{}` is not referenced outside its defining file by any \
                     workspace compilation unit",
                    sym.kind, sym.name
                ),
            ));
        }
    }
    diags
}

/// **fingerprint-exclusion-audit** — the proof-by-exclusion protocol,
/// machine-checked: every `fingerprint-coverage` exemption must cite the
/// equivalence test that proves the excluded field cannot change results
/// (`; proven-by <file>` in the reason), the cited file must exist, and it
/// must actually reference the excluded field.
pub fn fingerprint_exclusion_audit(units: &[Unit], root: Option<&Path>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let by_path: BTreeMap<&str, usize> =
        units.iter().enumerate().map(|(i, u)| (u.path.as_str(), i)).collect();
    for u in units {
        for d in &u.directives {
            if d.malformed.is_some() || d.lint != "fingerprint-coverage" || d.reason.is_empty() {
                continue;
            }
            if u.parsed.test_lines.iter().any(|&(a, b)| a <= d.line && d.line <= b) {
                continue;
            }
            let mut words = d.reason.split_whitespace();
            let cited = words.by_ref().skip_while(|w| *w != "proven-by").nth(1);
            let Some(cited) = cited else {
                diags.push(Diagnostic::new(
                    &u.path,
                    d.line,
                    "fingerprint-exclusion-audit",
                    "fingerprint-coverage exemption must cite the equivalence test proving the \
                     exclusion safe: append `; proven-by <file>` to the reason"
                        .to_string(),
                ));
                continue;
            };
            // The excluded field: first identifier on the line the
            // directive covers (file-level exemptions have no single field).
            let field = if d.file_level {
                None
            } else {
                let split = u.tokens.partition_point(|t| t.line <= d.line);
                u.tokens.get(split).map(|t| t.line).and_then(|line| {
                    u.tokens[split..].iter().take_while(|t| t.line == line).find_map(|t| {
                        match ident_of(&t.kind) {
                            Some("pub" | "crate" | "super") | None => None,
                            Some(s) => Some(s),
                        }
                    })
                })
            };
            match (by_path.get(cited), root) {
                (Some(&ti), _) => {
                    if let Some(field) = field {
                        let test_unit = &units[ti];
                        let referenced =
                            test_unit.tokens.iter().any(|t| ident_of(&t.kind) == Some(field));
                        if !referenced {
                            diags.push(Diagnostic::new(
                                &u.path,
                                d.line,
                                "fingerprint-exclusion-audit",
                                format!(
                                    "equivalence test `{cited}` does not reference the excluded \
                                     field `{field}`"
                                ),
                            ));
                        }
                    }
                }
                (None, Some(root)) if root.join(cited).is_file() => {
                    if let Some(field) = field {
                        let text = std::fs::read_to_string(root.join(cited)).unwrap_or_default();
                        if !contains_ident(&text, field) {
                            diags.push(Diagnostic::new(
                                &u.path,
                                d.line,
                                "fingerprint-exclusion-audit",
                                format!(
                                    "equivalence test `{cited}` does not reference the excluded \
                                     field `{field}`"
                                ),
                            ));
                        }
                    }
                }
                _ => {
                    diags.push(Diagnostic::new(
                        &u.path,
                        d.line,
                        "fingerprint-exclusion-audit",
                        format!("equivalence test `{cited}` cited by proven-by does not exist"),
                    ));
                }
            }
        }
    }
    diags
}

/// `needle` appears in `text` with identifier boundaries on both sides.
fn contains_ident(text: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0usize;
    while let Some(pos) = text[start..].find(needle) {
        let at = start + pos;
        let before_ok = !text[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !text[at + needle.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Global struct index: name → (unit index, struct index). Only `Src`
/// trees define lintable structs; the first definition wins, so shadowing
/// test helpers lower in a file cannot hijack a name.
fn struct_index(units: &[Unit]) -> BTreeMap<&str, (usize, usize)> {
    let mut map = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        if u.tree != Tree::Src {
            continue;
        }
        for (si, s) in u.parsed.structs.iter().enumerate() {
            map.entry(s.name.as_str()).or_insert((ui, si));
        }
    }
    map
}

/// Ident-like string literals (JSON keys) in the given body ranges, with
/// the first line each appears on. Literals with spaces or punctuation
/// (error messages, labels) are ignored.
fn string_keys(u: &Unit, bodies: &[(usize, usize)]) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    for &(b0, b1) in bodies {
        for t in &u.tokens[b0..b1] {
            if let TokKind::Str(s) = &t.kind {
                let mut cs = s.chars();
                let ident_like = cs.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                    && cs.all(|c| c.is_ascii_alphanumeric() || c == '_');
                if ident_like {
                    keys.entry(s.clone()).or_insert(t.line);
                }
            }
        }
    }
    keys
}
