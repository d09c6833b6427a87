//! The lint passes.
//!
//! Each pass takes the full set of lexed+parsed [`Unit`]s (cross-file,
//! because a `to_json` writer and its reader may live in different crates)
//! and returns raw diagnostics; the engine applies `#[cfg(test)]` filtering
//! and exemption suppression afterwards. The cross-file `dead-pub-api`
//! pass runs as a query over the [`Graph`] built in pass 1.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{Gate, Graph};
use crate::lexer::TokKind;
use crate::{Diagnostic, Tree, Unit};

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
fn layout_consts(u: &Unit, (b0, b1): (usize, usize)) -> BTreeSet<&str> {
    u.tokens[b0..b1]
        .iter()
        .filter_map(|t| ident_of(&t.kind))
        .filter(|n| is_layout_const(n))
        .collect()
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
