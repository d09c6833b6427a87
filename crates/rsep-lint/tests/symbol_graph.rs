//! Pass-1 machinery tests: the lexer, the item parser and the workspace
//! symbol graph are public API (downstream tooling queries them directly),
//! so their shapes are pinned here rather than only exercised indirectly
//! through the lints.

use rsep_lint::graph::{gate_at, Gate, Graph, RefSite, Symbol};
use rsep_lint::lexer::{lex, Lexed, TokKind};
use rsep_lint::lints::OBS_TYPES;
use rsep_lint::parse::{parse_file, ConstDef, ImplDef, ItemDecl, StructDef};
use rsep_lint::{lint_sources, Finding, SourceFile, Tree, Unit, EXEMPTION_LINT, LINT_NAMES};

fn unit(path: &str, crate_name: &str, text: &str) -> Unit {
    let lexed = lex(text);
    let parsed = parse_file(&lexed.tokens);
    Unit {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        tree: Tree::Src,
        unit_key: format!("crate:{crate_name}"),
        tokens: lexed.tokens,
        directives: lexed.directives,
        readers: lexed.readers,
        parsed,
    }
}

#[test]
fn lexer_separates_tokens_directives_and_readers() {
    let lexed: Lexed = lex(concat!(
        "// lint: exempt(obs-gate, fixture)\n",
        "// lint: json-reader(Rec)\n",
        "let x = \"key\"; // plain comment\n",
        "const W: u32 = 0x10;\n",
    ));
    assert_eq!(lexed.directives.len(), 1);
    assert_eq!(lexed.directives[0].lint, "obs-gate");
    assert_eq!(lexed.directives[0].reason, "fixture");
    assert!(lexed.directives[0].malformed.is_none());
    assert_eq!(lexed.readers.len(), 1);
    assert_eq!(lexed.readers[0].target, "Rec");
    assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Str("key".to_string())));
    assert!(lexed.tokens.iter().any(|t| t.kind == TokKind::Num));
    // Lines are non-decreasing — the engine's partition_point relies on it.
    assert!(lexed.tokens.windows(2).all(|w| w[0].line <= w[1].line));
}

#[test]
fn parser_extracts_every_item_kind() {
    let src = concat!(
        "pub struct Pair { pub lo: u16, pub hi: u16 }\n",
        "pub enum Mode { A, B }\n",
        "pub const WIDTH: u32 = 0x10;\n",
        "impl Pair {\n",
        "    pub fn pack(lo: u16, hi: u16) -> u32 { 0 }\n",
        "}\n",
        "pub fn free(x: u32) -> u32 { x }\n",
    );
    let Lexed { tokens, .. } = lex(src);
    let pf = parse_file(&tokens);

    let sd: &StructDef = &pf.structs[0];
    assert_eq!((sd.name.as_str(), sd.line, sd.is_pub), ("Pair", 1, true));

    let decl: &ItemDecl = &pf.others[0];
    assert_eq!((decl.kind, decl.name.as_str(), decl.is_pub), ("enum", "Mode", true));

    let cd: &ConstDef = &pf.consts[0];
    assert_eq!((cd.name.as_str(), cd.is_pub, cd.top_level), ("WIDTH", true, true));

    let im: &ImplDef = &pf.impls[0];
    assert_eq!((im.type_name.as_str(), im.trait_name.as_deref()), ("Pair", None));

    // Functions are crate-internal; the symbol graph exposes them.
    let g = Graph::build(&[unit("p.rs", "c", src)]);
    let kind_line = |name: &str| {
        let sym: &Symbol = &g.symbols[g.by_name[name][0]];
        (sym.kind, sym.line, sym.is_pub)
    };
    assert_eq!(kind_line("pack"), ("method", 5, true));
    assert_eq!(kind_line("free"), ("fn", 7, true));
}

#[test]
fn gate_at_distinguishes_obs_test_and_unconditional() {
    let u = unit(
        "g.rs",
        "c",
        concat!(
            "obs! { pub fn counted() {} }\n",
            "#[cfg(test)]\n",
            "mod t { fn helper() {} }\n",
            "pub fn plain() {}\n",
        ),
    );
    let pos = |name: &str| {
        u.tokens
            .iter()
            .position(|t| matches!(&t.kind, TokKind::Ident(s) if s == name))
            .unwrap_or_else(|| panic!("no token `{name}`"))
    };
    let (counted, helper, plain) = (pos("counted"), pos("helper"), pos("plain"));
    assert_eq!(gate_at(&u, counted, u.tokens[counted].line), Gate::Obs);
    assert_eq!(gate_at(&u, helper, u.tokens[helper].line), Gate::Test);
    assert_eq!(gate_at(&u, plain, u.tokens[plain].line), Gate::Unconditional);
}

#[test]
fn graph_resolves_references_across_units() {
    let a = unit(
        "a.rs",
        "alpha",
        "pub struct Widget { pub w: u32 }\npub fn widget_width() -> u32 { 7 }\n",
    );
    let b = unit("b.rs", "beta", "pub fn consume() -> u32 { widget_width() }\n");
    let g = Graph::build(&[a, b]);

    let widget: &Symbol = &g.symbols[g.by_name["Widget"][0]];
    assert_eq!(
        (widget.kind, widget.is_pub, widget.top_level, widget.unit, widget.line),
        ("struct", true, true, 0, 1)
    );
    assert_eq!(widget.gate, Gate::Unconditional);

    // The call in b.rs resolves to the definition in a.rs; the definition
    // site itself is not a reference.
    let sites: &[RefSite] = &g.refs["widget_width"];
    assert_eq!(sites.len(), 1);
    assert!(sites[0].unit == 1 && sites[0].line == 1);
}

#[test]
fn lint_name_tables_are_sorted_and_consistent() {
    assert!(LINT_NAMES.windows(2).all(|w| w[0] < w[1]), "LINT_NAMES must be sorted and unique");
    assert!(!LINT_NAMES.contains(&EXEMPTION_LINT), "exemption hygiene is never exemptable");
    assert!(OBS_TYPES.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn findings_carry_exemption_state() {
    let src = concat!(
        "// lint: exempt(obs-gate, fixture accessor; present in both builds)\n",
        "pub fn t() -> Option<StageAttribution> { None }\n",
        "pub fn u() -> Option<WorkCounts> { None }\n",
    );
    let files = vec![SourceFile {
        path: "x.rs".to_string(),
        crate_name: "rsep-uarch".to_string(),
        tree: Tree::Src,
        text: src.to_string(),
    }];
    let findings: Vec<Finding> = lint_sources(files);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let Finding { diag, exempted } = &findings[0];
    assert!(exempted, "the directive must suppress the finding on the next line");
    assert_eq!((diag.lint.as_str(), diag.line), ("obs-gate", 2));
    // The directive covers its own line and the next item's, no further.
    let Finding { diag, exempted } = &findings[1];
    assert!(!exempted, "{diag}");
    assert_eq!((diag.lint.as_str(), diag.line), ("obs-gate", 3));
}
