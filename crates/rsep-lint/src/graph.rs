//! Pass 1: the workspace symbol graph.
//!
//! Collects every struct, enum, trait, type alias, free function, method
//! and `const` across all scanned files into one table, records which
//! compilation unit and `#[cfg]`/`obs!` gate each lives under, and indexes
//! every identifier reference by qualified-name matching. Pass-2 lints
//! (`dead-pub-api`, the cross-crate half of `json-roundtrip`) are plain
//! queries over this graph, so "does anything outside this crate use that
//! symbol" no longer stops at file boundaries.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokKind;
use crate::Unit;

/// Compile-time gate a symbol lives under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Compiled in every configuration.
    Unconditional,
    /// Behind `obs!` / `#[cfg(feature = "obs")]`.
    Obs,
    /// Behind `#[cfg(test)]`.
    Test,
}

/// One defined symbol.
#[derive(Debug)]
pub struct Symbol {
    /// Symbol name (last path segment).
    pub name: String,
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    /// 1-based line of the definition's name token.
    pub line: usize,
    /// `"struct"`, `"enum"`, `"trait"`, `"type"`, `"fn"`, `"method"` or
    /// `"const"`.
    pub kind: &'static str,
    /// Unrestricted `pub`.
    pub is_pub: bool,
    /// Defined at module top level (meaningful for `fn`/`const`).
    pub top_level: bool,
    /// Gate of the definition site.
    pub gate: Gate,
}

/// One identifier reference resolved by name.
#[derive(Debug, Clone, Copy)]
pub struct RefSite {
    /// Index into the unit slice.
    pub unit: usize,
    /// 1-based line of the reference.
    pub line: usize,
}

/// The workspace symbol graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All symbol definitions, in unit order.
    pub symbols: Vec<Symbol>,
    /// Name → indices into [`Graph::symbols`].
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Name → reference sites (definition sites, field accesses and
    /// struct-literal field names excluded). Only names that resolve to at
    /// least one symbol are indexed.
    pub refs: BTreeMap<String, Vec<RefSite>>,
}

/// Gate of token index `ti` in `u`: obs spans win over `#[cfg(test)]`
/// ranges (an obs-gated test file compiles only with the feature on).
pub fn gate_at(u: &Unit, ti: usize, line: usize) -> Gate {
    if u.parsed.obs_tokens.iter().any(|&(a, b)| a <= ti && ti <= b) {
        Gate::Obs
    } else if u.parsed.test_lines.iter().any(|&(a, b)| a <= line && line <= b) {
        Gate::Test
    } else {
        Gate::Unconditional
    }
}

impl Graph {
    /// Builds the graph over all scanned units.
    pub fn build(units: &[Unit]) -> Graph {
        let mut g = Graph::default();
        // Definition-site token indices, per unit, so the reference scan
        // can skip them.
        let mut def_toks: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); units.len()];

        for (ui, u) in units.iter().enumerate() {
            let mut add = |name: &str, tok: usize, kind: &'static str, is_pub: bool, top: bool| {
                def_toks[ui].insert(tok);
                let line = u.tokens[tok].line;
                g.symbols.push(Symbol {
                    name: name.to_string(),
                    unit: ui,
                    line,
                    kind,
                    is_pub,
                    top_level: top,
                    gate: gate_at(u, tok, line),
                });
            };
            for s in &u.parsed.structs {
                add(&s.name, s.tok, "struct", s.is_pub, true);
            }
            for d in &u.parsed.others {
                add(&d.name, d.tok, d.kind, d.is_pub, true);
            }
            for f in &u.parsed.free_fns {
                add(&f.name, f.tok, "fn", f.is_pub, true);
            }
            for im in &u.parsed.impls {
                for f in &im.fns {
                    add(&f.name, f.tok, "method", f.is_pub, false);
                }
            }
            for c in &u.parsed.consts {
                add(&c.name, c.tok, "const", c.is_pub, c.top_level);
            }
        }
        for (si, s) in g.symbols.iter().enumerate() {
            g.by_name.entry(s.name.clone()).or_default().push(si);
        }

        for (ui, u) in units.iter().enumerate() {
            for (ti, t) in u.tokens.iter().enumerate() {
                let TokKind::Ident(name) = &t.kind else { continue };
                if !g.by_name.contains_key(name) || def_toks[ui].contains(&ti) {
                    continue;
                }
                let prev = ti.checked_sub(1).map(|p| &u.tokens[p].kind);
                let next = u.tokens.get(ti + 1).map(|t| &t.kind);
                let next2 = u.tokens.get(ti + 2).map(|t| &t.kind);
                // Bindings and macro fragments are not references.
                if let Some(TokKind::Ident(p)) = prev {
                    if matches!(
                        p.as_str(),
                        "fn" | "struct" | "enum" | "trait" | "const" | "mod" | "let"
                    ) {
                        continue;
                    }
                }
                if matches!(prev, Some(TokKind::Punct('$'))) {
                    continue;
                }
                // `x.field` is a field access, not a symbol reference —
                // unless a `(` follows (method call).
                if matches!(prev, Some(TokKind::Punct('.')))
                    && !matches!(next, Some(TokKind::Punct('(')))
                {
                    continue;
                }
                // `name:` (not `name::`) is a struct-literal field or a
                // binding's type annotation.
                if matches!(next, Some(TokKind::Punct(':')))
                    && !matches!(next2, Some(TokKind::Punct(':')))
                {
                    continue;
                }
                g.refs.entry(name.clone()).or_default().push(RefSite { unit: ui, line: t.line });
            }
        }
        g
    }
}
