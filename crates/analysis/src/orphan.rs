//! R6 (`orphan_module`): a library module that only tests reach.
//!
//! Every `crates/*/src/**.rs` file except crate roots and `bin/` is a
//! module. It is alive when another file's non-test code names it: by a
//! path (`mgopt_x::m`, `x::m` through the umbrella, `crate::m`,
//! `super::m`, a grouped `use a::{m, …}`), or by one of its top-level
//! items, directly or through a re-export. Its parent's own `mod m;` and
//! `use m::…` lines and its own submodules do not count. Items are read
//! from the top level only, so method names (`new`, `daily`) never keep a
//! module alive. Like the other rules this reads tokens, not resolved
//! names: an orphan whose item names collide with code elsewhere passes.

use std::collections::BTreeSet;

use crate::lexer::{in_regions, Tok, Token};
use crate::report::{Finding, Rule};
use crate::{SourceFile, Workspace};

/// Keywords whose next identifier names a new item.
const DEFINERS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// What one file's non-test code names.
#[derive(Default)]
struct Mentions {
    /// Identifiers, except names after `.` (methods, fields) and the
    /// names this file defines.
    idents: BTreeSet<String>,
    /// `(segment, ident)` for every `segment::ident` path and grouped
    /// `use segment::{ident, …}` member.
    paths: BTreeSet<(String, String)>,
}

/// R6: report every module that no other file's non-test code names, at
/// its parent's `mod` line (or its own first line when nothing declares
/// it). A module declared under `#[cfg(test)]` is test code and exempt.
pub fn orphan_module(ws: &Workspace, out: &mut Vec<Finding>) {
    let mentions: Vec<Mentions> = ws.sources.iter().map(mentions).collect();
    for file in &ws.sources {
        let Some(module) = Module::of(&file.rel) else {
            continue;
        };
        // Without its parent in the linted set (a lone snippet) there is
        // no crate to judge the module against.
        let Some(parent) = ws
            .sources
            .iter()
            .find(|f| module.parent_files.contains(&f.rel))
        else {
            continue;
        };
        let decl = mod_decls(&parent.lexed.tokens)
            .find(|&(name, _)| name == module.name)
            .map(|(_, line)| line);
        if decl.is_some_and(|line| in_regions(&parent.test_regions, line)) {
            continue;
        }
        let items = top_level_items(file);
        let named = ws.sources.iter().zip(&mentions).any(|(g, m)| {
            g.rel != file.rel
                && !g.rel.starts_with(&module.subtree)
                && module.named_by(g, m, &items)
        });
        if named {
            continue;
        }
        let (at, line) = decl.map_or((file, 1), |line| (parent, line));
        out.push(Finding {
            file: at.rel.clone(),
            line,
            rule: Rule::OrphanModule,
            message: format!(
                "module `{}::{}` is reached only from tests: no other file's non-test code \
                 names it or its items — delete it, or justify keeping it",
                module.krate,
                module.path.join("::")
            ),
        });
    }
}

/// A candidate module, located by its file path.
struct Module<'a> {
    krate: &'a str,
    /// Module path below the crate root (`["experiments", "fig2"]`).
    path: Vec<&'a str>,
    /// The module's own name (last element of `path`).
    name: &'a str,
    /// Where its `mod` line can live: `lib.rs`/`main.rs` at the root,
    /// else `a.rs` or `a/mod.rs` of the enclosing module.
    parent_files: [String; 2],
    /// Directory of its submodules, with a trailing `/`.
    subtree: String,
}

impl<'a> Module<'a> {
    fn of(rel: &'a str) -> Option<Module<'a>> {
        let (krate, rest) = rel.strip_prefix("crates/")?.split_once("/src/")?;
        let segs: Vec<&str> = rest.split('/').collect();
        let (file, dirs) = segs.split_last()?;
        if dirs.first() == Some(&"bin")
            || (dirs.is_empty() && matches!(*file, "lib.rs" | "main.rs"))
        {
            return None;
        }
        let mut path = dirs.to_vec();
        if *file != "mod.rs" {
            path.push(file.strip_suffix(".rs")?);
        }
        let (&name, above) = path.split_last()?;
        let src = format!("crates/{krate}/src/");
        let parent_files = if above.is_empty() {
            [format!("{src}lib.rs"), format!("{src}main.rs")]
        } else {
            let p = above.join("/");
            [format!("{src}{p}.rs"), format!("{src}{p}/mod.rs")]
        };
        let subtree = format!("{src}{}/", path.join("/"));
        Some(Module {
            krate,
            path,
            name,
            parent_files,
            subtree,
        })
    }

    /// Does file `g`, with mentions `m`, name this module or one of
    /// its `items`?
    fn named_by(&self, g: &SourceFile, m: &Mentions, items: &BTreeSet<&str>) -> bool {
        let lib = format!("mgopt_{}", self.krate);
        let mut segments: Vec<&str> = match self.path.len() {
            1 => vec![lib.as_str(), self.krate],
            n => vec![self.path[n - 2]],
        };
        if g.crate_name.as_deref() == Some(self.krate) {
            segments.extend(["crate", "super", "self"]);
        }
        segments
            .iter()
            .any(|s| m.paths.contains(&(s.to_string(), self.name.to_string())))
            || items.iter().any(|i| m.idents.contains(*i))
    }
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(t: Option<&Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// The segment of a `segment ::` right before `toks[i]`.
fn segment_before(toks: &[Token], i: usize) -> Option<&str> {
    let seg = i.checked_sub(3)?;
    (punct(toks.get(i - 2), ':') && punct(toks.get(i - 1), ':'))
        .then(|| ident(&toks[seg]))
        .flatten()
}

/// `(name, line)` of every `mod name;` declaration.
fn mod_decls(toks: &[Token]) -> impl Iterator<Item = (&str, u32)> {
    toks.windows(3)
        .filter(|w| ident(&w[0]) == Some("mod") && punct(w.get(2), ';'))
        .filter_map(|w| Some((ident(&w[1])?, w[1].line)))
}

/// Collect what `file`'s non-test code names, skipping its `mod m;`
/// lines and the `use m::…` lines of the modules it declares. A file
/// under `tests/` names nothing.
fn mentions(file: &SourceFile) -> Mentions {
    let mut m = Mentions::default();
    if file.rel.starts_with("tests/") || file.rel.contains("/tests/") {
        return m;
    }
    let toks = &file.lexed.tokens;
    let own: BTreeSet<&str> = mod_decls(toks).map(|(name, _)| name).collect();
    // Inside a `use` statement: its end, and the prefix segment of each
    // open brace group.
    let mut use_end = None;
    let mut groups: Vec<Option<&str>> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if use_end.is_some_and(|end| i > end) {
            use_end = None;
            groups.clear();
        }
        if in_regions(&file.test_regions, t.line) {
            i += 1;
            continue;
        }
        match ident(t) {
            Some("mod") if punct(toks.get(i + 2), ';') => {
                i += 3;
                continue;
            }
            Some("use") if use_end.is_none() => {
                let end = (i..toks.len())
                    .find(|&j| punct(toks.get(j), ';'))
                    .unwrap_or(toks.len());
                let first = toks[i + 1..end]
                    .iter()
                    .filter_map(ident)
                    .find(|s| !matches!(*s, "self" | "crate"));
                if first.is_some_and(|s| own.contains(s)) {
                    i = end + 1;
                    continue;
                }
                use_end = Some(end);
            }
            _ => {}
        }
        if use_end.is_some() && punct(Some(t), '{') {
            groups.push(segment_before(toks, i));
        } else if use_end.is_some() && punct(Some(t), '}') {
            groups.pop();
        }
        if let Some(name) = ident(t) {
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let defines = prev.and_then(ident).is_some_and(|p| DEFINERS.contains(&p))
                || (punct(prev, '!') && i >= 2 && ident(&toks[i - 2]) == Some("macro_rules"));
            if !punct(prev, '.') && !defines {
                m.idents.insert(name.to_string());
            }
            let group = if punct(prev, '{') || punct(prev, ',') {
                groups.last().copied().flatten()
            } else {
                None
            };
            if let Some(seg) = segment_before(toks, i).or(group) {
                m.paths.insert((seg.to_string(), name.to_string()));
            }
        }
        i += 1;
    }
    m
}

/// Names `file` defines at its top level, outside test code: types,
/// traits, functions, consts, statics, submodules and macros, plus the
/// type of each `impl Type {` block, so a type a macro defines counts.
fn top_level_items(file: &SourceFile) -> BTreeSet<&str> {
    let toks = &file.lexed.tokens;
    let mut items = BTreeSet::new();
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth > 0 || in_regions(&file.test_regions, t.line) {
            continue;
        }
        let next = |k: usize| toks.get(i + k).and_then(ident);
        // An `impl` item follows a finished item, never `->` or `:`.
        let item_start = i == 0 || matches!(toks[i - 1].tok, Tok::Punct('}' | ';' | ']'));
        let name = match ident(t) {
            Some(k) if DEFINERS.contains(&k) => next(1),
            Some("macro_rules") => next(2),
            Some("impl") if item_start && punct(toks.get(i + 2), '{') => next(1),
            _ => None,
        };
        if let Some(n) = name.filter(|n| !matches!(*n, "fn" | "mut" | "_")) {
            items.insert(n);
        }
    }
    items
}
