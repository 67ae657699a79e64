//! Intra-workspace call graph, built by name resolution over the
//! symbol index.
//!
//! Resolution is deliberately an *over*-approximation (documented in
//! DESIGN.md §8): a call site `x.m(...)` resolves to every indexed
//! impl method named `m`, a qualified call `Type::m(...)` to methods
//! named `m` whose impl self-type is `Type` (falling back to all `m`
//! when the qualifier is unknown), and a bare call `f(...)` to every
//! free fn named `f` — with `use` imports consulted to narrow the
//! crate when they can. Macro invocations (`name!(...)`) are not
//! calls. Over-approximation is the safe direction for a reachability
//! lint: it can demand a justification that is not strictly needed,
//! but it cannot miss a real call chain spelled as a plain call.

use crate::index::{FnItem, WorkspaceIndex};
use crate::lex::{Tok, TokKind};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// A resolved call edge, kept with the site that produced it so
/// reachability reports can show the chain.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Callee: index into [`CallGraph::fns`].
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: usize,
}

/// The workspace call graph over every indexed fn.
#[derive(Debug)]
pub struct CallGraph<'a> {
    /// Flattened fn list; `fn_file[i]` is the scanned-file index of
    /// `fns[i]`.
    pub fns: Vec<&'a FnItem>,
    pub edges: Vec<Vec<CallEdge>>,
}

/// Rust keywords that look like call heads but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "mut", "ref", "move", "in", "as",
    "where", "impl", "dyn", "box", "unsafe", "else", "break", "continue", "await", "Some", "Ok",
    "Err", "None", "self", "Self", "super", "crate", "pub", "use", "mod", "const", "static",
    "enum", "struct", "trait", "type",
];

impl<'a> CallGraph<'a> {
    /// Builds the graph. `index` was built over `files`; `resolvable`
    /// limits callee candidates to the crates a reachability rule cares
    /// about.
    pub fn build(index: &'a WorkspaceIndex, files: &[SourceFile], resolvable: &[&str]) -> Self {
        let mut fns: Vec<&FnItem> = Vec::new();
        for file in &index.files {
            for f in &file.fns {
                fns.push(f);
            }
        }
        // Candidate tables: name -> fn indexes, split by "has an impl
        // self-type" so method calls don't resolve to free fns.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_fns: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if !resolvable.contains(&files[f.file].krate.as_str()) {
                continue;
            }
            if f.qual.is_some() {
                methods.entry(&f.name).or_default().push(i);
            } else {
                free_fns.entry(&f.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<CallEdge>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            let Some(body) = f.body else {
                continue;
            };
            let imports = &index.files[f.file].uses;
            // Work over the comment-filtered view of the body.
            let view: Vec<&Tok> = files[f.file]
                .toks_in(body)
                .iter()
                .filter(|t| t.kind != TokKind::Comment)
                .collect();
            for k in 0..view.len() {
                let t = view[k];
                if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                    continue;
                }
                // A call head is an ident directly followed by `(`;
                // `name!(...)` is a macro, `name::(`... is not a call.
                if !matches!(view.get(k + 1), Some(n) if n.kind == TokKind::Punct && n.text == "(")
                {
                    continue;
                }
                let name = t.text.as_str();
                let prev = k.checked_sub(1).map(|p| view[p]);
                let callees: Vec<usize> = match prev {
                    Some(p) if p.kind == TokKind::Punct && p.text == "." => {
                        // Method call: every impl method with this name.
                        methods.get(name).cloned().unwrap_or_default()
                    }
                    Some(p) if p.kind == TokKind::Punct && p.text == "::" => {
                        // Qualified call: restrict to the qualifier's
                        // impl when we know it, else fall back to every
                        // method (and free fns, for module paths).
                        let qual = k
                            .checked_sub(2)
                            .map(|q| view[q])
                            .filter(|q| q.kind == TokKind::Ident)
                            .map(|q| q.text.clone());
                        resolve_qualified(
                            name,
                            qual.as_deref(),
                            &methods,
                            &free_fns,
                            imports,
                            &fns,
                            files,
                        )
                    }
                    _ => {
                        // Bare call: free fns with this name, preferring
                        // the caller's own crate when it defines one.
                        let all = free_fns.get(name).cloned().unwrap_or_default();
                        let own_crate = &files[f.file].krate;
                        let local: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&c| files[fns[c].file].krate == *own_crate)
                            .collect();
                        if local.is_empty() {
                            all
                        } else {
                            local
                        }
                    }
                };
                for callee in callees {
                    edges[i].push(CallEdge {
                        callee,
                        line: t.line,
                    });
                }
            }
        }
        CallGraph { fns, edges }
    }

    /// BFS from `roots`, returning for every reached fn the (caller,
    /// call line) parent pointer that discovered it, so rules can print
    /// the call chain. Roots map to `None`.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, usize)>> {
        let mut seen: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if seen.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for e in &self.edges[i] {
                if let std::collections::btree_map::Entry::Vacant(v) = seen.entry(e.callee) {
                    v.insert(Some((i, e.line)));
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }
}

/// Resolves `Qual::name(...)`. When the qualifier matches an indexed
/// impl self-type, only that type's methods are candidates; otherwise
/// every method plus free fns of that name are (module-path calls like
/// `pool::run_window(...)` land here). Imports narrow the candidate
/// set to the qualifier's crate when the qualifier was imported from
/// an `adc_*` crate.
fn resolve_qualified(
    name: &str,
    qual: Option<&str>,
    methods: &BTreeMap<&str, Vec<usize>>,
    free_fns: &BTreeMap<&str, Vec<usize>>,
    imports: &[crate::index::UseImport],
    fns: &[&FnItem],
    files: &[SourceFile],
) -> Vec<usize> {
    let mut all: Vec<usize> = methods.get(name).cloned().unwrap_or_default();
    all.extend(free_fns.get(name).cloned().unwrap_or_default());
    let Some(qual) = qual else {
        return all;
    };
    // Self::m(...) — the impl context is unknown here; keep everything.
    if qual == "Self" || qual == "self" {
        return all;
    }
    let typed: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&c| fns[c].qual.as_deref() == Some(qual))
        .collect();
    let mut candidates = if methods
        .values()
        .chain(free_fns.values())
        .flatten()
        .any(|&c| fns[c].qual.as_deref() == Some(qual))
    {
        // The qualifier names a known impl type: its methods only.
        typed
    } else {
        all
    };
    // `use adc_x::...::Qual;` narrows candidates to that crate.
    if let Some(import) = imports.iter().find(|u| u.name == qual) {
        let root = import.root_segment.replace('_', "-");
        if root.starts_with("adc-") {
            let narrowed: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| files[fns[c].file].krate == root)
                .collect();
            if !narrowed.is_empty() {
                candidates = narrowed;
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::WorkspaceIndex;
    use crate::scan::parse_source;

    fn files(texts: &[&str]) -> Vec<SourceFile> {
        texts
            .iter()
            .map(|t| parse_source("crates/adc-sim/src/lib.rs", "adc-sim", true, t))
            .collect()
    }

    fn names_reached(texts: &[&str], root_name: &str) -> Vec<String> {
        let files = files(texts);
        let index = WorkspaceIndex::build(&files);
        let g = CallGraph::build(&index, &files, &["adc-sim"]);
        let roots: Vec<usize> = g
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == root_name)
            .map(|(i, _)| i)
            .collect();
        let mut reached: Vec<String> = g
            .reach(&roots)
            .keys()
            .map(|&i| g.fns[i].name.clone())
            .collect();
        reached.sort();
        reached
    }

    #[test]
    fn plain_calls_chain_transitively() {
        let reached = names_reached(
            &["fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}"],
            "a",
        );
        assert_eq!(reached, vec!["a", "b", "c"]);
    }

    #[test]
    fn method_calls_resolve_across_files() {
        let reached = names_reached(
            &[
                "fn a(w: &W) { w.work(); }",
                "struct W; impl W { fn work(&self) { helper(); } }\nfn helper() {}",
            ],
            "a",
        );
        assert_eq!(reached, vec!["a", "helper", "work"]);
    }

    #[test]
    fn qualified_calls_restrict_to_the_named_type() {
        let reached = names_reached(
            &[
                "fn a() { W::work(); }",
                "struct W; impl W { fn work() {} }\nstruct V; impl V { fn work() { sink(); } }\nfn sink() {}",
            ],
            "a",
        );
        assert_eq!(reached, vec!["a", "work"]);
    }

    #[test]
    fn macros_are_not_calls() {
        let reached = names_reached(
            &["fn a() { work!(); }\nfn work() { sink(); }\nfn sink() {}"],
            "a",
        );
        assert_eq!(reached, vec!["a"]);
    }

    #[test]
    fn reach_reports_parent_chain() {
        let files = files(&["fn a() { b(); }\nfn b() { c(); }\nfn c() {}"]);
        let index = WorkspaceIndex::build(&files);
        let g = CallGraph::build(&index, &files, &["adc-sim"]);
        let a = g.fns.iter().position(|f| f.name == "a").unwrap();
        let c = g.fns.iter().position(|f| f.name == "c").unwrap();
        let seen = g.reach(&[a]);
        let (parent_of_c, _) = seen[&c].expect("c is not a root");
        assert_eq!(g.fns[parent_of_c].name, "b");
    }
}
