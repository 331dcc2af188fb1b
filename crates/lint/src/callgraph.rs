//! Workspace call graph with reachability.
//!
//! Nodes are every `fn` parsed from the in-scope files; edges are resolved
//! *by name*, split into two namespaces so that a method named like a free
//! function does not shadow it:
//!
//! - a method call `recv.name(…)` resolves to every *method* named `name`,
//! - a free call `name(…)` / `Path::name(…)` resolves to every free fn
//!   named `name` (path calls also try methods, for associated functions).
//!
//! That over-approximates (any receiver matches any impl), which is the
//! right direction for the passes built on it: reachability-based scopes
//! can only grow, never silently miss a path.
//!
//! Closures are attributed to their enclosing `fn` (see [`crate::parse`]),
//! so "propagation through helpers and closures" falls out of the body
//! ranges: a call made inside a closure is an edge of the enclosing
//! function.

use crate::parse::{CallKind, ParsedFile};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One function node.
#[derive(Debug)]
pub struct Node {
    /// Index into the file slice the graph was built from.
    pub file: usize,
    /// Index into that file's `ParsedFile::fns`.
    pub fn_idx: usize,
    /// Function name.
    pub name: String,
    /// Declared with a `self` receiver.
    pub is_method: bool,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes.
    pub nodes: Vec<Node>,
    /// Forward edges: `edges[n]` = callee node ids, deduplicated, sorted.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over `files` (with `parsed[i]` the parse of
    /// `files[i]`), admitting every call form.
    pub fn build(files: &[&SourceFile], parsed: &[ParsedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, pf) in parsed.iter().enumerate() {
            for (gi, f) in pf.fns.iter().enumerate() {
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    fn_idx: gi,
                    name: f.name.clone(),
                    is_method: f.is_method,
                });
                if f.is_method {
                    methods.entry(f.name.as_str()).or_default().push(id);
                } else {
                    free.entry(f.name.as_str()).or_default().push(id);
                }
            }
        }
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for node_id in 0..nodes.len() {
            let (file, fn_idx) = (nodes[node_id].file, nodes[node_id].fn_idx);
            let pf = &parsed[file];
            let src = &files[file].raw;
            let Some((open, close)) = pf.fns[fn_idx].body else {
                continue;
            };
            for call in pf.call_sites(src, open, close) {
                // calls inside a *nested* fn belong to that fn, not to us
                if pf.enclosing_fn(call.tok) != Some(fn_idx) {
                    continue;
                }
                let mut targets: Vec<usize> = Vec::new();
                match &call.kind {
                    CallKind::Method(_) => {
                        if let Some(m) = methods.get(call.name.as_str()) {
                            targets.extend(m);
                        }
                    }
                    CallKind::Free => {
                        if let Some(f) = free.get(call.name.as_str()) {
                            targets.extend(f);
                        }
                    }
                    CallKind::Path(_) => {
                        if let Some(f) = free.get(call.name.as_str()) {
                            targets.extend(f);
                        }
                        if let Some(m) = methods.get(call.name.as_str()) {
                            targets.extend(m);
                        }
                    }
                }
                edges[node_id].extend(targets);
            }
            edges[node_id].sort_unstable();
            edges[node_id].dedup();
        }
        CallGraph { nodes, edges }
    }

    /// Reverse edges: `callers[n]` = node ids that call `n`.
    pub fn callers(&self) -> Vec<Vec<usize>> {
        let mut rev = vec![Vec::new(); self.nodes.len()];
        for (from, outs) in self.edges.iter().enumerate() {
            for &to in outs {
                rev[to].push(from);
            }
        }
        rev
    }

    /// Nodes reachable from `roots` (roots included), as a membership mask.
    pub fn reachable(&self, roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.into_iter().collect();
        while let Some(n) = stack.pop() {
            if seen[n] {
                continue;
            }
            seen[n] = true;
            for &m in &self.edges[n] {
                if !seen[m] {
                    stack.push(m);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[&str]) -> (Vec<SourceFile>, Vec<ParsedFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| SourceFile::from_source(format!("f{i}.rs"), s.to_string()))
            .collect();
        let refs: Vec<&SourceFile> = files.iter().collect();
        let parsed: Vec<ParsedFile> = refs.iter().map(|f| ParsedFile::parse(f)).collect();
        let g = CallGraph::build(&refs, &parsed);
        (files, parsed, g)
    }

    fn id(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    #[test]
    fn edges_cross_files_and_close_transitively() {
        let (_, _, g) = graph(&[
            "fn a() { b(); }\nfn b() { c(); }\n",
            "fn c() { leaf_fact(); }\nfn leaf_fact() {}\n",
        ]);
        let reach = g.reachable([id(&g, "a")]);
        assert!(reach[id(&g, "c")], "a reaches c across files");
        assert!(reach[id(&g, "leaf_fact")], "and c's callee");
    }

    #[test]
    fn recursion_converges() {
        let (_, _, g) = graph(&["fn x() { y(); }\nfn y() { x(); base(); }\nfn base() {}\n"]);
        let reach = g.reachable([id(&g, "x")]);
        assert!(reach[id(&g, "y")] && reach[id(&g, "base")]);
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let (_, _, g) = graph(&[
            "fn outer(v: &[u64]) { v.iter().for_each(|x| helper(*x)); }\nfn helper(_x: u64) { fact(); }\nfn fact() {}\n",
        ]);
        let reach = g.reachable([id(&g, "outer")]);
        assert!(reach[id(&g, "fact")], "closure call edges belong to outer");
    }

    #[test]
    fn callers_are_reverse_edges() {
        let (_, _, g) = graph(&["fn a() { shared(); }\nfn b() { shared(); }\nfn shared() {}\n"]);
        let rev = g.callers();
        let mut cs = rev[id(&g, "shared")].clone();
        cs.sort_unstable();
        assert_eq!(cs, vec![id(&g, "a"), id(&g, "b")]);
    }
}
