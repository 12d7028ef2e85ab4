//! Workspace model for the concurrency rules: an approximate call graph
//! over every function's [`crate::facts::FnFacts`], the lock-acquisition
//! graph with one level of call propagation, its cycles, and the
//! reach-to-output closure used by U1L008.
//!
//! Resolution is by name *plus qualifier* (see [`CallQual`]): bare calls
//! resolve to free functions, `self.foo(..)` / `Self::foo(..)` to the
//! caller's own impl block, and `Type::foo(..)` to any `impl Type`. Method
//! calls on other receivers carry no type information and are not resolved
//! at all. The graph still over-approximates (same-named impls of one type
//! name merge) and under-approximates (trait objects, function pointers,
//! closures, and unqualified method calls are invisible); both directions
//! are documented in DESIGN.md §12.

use crate::diag::json_escape;
use crate::facts::{self, CallQual, CallSite, FileFacts};
use crate::model::SourceFile;
use std::collections::HashMap;

/// A function's global identity: (file index, facts index).
pub type FnId = (usize, usize);

/// One edge in the lock-acquisition graph: `held` was live when `acquired`
/// was taken.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    /// `path:line` of the held lock's acquisition.
    pub held_site: String,
    /// `path:line` of the second acquisition.
    pub acquired_site: String,
    /// Anchor for the finding/suppression: file index + line of the second
    /// acquisition *in the function under analysis* (for propagated edges
    /// this is the call site, which is where the `allow` belongs).
    pub anchor_file: usize,
    pub anchor_line: usize,
    /// Function the edge was observed in, plus the callee for propagated
    /// edges.
    pub via: String,
}

/// The workspace concurrency model shared by U1L006–U1L008.
pub struct Workspace {
    pub facts: Vec<FileFacts>,
    /// fn name → all functions with that name (filter by [`CallQual`] via
    /// `resolve` before following).
    pub by_name: HashMap<String, Vec<FnId>>,
    /// Per-file crate name, aligned with `facts`.
    pub crates: Vec<Option<String>>,
    /// Lock graph edges, deduplicated by (held, acquired, anchor).
    pub edges: Vec<LockEdge>,
    /// Whether each function reaches trace/report/JSON output (its own
    /// sink mark, or transitively through calls).
    pub reaches_output: Vec<Vec<bool>>,
}

/// Candidate targets for `call` made from file `fi` inside `caller_owner`'s
/// impl block (None for free callers).
fn resolve(
    by_name: &HashMap<String, Vec<FnId>>,
    facts: &[FileFacts],
    crates: &[Option<String>],
    fi: usize,
    caller_owner: Option<&str>,
    call: &CallSite,
) -> Vec<FnId> {
    by_name
        .get(&call.name)
        .into_iter()
        .flatten()
        .copied()
        .filter(|&(cf, cg)| {
            let callee = &facts[cf].fns[cg];
            match &call.qual {
                CallQual::Bare => callee.owner.is_none(),
                CallQual::SelfMethod => {
                    caller_owner.is_some()
                        && callee.owner.as_deref() == caller_owner
                        && crates[cf] == crates[fi]
                }
                CallQual::Typed(t) => callee.owner.as_deref() == Some(t.as_str()),
            }
        })
        .collect()
}

impl Workspace {
    pub fn build(files: &[SourceFile]) -> Workspace {
        let facts: Vec<FileFacts> = files.iter().map(facts::extract).collect();
        let crates: Vec<Option<String>> = files.iter().map(|f| f.crate_name.clone()).collect();

        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (fi, ff) in facts.iter().enumerate() {
            for (gi, f) in ff.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }

        let reaches_output = compute_reaches_output(&facts, &by_name, &crates);
        let edges = build_lock_edges(files, &facts, &by_name, &crates);

        Workspace {
            facts,
            by_name,
            crates,
            edges,
            reaches_output,
        }
    }

    /// Elementary cycles in the lock graph, each as the ordered edge list
    /// closing the loop. Cycles are reported once, rooted at their
    /// lexicographically smallest lock id, so output is deterministic.
    pub fn cycles(&self) -> Vec<Vec<&LockEdge>> {
        // Adjacency: lock → outgoing edges, deterministic order.
        let mut adj: HashMap<&str, Vec<&LockEdge>> = HashMap::new();
        for e in &self.edges {
            adj.entry(e.held.as_str()).or_default().push(e);
        }
        for v in adj.values_mut() {
            v.sort_by(|a, b| (&a.acquired, &a.anchor_line).cmp(&(&b.acquired, &b.anchor_line)));
        }
        let mut roots: Vec<&str> = adj.keys().copied().collect();
        roots.sort();

        let mut cycles: Vec<Vec<&LockEdge>> = Vec::new();
        let mut seen: Vec<Vec<String>> = Vec::new();
        for root in roots {
            // DFS from `root`, only visiting locks >= root so each cycle is
            // found exactly once (rooted at its smallest node).
            let mut stack: Vec<(&str, Vec<&LockEdge>)> = vec![(root, Vec::new())];
            while let Some((node, path)) = stack.pop() {
                if path.len() > 8 {
                    continue; // cycle length bound; workspace graphs are tiny
                }
                for e in adj.get(node).into_iter().flatten() {
                    if e.acquired.as_str() == root {
                        let mut cyc = path.clone();
                        cyc.push(e);
                        let key: Vec<String> = cyc.iter().map(|e| e.acquired.clone()).collect();
                        let mut norm = key.clone();
                        norm.sort();
                        if !seen.contains(&norm) {
                            seen.push(norm);
                            cycles.push(cyc);
                        }
                    } else if e.acquired.as_str() > root
                        && !path.iter().any(|p| p.acquired == e.acquired)
                    {
                        let mut next = path.clone();
                        next.push(e);
                        stack.push((e.acquired.as_str(), next));
                    }
                }
            }
        }
        cycles
    }

    /// Renders the full lock graph as JSON for the `lock-graph.json`
    /// review artifact: nodes, edges (with the files of both sites), and
    /// cycles.
    pub fn lock_graph_json(&self) -> String {
        let mut nodes: Vec<&str> = Vec::new();
        for e in &self.edges {
            for n in [e.held.as_str(), e.acquired.as_str()] {
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
        }
        nodes.sort_unstable();

        let mut out = String::from("{\n  \"nodes\": [");
        for (i, n) in nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(n)));
        }
        out.push_str("],\n  \"edges\": [\n");
        // Sites are exported as file paths only: the committed graph must
        // not change when an edit merely moves a lock to another line. Edges
        // that then read the same (one per call site of a helper, say) are
        // one edge.
        let site_path = |site: &str| json_escape(site.rsplit_once(':').map_or(site, |(p, _)| p));
        let mut rows: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"held\": \"{}\", \"acquired\": \"{}\", \"held_site\": \"{}\", \
                     \"acquired_site\": \"{}\", \"via\": \"{}\"}}",
                    json_escape(&e.held),
                    json_escape(&e.acquired),
                    site_path(&e.held_site),
                    site_path(&e.acquired_site),
                    json_escape(&e.via),
                )
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        for (i, row) in rows.iter().enumerate() {
            let sep = if i + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!("    {row}{sep}\n"));
        }
        out.push_str("  ],\n  \"cycles\": [\n");
        let cycles = self.cycles();
        for (i, cyc) in cycles.iter().enumerate() {
            let path: Vec<String> = std::iter::once(cyc[0].held.clone())
                .chain(cyc.iter().map(|e| e.acquired.clone()))
                .collect();
            out.push_str(&format!(
                "    [{}]{}\n",
                path.iter()
                    .map(|p| format!("\"{}\"", json_escape(p)))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < cycles.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A shortest call chain (as fn names) from `from` to any sink-marked
    /// function, for U1L008 diagnostics. Returns `None` when the function
    /// itself is the sink.
    pub fn sink_witness(&self, from: FnId) -> Option<Vec<String>> {
        if self.facts[from.0].fns[from.1].sink_mark {
            return None;
        }
        // BFS forward over call edges.
        let mut queue = std::collections::VecDeque::new();
        let mut visited: Vec<(FnId, Option<usize>)> = Vec::new();
        queue.push_back(from);
        visited.push((from, None));
        while let Some(cur) = queue.pop_front() {
            let cur_pos = visited.iter().position(|(id, _)| *id == cur).unwrap();
            let cur_owner = self.facts[cur.0].fns[cur.1].owner.clone();
            for call in &self.facts[cur.0].fns[cur.1].calls {
                for callee in resolve(
                    &self.by_name,
                    &self.facts,
                    &self.crates,
                    cur.0,
                    cur_owner.as_deref(),
                    call,
                ) {
                    if visited.iter().any(|(id, _)| *id == callee) {
                        continue;
                    }
                    visited.push((callee, Some(cur_pos)));
                    if self.facts[callee.0].fns[callee.1].sink_mark {
                        // Reconstruct path.
                        let mut names = vec![self.facts[callee.0].fns[callee.1].name.clone()];
                        let mut p = Some(visited.len() - 1);
                        while let Some(idx) = p {
                            let (id, parent) = visited[idx];
                            if id != callee {
                                names.push(self.facts[id.0].fns[id.1].name.clone());
                            }
                            p = parent;
                        }
                        names.reverse();
                        return Some(names);
                    }
                    queue.push_back(callee);
                }
            }
        }
        None
    }
}

/// Fixed-point: a function reaches output when sink-marked or when any
/// resolvable call targets a function that reaches output.
fn compute_reaches_output(
    facts: &[FileFacts],
    by_name: &HashMap<String, Vec<FnId>>,
    crates: &[Option<String>],
) -> Vec<Vec<bool>> {
    let mut reaches: Vec<Vec<bool>> = facts
        .iter()
        .map(|ff| ff.fns.iter().map(|f| f.sink_mark).collect())
        .collect();
    loop {
        let mut changed = false;
        for fi in 0..facts.len() {
            for gi in 0..facts[fi].fns.len() {
                if reaches[fi][gi] {
                    continue;
                }
                let owner = facts[fi].fns[gi].owner.clone();
                let hits = facts[fi].fns[gi].calls.iter().any(|c| {
                    resolve(by_name, facts, crates, fi, owner.as_deref(), c)
                        .iter()
                        .any(|&(cf, cg)| reaches[cf][cg])
                });
                if hits {
                    reaches[fi][gi] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return reaches;
        }
    }
}

/// Builds the lock graph: direct edges (guard live range contains a second
/// acquisition) plus one level of call propagation (guard live range
/// contains a call to a function that acquires).
fn build_lock_edges(
    files: &[SourceFile],
    facts: &[FileFacts],
    by_name: &HashMap<String, Vec<FnId>>,
    crates: &[Option<String>],
) -> Vec<LockEdge> {
    let mut edges: Vec<LockEdge> = Vec::new();
    let push = |e: LockEdge, edges: &mut Vec<LockEdge>| {
        let dup = edges.iter().any(|x| {
            x.held == e.held
                && x.acquired == e.acquired
                && x.anchor_file == e.anchor_file
                && x.anchor_line == e.anchor_line
        });
        if !dup {
            edges.push(e);
        }
    };

    for (fi, ff) in facts.iter().enumerate() {
        let path = &files[fi].rel_path;
        for f in &ff.fns {
            for held in &f.acquisitions {
                let range = held.live_first..=held.live_last;
                // Direct: another acquisition inside the live range.
                for second in &f.acquisitions {
                    if second.tok > held.tok && range.contains(&second.tok) {
                        push(
                            LockEdge {
                                held: held.lock.clone(),
                                acquired: second.lock.clone(),
                                held_site: format!("{path}:{}", held.line),
                                acquired_site: format!("{path}:{}", second.line),
                                anchor_file: fi,
                                anchor_line: second.line,
                                via: f.name.clone(),
                            },
                            &mut edges,
                        );
                    }
                }
                // One call level: callee's acquisitions count as taken while
                // the guard is held.
                for call in &f.calls {
                    if call.tok <= held.tok || !range.contains(&call.tok) {
                        continue;
                    }
                    for (cf, cg) in resolve(by_name, facts, crates, fi, f.owner.as_deref(), call) {
                        if (cf, cg) == (fi, f.fn_idx) {
                            continue; // self-recursion
                        }
                        let callee = &facts[cf].fns[cg];
                        for acq in &callee.acquisitions {
                            push(
                                LockEdge {
                                    held: held.lock.clone(),
                                    acquired: acq.lock.clone(),
                                    held_site: format!("{path}:{}", held.line),
                                    acquired_site: format!("{}:{}", files[cf].rel_path, acq.line),
                                    anchor_file: fi,
                                    anchor_line: call.line,
                                    via: format!("{} -> {}", f.name, callee.name),
                                },
                                &mut edges,
                            );
                        }
                    }
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn ws(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Workspace) {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let w = Workspace::build(&files);
        (files, w)
    }

    #[test]
    fn direct_cycle_is_found() {
        let src = r#"
fn ab(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
}
fn ba(&self) {
    let g = self.beta.lock();
    let h = self.alpha.lock();
}
"#;
        let (_, w) = ws(&[("crates/u1-x/src/l.rs", src)]);
        assert_eq!(w.edges.len(), 2);
        let cycles = w.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = r#"
fn one(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
}
fn two(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
}
"#;
        let (_, w) = ws(&[("crates/u1-x/src/l.rs", src)]);
        // One alpha -> beta edge per acquisition site, but no cycle.
        assert_eq!(w.edges.len(), 2);
        assert!(w.cycles().is_empty());
    }

    #[test]
    fn one_level_call_propagation_closes_cycle() {
        let a = r#"
fn outer(&self) {
    let g = self.alpha.lock();
    helper();
}
"#;
        let b = r#"
fn helper(&self) {
    let g = self.beta.lock();
    let h = self.alpha.lock();
}
"#;
        // Same crate (different files), so `self.alpha` names one lock.
        let (_, w) = ws(&[("crates/u1-x/src/a.rs", a), ("crates/u1-x/src/b.rs", b)]);
        // outer: alpha -> beta and alpha -> alpha (propagated through
        // helper); helper: beta -> alpha (direct). Both alpha -> beta ->
        // alpha and the propagated self-edge are cycles.
        assert_eq!(w.edges.len(), 3, "{:?}", w.edges);
        let cycles = w.cycles();
        assert!(
            cycles
                .iter()
                .any(|c| c.len() == 2 && c.iter().any(|e| e.via.contains("helper"))),
            "{cycles:?}"
        );
    }

    #[test]
    fn cross_crate_same_field_name_stays_distinct() {
        let a = "fn f(&self) { let g = self.alpha.lock(); helper(); }\n";
        let b = "fn helper(&self) { let g = self.alpha.lock(); }\n";
        let (_, w) = ws(&[("crates/u1-x/src/a.rs", a), ("crates/u1-y/src/b.rs", b)]);
        // u1-x/alpha -> u1-y/alpha is an edge, not a self-loop cycle.
        assert_eq!(w.edges.len(), 1);
        assert!(w.cycles().is_empty());
    }

    #[test]
    fn temporaries_do_not_create_edges() {
        let src = r#"
fn f(&self) {
    self.alpha.lock().insert(k, v);
    self.beta.lock().insert(k, v);
}
"#;
        let (_, w) = ws(&[("crates/u1-x/src/l.rs", src)]);
        assert!(w.edges.is_empty(), "{:?}", w.edges);
    }

    #[test]
    fn reach_closure_is_transitive() {
        let src = r#"
fn leaf(&self) -> u64 { 7 }
fn mid(&self) { leaf(); }
fn sink(&self) { mid(); emit(id, human, json); }
fn island(&self) { leaf(); }
"#;
        let (_, w) = ws(&[("crates/u1-x/src/l.rs", src)]);
        let names: Vec<(&str, bool)> = w.facts[0]
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), w.reaches_output[0][i]))
            .collect();
        assert_eq!(
            names,
            vec![
                ("leaf", false),
                ("mid", false),
                ("sink", true),
                ("island", false)
            ]
        );
    }

    #[test]
    fn lock_graph_json_is_well_formed() {
        let src = r#"
fn ab(&self) {
    let g = self.alpha.lock();
    let h = self.beta.lock();
}
"#;
        let (_, w) = ws(&[("crates/u1-x/src/l.rs", src)]);
        let json = w.lock_graph_json();
        assert!(json.contains("\"u1-x/alpha\""));
        assert!(json.contains("\"held\": \"u1-x/alpha\""));
        assert!(json.contains("\"cycles\": ["));
    }
}
