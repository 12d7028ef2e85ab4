//! The empirical user-centric operation-transition graph (Fig. 8).
//!
//! Fig. 8 aggregates, per user, consecutive pairs of operations; edge
//! weights are global transition frequencies. We reconstruct it from the
//! trace: order every user's operations (storage + authentications) by
//! time and count transitions.

use crate::engine::TraceFold;
use serde::Serialize;
use u1_core::{ApiOpKind, FxHashMap};
use u1_trace::{Payload, TraceRecord};

/// One directed edge of the graph with its global probability.
#[derive(Debug, Clone, Serialize)]
pub struct Edge {
    pub from: &'static str,
    pub to: &'static str,
    /// Fraction of *all* transitions that are this edge (the paper labels
    /// its main edges with global probabilities).
    pub probability: f64,
}

/// The reconstructed transition graph.
#[derive(Debug, Serialize)]
pub struct TransitionGraph {
    pub total_transitions: u64,
    /// Edges sorted by probability descending, then by (from, to) name so
    /// equal-probability edges order deterministically.
    pub edges: Vec<Edge>,
    /// Per-state transition matrix rows: (from, to, conditional p).
    pub conditional: Vec<(&'static str, &'static str, f64)>,
}

impl TransitionGraph {
    /// Global probability of a specific edge.
    pub fn probability(&self, from: ApiOpKind, to: ApiOpKind) -> f64 {
        self.edges
            .iter()
            .find(|e| e.from == from.display_name() && e.to == to.display_name())
            .map(|e| e.probability)
            .unwrap_or(0.0)
    }
}

/// Normalizes a record to a chain state, or `None` if it doesn't belong in
/// Fig. 8 (MakeFile/MakeDir collapse into "Make" as the figure shows one
/// Make node).
fn chain_state(rec: &TraceRecord) -> Option<(u64, ApiOpKind)> {
    match &rec.payload {
        Payload::Storage(done) if done.success => {
            let op = match done.op {
                ApiOpKind::MakeDir => ApiOpKind::MakeFile, // collapse to Make
                ApiOpKind::OpenSession | ApiOpKind::CloseSession => return None,
                other => other,
            };
            Some((done.user.raw(), op))
        }
        Payload::Auth {
            user,
            success: true,
        } => Some((user.raw(), ApiOpKind::Authenticate)),
        _ => None,
    }
}

/// Streaming state behind [`transition_graph`]. Besides the edge counters,
/// a partial keeps each user's first and last chain state so the merge can
/// count the one boundary-straddling transition per user.
pub struct MarkovFold {
    counts: FxHashMap<(ApiOpKind, ApiOpKind), u64>,
    from_totals: FxHashMap<ApiOpKind, u64>,
    total: u64,
    first: FxHashMap<u64, ApiOpKind>,
    last: FxHashMap<u64, ApiOpKind>,
}

impl MarkovFold {
    pub fn new() -> Self {
        Self {
            counts: FxHashMap::default(),
            from_totals: FxHashMap::default(),
            total: 0,
            first: FxHashMap::default(),
            last: FxHashMap::default(),
        }
    }

    fn count_edge(&mut self, from: ApiOpKind, to: ApiOpKind) {
        *self.counts.entry((from, to)).or_default() += 1;
        *self.from_totals.entry(from).or_default() += 1;
        self.total += 1;
    }
}

impl Default for MarkovFold {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFold for MarkovFold {
    type Output = TransitionGraph;

    fn new_partial(&self) -> Self {
        MarkovFold::new()
    }

    fn feed(&mut self, rec: &TraceRecord) {
        let Some((user, op)) = chain_state(rec) else {
            return;
        };
        match self.last.insert(user, op) {
            Some(prev) => self.count_edge(prev, op),
            None => {
                self.first.insert(user, op);
            }
        }
    }

    fn merge(&mut self, mut later: Self) {
        // The boundary transition: our last op per user flows into the later
        // chunk's first op for the same user. Measure while both sides are
        // intact.
        for (user, first_op) in &later.first {
            if let Some(prev) = self.last.get(user).copied() {
                self.count_edge(prev, *first_op);
            }
        }
        // The edge counters are additive, so accumulate into whichever map
        // is larger — `finish` sorts, so map identity is invisible.
        if later.counts.len() > self.counts.len() {
            std::mem::swap(&mut self.counts, &mut later.counts);
        }
        for (key, c) in later.counts.drain() {
            *self.counts.entry(key).or_default() += c;
        }
        if later.from_totals.len() > self.from_totals.len() {
            std::mem::swap(&mut self.from_totals, &mut later.from_totals);
        }
        for (op, c) in later.from_totals.drain() {
            *self.from_totals.entry(op).or_default() += c;
        }
        self.total += later.total;
        // `last`: the later chunk wins; when the later map is the base,
        // earlier entries only fill absent keys.
        if later.last.len() > self.last.len() {
            std::mem::swap(&mut self.last, &mut later.last);
            for (user, op) in later.last.drain() {
                self.last.entry(user).or_insert(op);
            }
        } else {
            for (user, op) in later.last {
                self.last.insert(user, op);
            }
        }
        // `first`: the earlier chunk wins — the mirror image.
        if later.first.len() > self.first.len() {
            std::mem::swap(&mut self.first, &mut later.first);
            for (user, op) in later.first.drain() {
                self.first.insert(user, op);
            }
        } else {
            for (user, op) in later.first {
                self.first.entry(user).or_insert(op);
            }
        }
    }

    fn finish(self) -> TransitionGraph {
        let mut edges: Vec<Edge> = self
            .counts
            .iter()
            .map(|((from, to), c)| Edge {
                from: from.display_name(),
                to: to.display_name(),
                probability: *c as f64 / self.total.max(1) as f64,
            })
            .collect();
        edges.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap()
                .then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
        });
        let mut conditional: Vec<(&'static str, &'static str, f64)> = self
            .counts
            .iter()
            .map(|((from, to), c)| {
                (
                    from.display_name(),
                    to.display_name(),
                    *c as f64 / self.from_totals[from].max(1) as f64,
                )
            })
            .collect();
        conditional.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        TransitionGraph {
            total_transitions: self.total,
            edges,
            conditional,
        }
    }
}

pub fn transition_graph(records: &[TraceRecord]) -> TransitionGraph {
    crate::engine::run_fold(MarkovFold::new(), records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use u1_core::ApiOpKind::*;

    #[test]
    fn counts_per_user_transitions_only() {
        let recs = vec![
            // User 1: Upload -> Upload -> Download.
            transfer(at(1), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(2), Upload, 1, 1, 2, 10, 2, "a"),
            transfer(at(3), Download, 1, 1, 1, 10, 1, "a"),
            // User 2 interleaved: must not create cross-user edges.
            op(at(2), ListVolumes, 2, 2),
            op(at(4), ListShares, 2, 2),
        ];
        let g = transition_graph(&recs);
        assert_eq!(g.total_transitions, 3);
        assert!((g.probability(Upload, Upload) - 1.0 / 3.0).abs() < 1e-9);
        assert!((g.probability(Upload, Download) - 1.0 / 3.0).abs() < 1e-9);
        assert!((g.probability(ListVolumes, ListShares) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(g.probability(Download, ListVolumes), 0.0);
    }

    #[test]
    fn make_dir_collapses_into_make() {
        let recs = vec![
            node_op(at(1), MakeDir, 1, 1, 1, u1_core::NodeKind::Directory),
            node_op(at(2), MakeFile, 1, 1, 2, u1_core::NodeKind::File),
        ];
        let g = transition_graph(&recs);
        assert!((g.probability(MakeFile, MakeFile) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auth_enters_the_chain() {
        let recs = vec![
            auth(at(1), 1, true),
            op(at(2), ListVolumes, 1, 1),
            op(at(3), ListShares, 1, 1),
        ];
        let g = transition_graph(&recs);
        assert!(g.probability(Authenticate, ListVolumes) > 0.0);
        // Conditional: from Authenticate, everything went to ListVolumes.
        let cond = g
            .conditional
            .iter()
            .find(|(f, t, _)| *f == "Authenticate" && *t == "List Vol.")
            .unwrap();
        assert!((cond.2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failed_ops_are_excluded() {
        let mut bad = transfer(at(2), Upload, 1, 1, 1, 10, 1, "a");
        if let Payload::Storage(done) = &mut bad.payload {
            done.success = false;
        }
        let recs = vec![transfer(at(1), Upload, 1, 1, 1, 10, 1, "a"), bad];
        let g = transition_graph(&recs);
        assert_eq!(g.total_transitions, 0);
    }

    #[test]
    fn chunk_boundary_transitions_are_counted_once() {
        let recs = vec![
            transfer(at(1), Upload, 1, 1, 1, 10, 1, "a"),
            transfer(at(2), Upload, 2, 2, 2, 10, 2, "a"),
            transfer(at(3), Download, 1, 1, 1, 10, 1, "a"),
            transfer(at(4), Download, 2, 2, 2, 10, 2, "a"),
            transfer(at(5), Upload, 1, 1, 3, 10, 3, "a"),
        ];
        let serial = transition_graph(&recs);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = crate::engine::run_chunks(MarkovFold::new(), &[a, b]);
            assert_eq!(
                got.total_transitions, serial.total_transitions,
                "split={split}"
            );
            assert_eq!(
                serde_json::to_value(&got.edges),
                serde_json::to_value(&serial.edges),
                "split={split}"
            );
        }
    }
}
