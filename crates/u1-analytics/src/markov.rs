//! The empirical user-centric operation-transition graph (Fig. 8).
//!
//! Fig. 8 aggregates, per user, consecutive pairs of operations; edge
//! weights are global transition frequencies. We reconstruct it from the
//! trace: order every user's operations (storage + authentications) by
//! time and count transitions.

use crate::engine::Ends;
use serde::Serialize;
use u1_core::ApiOpKind;

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

/// The Fig. 8 state of a successful storage op, or `None` if it does not
/// belong in the chain (MakeFile/MakeDir collapse into "Make" as the
/// figure shows one Make node).
pub(crate) fn chain_op(op: ApiOpKind) -> Option<ApiOpKind> {
    match op {
        ApiOpKind::MakeDir => Some(ApiOpKind::MakeFile),
        ApiOpKind::OpenSession | ApiOpKind::CloseSession => None,
        other => Some(other),
    }
}

const OPS: usize = ApiOpKind::ALL.len();

/// Transition counts, indexed `[from][to]` by `ApiOpKind` declaration
/// order. A state's outgoing total is its row's sum.
#[derive(Debug)]
pub(crate) struct Transitions {
    counts: [[u64; OPS]; OPS],
    total: u64,
}

impl Default for Transitions {
    fn default() -> Self {
        Self {
            counts: [[0; OPS]; OPS],
            total: 0,
        }
    }
}

impl Transitions {
    fn edge(&mut self, (from, to): (ApiOpKind, ApiOpKind)) {
        self.counts[from as usize][to as usize] += 1;
        self.total += 1;
    }

    /// One chain state of a user whose chain so far is `ends`.
    pub(crate) fn step(&mut self, ends: &mut Ends<ApiOpKind>, op: ApiOpKind) {
        if let Some(prev) = ends.push(op) {
            self.edge((prev, op));
        }
    }

    /// Appends the same user's chain in the chunk after this one, counting
    /// the transition that spans the boundary.
    pub(crate) fn join(&mut self, earlier: &mut Ends<ApiOpKind>, later: Ends<ApiOpKind>) {
        if let Some(pair) = earlier.join(later) {
            self.edge(pair);
        }
    }

    /// Adds the counts of the chunk after this one.
    pub(crate) fn merge(&mut self, later: &Transitions) {
        for (mine, theirs) in self.counts.iter_mut().zip(&later.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.total += later.total;
    }

    pub(crate) fn finish(&self) -> TransitionGraph {
        let seen = || {
            ApiOpKind::ALL.into_iter().flat_map(|from| {
                ApiOpKind::ALL.into_iter().filter_map(move |to| {
                    let c = self.counts[from as usize][to as usize];
                    (c > 0).then_some((from, to, c))
                })
            })
        };
        let mut edges: Vec<Edge> = seen()
            .map(|(from, to, c)| Edge {
                from: from.display_name(),
                to: to.display_name(),
                probability: c as f64 / self.total.max(1) as f64,
            })
            .collect();
        edges.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap()
                .then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
        });
        let mut conditional: Vec<(&'static str, &'static str, f64)> = seen()
            .map(|(from, to, c)| {
                let out: u64 = self.counts[from as usize].iter().sum();
                (
                    from.display_name(),
                    to.display_name(),
                    c as f64 / out.max(1) as f64,
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

#[cfg(test)]
mod tests {
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
        let g = chunked(&[&recs], at(60)).markov;
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
        let g = chunked(&[&recs], at(60)).markov;
        assert!((g.probability(MakeFile, MakeFile) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auth_enters_the_chain() {
        let recs = vec![
            auth(at(1), 1, true),
            op(at(2), ListVolumes, 1, 1),
            op(at(3), ListShares, 1, 1),
        ];
        let g = chunked(&[&recs], at(60)).markov;
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
        if let u1_trace::Payload::Storage(done) = &mut bad.payload {
            done.success = false;
        }
        let recs = vec![transfer(at(1), Upload, 1, 1, 1, 10, 1, "a"), bad];
        let g = chunked(&[&recs], at(60)).markov;
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
        let serial = chunked(&[&recs], at(60)).markov;
        assert_eq!(serial.total_transitions, 3);
        for split in 0..=recs.len() {
            let (a, b) = recs.split_at(split);
            let got = chunked(&[a, b], at(60)).markov;
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
