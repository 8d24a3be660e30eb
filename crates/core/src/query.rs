//! The one query description every layer answers.
//!
//! A [`Query`] says *what* to find (its [`Kind`]), under which distance
//! (its [`Metric`]), and the three knobs every layer honours the same way:
//! the approximate-seed `radius`, an external pruning `bound`, and a
//! cooperative `deadline`. The sorted-leaf indexes, [`crate::Snapshot`],
//! [`crate::ShardBackend`] and [`crate::ShardSet`] each expose a single
//! `search(series, &Query)`; the wire protocol converts a request line
//! straight into one.
//!
//! # The answer order
//!
//! Answers are totally ordered by `(dist, pos)` ([`dist_pos`]): equal
//! distances break towards the lower raw-file position, whatever order the
//! index happened to scan in. Every collector and every cross-run /
//! cross-shard merge uses this one comparison, so an answer list does not
//! depend on the index layout it came from.
//!
//! # The bound
//!
//! `bound` is *strict*: only candidates with `dist < bound` are returned.
//! Layers that merge parts covering ascending position ranges (the shards
//! of a set) pass each part the worst distance merged so far
//! ([`Query::tightened`]); a later part's tie at the bound has a higher
//! position than everything already merged and could never displace it, so
//! dropping it is exact. The runs of a snapshot share one collector
//! instead. `f64::INFINITY` disables the bound.

use std::cmp::Ordering;

use coconut_series::index::Answer;
use coconut_storage::Deadline;

/// What a query returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The exact nearest neighbor (Algorithm 5).
    Nearest,
    /// The exact `k` nearest neighbors.
    Knn(usize),
    /// Every series within this (inclusive) distance.
    Range(f64),
    /// The best candidate of the seed leaves only (Algorithm 4).
    Approx,
}

/// The distance a query ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Euclidean distance.
    Ed,
    /// Dynamic Time Warping under a Sakoe–Chiba band of this radius.
    Dtw(usize),
}

/// One similarity query, minus the query series itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// What to return.
    pub kind: Kind,
    /// The distance to rank by.
    pub metric: Metric,
    /// Leaves evaluated on each side of the query's own leaf to seed the
    /// best-so-far (the paper's CTree(1) / CTree(10) variants).
    pub radius: usize,
    /// Strict external pruning bound (`f64::INFINITY` = none).
    pub bound: f64,
    /// Cooperative deadline, checked at the scan's checkpoints.
    pub deadline: Deadline,
}

impl Query {
    /// A query of `kind` with the defaults: Euclidean, radius 1, no bound,
    /// no deadline. Set the other fields with struct-update syntax.
    pub fn new(kind: Kind) -> Self {
        Query {
            kind,
            metric: Metric::Ed,
            radius: 1,
            bound: f64::INFINITY,
            deadline: Deadline::NONE,
        }
    }

    /// Exact 1-NN.
    pub fn nearest() -> Self {
        Query::new(Kind::Nearest)
    }

    /// Exact k-NN.
    pub fn knn(k: usize) -> Self {
        Query::new(Kind::Knn(k))
    }

    /// Exact range query.
    pub fn range(epsilon: f64) -> Self {
        Query::new(Kind::Range(epsilon))
    }

    /// Approximate 1-NN.
    pub fn approx() -> Self {
        Query::new(Kind::Approx)
    }

    /// The most answers this query can return (`None`: unlimited).
    pub fn limit(&self) -> Option<usize> {
        match self.kind {
            Kind::Nearest | Kind::Approx => Some(1),
            Kind::Knn(k) => Some(k),
            Kind::Range(_) => None,
        }
    }

    /// This query for the next part (run, shard) of a merge that already
    /// holds `merged`: once the merged list is full its worst distance
    /// caps the bound.
    pub fn tightened(&self, merged: &[Answer]) -> Query {
        let mut next = *self;
        if let Some(worst) = self.limit().and_then(|k| merged.get(k.wrapping_sub(1))) {
            next.bound = next.bound.min(worst.dist);
        }
        next
    }

    /// Fold one part's answers into `merged`, keeping it `(dist, pos)`
    /// sorted and within [`Query::limit`].
    pub fn merge(&self, merged: &mut Vec<Answer>, part: Vec<Answer>) {
        merged.extend(part);
        merged.sort_by(dist_pos);
        if let Some(k) = self.limit() {
            merged.truncate(k);
        }
    }
}

/// The total answer order: distance, then raw-file position.
pub fn dist_pos(a: &Answer, b: &Answer) -> Ordering {
    a.dist.total_cmp(&b.dist).then(a.pos.cmp(&b.pos))
}

/// The best of a `(dist, pos)`-sorted answer list, or [`Answer::none`].
pub fn nearest_of(answers: &[Answer]) -> Answer {
    answers.first().copied().unwrap_or_else(Answer::none)
}

/// A search result narrowed to its best answer ([`nearest_of`]).
pub fn first<S>((answers, stats): (Vec<Answer>, S)) -> (Answer, S) {
    (nearest_of(&answers), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(pos: u64, dist: f64) -> Answer {
        Answer { pos, dist }
    }

    #[test]
    fn merge_orders_by_dist_then_pos_and_truncates() {
        let q = Query::knn(3);
        let mut merged = vec![a(9, 1.0), a(4, 2.0)];
        q.merge(&mut merged, vec![a(2, 2.0), a(7, 0.5), a(1, 3.0)]);
        assert_eq!(merged, vec![a(7, 0.5), a(9, 1.0), a(2, 2.0)]);
        let mut all = vec![a(3, 1.0)];
        Query::range(5.0).merge(&mut all, vec![a(1, 1.0), a(2, 4.0)]);
        assert_eq!(all, vec![a(1, 1.0), a(3, 1.0), a(2, 4.0)]);
    }

    #[test]
    fn bound_tightens_only_once_the_merge_is_full() {
        let q = Query::knn(2);
        assert_eq!(q.tightened(&[a(1, 1.0)]).bound, f64::INFINITY);
        assert_eq!(q.tightened(&[a(1, 1.0), a(2, 3.0)]).bound, 3.0);
        let capped = Query {
            bound: 2.0,
            ..Query::knn(2)
        };
        assert_eq!(capped.tightened(&[a(1, 1.0), a(2, 3.0)]).bound, 2.0);
        assert_eq!(Query::nearest().tightened(&[a(5, 0.25)]).bound, 0.25);
        assert_eq!(
            Query::range(9.0).tightened(&[a(5, 0.25)]).bound,
            f64::INFINITY
        );
        assert_eq!(Query::knn(0).tightened(&[]).bound, f64::INFINITY);
        assert_eq!(nearest_of(&[]), Answer::none());
    }
}
