//! The seeded request schedule and the open-loop pacer.
//!
//! Every serving workload sends the same mix so their numbers compare:
//! 50% `EXACT` far, 25% `EXACT` near, 25% `KNN k=10` far, in a fixed
//! four-op rotation per connection. Vectors travel as `q=v:<values>`; the
//! server never generates its own input.

use crate::datagen::{self, Rng};

pub const KNN_K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `EXACT` on a fresh random walk: pruning leaves thousands of raw fetches.
    Far,
    /// `EXACT` on a noisy dataset member: the approximate answer is already
    /// the answer, so the query is scan-bound.
    Near,
    /// `KNN k=10` on a fresh random walk.
    Knn,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Far, Class::Near, Class::Knn];

    pub fn name(self) -> &'static str {
        match self {
            Class::Far => "far",
            Class::Near => "near",
            Class::Knn => "knn",
        }
    }

    /// The class of the `j`-th op of a connection.
    pub fn of(j: u64) -> Class {
        match j % 4 {
            0 | 2 => Class::Far,
            1 => Class::Near,
            _ => Class::Knn,
        }
    }
}

/// One scheduled query.
pub struct Op {
    pub class: Class,
    pub query: Vec<f32>,
    /// For near queries: the member the query was made from, and its
    /// distance to the query (the reply may not be farther).
    pub source: Option<(u64, f64)>,
}

impl Op {
    /// The request line a client sends.
    pub fn line(&self) -> String {
        let values = datagen::fmt_values(&self.query);
        match self.class {
            Class::Knn => format!("KNN k={KNN_K} q=v:{values}"),
            _ => format!("EXACT q=v:{values}"),
        }
    }
}

const STREAM_SOURCE: u64 = 4;

/// The op stream of one connection: a pure function of `(seed, conn, j)`,
/// so `query_static` and `distributed_k2` replay identical requests.
pub struct Schedule {
    seed: u64,
    conn: u64,
    len: usize,
    /// Near queries draw their source from members `0..near_below` (the
    /// prefix that is certainly indexed when the query is sent).
    near_below: u64,
    next: u64,
}

impl Schedule {
    pub fn new(seed: u64, conn: u64, len: usize, near_below: u64) -> Schedule {
        Schedule {
            seed,
            conn,
            len,
            near_below,
            next: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let j = self.next;
        self.next += 1;
        let index = (self.conn << 40) | j;
        match Class::of(j) {
            Class::Near => {
                let source = Rng::keyed(self.seed, STREAM_SOURCE, index).below(self.near_below);
                let (query, base) = datagen::near_query(self.seed, index, source, self.len);
                let dist = datagen::euclidean(&query, &base);
                Op {
                    class: Class::Near,
                    query,
                    source: Some((source, dist)),
                }
            }
            class => Op {
                class,
                query: datagen::far_query(self.seed, index, self.len),
                source: None,
            },
        }
    }
}

/// When an open-loop sender with one connection can send op `k`: at its due
/// time, or when the previous reply arrives if that is later.
pub fn send_time(due: f64, free_at: f64) -> f64 {
    due.max(free_at)
}

/// What an open loop records per op, all in milliseconds: how late the
/// generator sent it, the latency a user saw (timed from the due time, so a
/// stall charges the ops queued behind it), and the time inside the call.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopLog {
    pub late_ms: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
}

impl OpenLoopLog {
    /// Record an op due at `due`, sent at `sent`, answered at `done`
    /// (seconds on one clock).
    pub fn record(&mut self, due: f64, sent: f64, done: f64) {
        self.late_ms.push((sent - due).max(0.0) * 1e3);
        self.latency_ms.push((done - due) * 1e3);
        self.service_ms.push((done - sent) * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_has_the_stated_shares() {
        let classes: Vec<Class> = (0..400).map(Class::of).collect();
        let count = |c| classes.iter().filter(|&&x| x == c).count();
        assert_eq!(count(Class::Far), 200);
        assert_eq!(count(Class::Near), 100);
        assert_eq!(count(Class::Knn), 100);
    }

    #[test]
    fn schedules_replay_and_connections_differ() {
        let mut a = Schedule::new(9, 0, 64, 1000);
        let mut b = Schedule::new(9, 0, 64, 1000);
        let mut c = Schedule::new(9, 1, 64, 1000);
        for _ in 0..8 {
            let (x, y, z) = (a.next_op(), b.next_op(), c.next_op());
            assert_eq!(x.line(), y.line());
            assert_ne!(x.line(), z.line());
            if let Some((source, dist)) = x.source {
                assert!(source < 1000);
                assert!(dist > 0.0 && dist < 1.5);
            }
        }
        let mut short = Schedule::new(9, 0, 8, 10);
        let first = short.next_op();
        assert!(first.line().starts_with("EXACT q=v:"));
        assert_eq!(first.line().matches(',').count(), 7);
        let knn = (0..3).map(|_| short.next_op()).last().unwrap();
        assert!(knn.line().starts_with("KNN k=10 q=v:"));
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_ops_behind_it() {
        // Period 250 ms; the first call stalls for 600 ms, the rest take 100.
        let period = 0.25;
        let service = [0.6, 0.1, 0.1, 0.1];
        let mut log = OpenLoopLog::default();
        let mut free_at = 0.0;
        for (k, s) in service.iter().enumerate() {
            let due = k as f64 * period;
            let sent = send_time(due, free_at);
            free_at = sent + s;
            log.record(due, sent, free_at);
        }
        let round = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
        // Ops 1 and 2 were due at 250 and 500 ms but could only go out at
        // 600 and 700 ms; op 3 (due 750) waits for op 2's reply at 800.
        assert_eq!(round(&log.late_ms), vec![0.0, 350.0, 200.0, 50.0]);
        assert_eq!(round(&log.latency_ms), vec![600.0, 450.0, 300.0, 150.0]);
        assert_eq!(round(&log.service_ms), vec![600.0, 100.0, 100.0, 100.0]);
        // Timed from the send instead, the stall would be invisible:
        assert!(log.service_ms[1..]
            .iter()
            .all(|&s| (s - 100.0).abs() < 1e-6));
    }
}
