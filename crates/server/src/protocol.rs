//! The wire protocol: line-delimited requests, plain-text responses.
//!
//! A request is one line, `VERB key=value ...` (case-insensitive verb,
//! order-free arguments). Responses are one line starting `OK` or
//! `ERR <category>: <message>` — except `STATS`, whose multi-line
//! Prometheus body is terminated by a `# EOF` line. The same socket also
//! accepts minimal HTTP `GET`s (for `curl`/Prometheus scrapers); see
//! `crate::pool`.
//!
//! Malformed lines never drop the connection: [`parse`] returns a typed
//! [`ParseError`] naming the offending token, which the engine surfaces as
//! a one-line `ERR parse: ...` reply (bounded in length no matter what the
//! client sent — see [`ParseError::new`]).
//!
//! Query vectors come in three forms, so load generators, debuggers, and
//! real clients all have a convenient entry:
//!
//! * `q=seed:<n>` — a z-normalized random walk generated from seed `n`
//!   (deterministic: client and oracle can regenerate it);
//! * `q=pos:<n>` — the dataset's own series at position `n`;
//! * `q=v:<a,b,c,...>` — explicit comma-separated values.
//!
//! The shard fabric adds two verbs and one argument: `SHARD-INFO` reports a
//! worker's assigned slice and ingest progress, `BUILD start=<s> end=<e>
//! [upto=<n>]` assigns a slice and indexes it, and `bound=<d>` on
//! `EXACT`/`KNN` carries the coordinator's pruning bound (candidates at or
//! beyond it cannot enter the merged answer and are not returned).
//!
//! Query verbs accept `mode=strict|degraded` (default strict). Strict
//! queries fail when any shard is unreachable; degraded queries answer
//! over the live shards and append `degraded=1 missing=<a..b,...>` naming
//! the unconsulted slices. When every shard answers, a degraded reply is
//! byte-identical to the strict one. A single node has no shards to lose,
//! so `mode=degraded` is accepted but never degrades there.

use coconut_core::Query;
use coconut_series::Value;

/// A request line the parser could not understand: what was wrong, plus the
/// offending token so clients can locate the mistake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was expected or violated.
    pub msg: String,
    /// The token that failed to parse (empty when the whole line is at
    /// fault, e.g. an empty request). Truncated to a bounded length so the
    /// error reply stays small no matter what arrived on the wire.
    pub token: String,
}

/// Longest offending-token excerpt kept in a [`ParseError`]; anything
/// longer is truncated with an ellipsis so replies stay bounded.
const MAX_TOKEN_EXCERPT: usize = 64;

impl ParseError {
    /// Build a parse error for `token` (pass `""` when no single token is
    /// at fault). The token excerpt is truncated to a bounded length.
    pub fn new(msg: impl std::fmt::Display, token: &str) -> Self {
        let token = if token.len() > MAX_TOKEN_EXCERPT {
            let mut cut = MAX_TOKEN_EXCERPT;
            while !token.is_char_boundary(cut) {
                cut -= 1;
            }
            format!("{}...", &token[..cut])
        } else {
            token.to_string()
        };
        ParseError {
            msg: msg.to_string(),
            token,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.token.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{} (offending token {:?})", self.msg, self.token)
        }
    }
}

impl std::error::Error for ParseError {}

/// Result alias for the request parser.
pub type ParseResult<T> = std::result::Result<T, ParseError>;

/// How a request names its query vector.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Generate a z-normalized random walk from this seed.
    Seed(u64),
    /// Use the dataset's series at this position.
    Pos(u64),
    /// Explicit values (must match the dataset's series length).
    Values(Vec<Value>),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered `OK pong`.
    Ping,
    /// One-line health summary (covered prefix, run count).
    Health,
    /// Prometheus metrics, terminated by `# EOF`.
    Stats,
    /// Exact 1-NN.
    Exact {
        /// The query vector.
        query: QuerySpec,
        /// Per-request deadline in milliseconds (None = server default).
        deadline_ms: Option<u64>,
        /// Pruning bound from a coordinator's earlier shards (None = no
        /// bound); only candidates strictly below it are returned.
        bound: Option<f64>,
        /// `mode=degraded`: tolerate unreachable shards and report the
        /// missing slices instead of failing.
        degraded: bool,
    },
    /// Exact k-NN.
    Knn {
        /// Number of neighbors.
        k: usize,
        /// The query vector.
        query: QuerySpec,
        /// Per-request deadline in milliseconds (None = server default).
        deadline_ms: Option<u64>,
        /// Pruning bound from a coordinator's earlier shards (None = no
        /// bound); only candidates strictly below it are returned.
        bound: Option<f64>,
        /// `mode=degraded`: tolerate unreachable shards and report the
        /// missing slices instead of failing.
        degraded: bool,
    },
    /// Exact range query.
    Range {
        /// Inclusive Euclidean distance threshold.
        epsilon: f64,
        /// The query vector.
        query: QuerySpec,
        /// Per-request deadline in milliseconds (None = server default).
        deadline_ms: Option<u64>,
        /// `mode=degraded`: tolerate unreachable shards and report the
        /// missing slices instead of failing.
        degraded: bool,
    },
    /// Index the dataset prefix up to `upto` (None = the whole dataset).
    Ingest {
        /// End (exclusive) of the prefix to cover.
        upto: Option<u64>,
    },
    /// Assign the shard slice `start..end` and index it up to `upto`
    /// (None = the whole slice). On an unassigned shard worker this creates
    /// (or recovers) the slice index; elsewhere it must match the existing
    /// assignment.
    Build {
        /// First position of the assigned slice.
        start: u64,
        /// One past the last position of the assigned slice.
        end: u64,
        /// Index the slice up to here (clamped into `start..end`).
        upto: Option<u64>,
    },
    /// Report the shard's assigned slice and ingest progress.
    ShardInfo,
    /// Merge every run into one and wait for it.
    Compact,
    /// Sweep unpinned garbage run directories now.
    Gc,
    /// Close the connection.
    Quit,
}

/// The query a request line carries, in the form every layer below the
/// protocol answers ([`Request::query`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireQuery<'a> {
    /// How the request names its query vector.
    pub series: &'a QuerySpec,
    /// Kind and `bound=` as parsed; the deadline is left for the engine,
    /// which owns the server default.
    pub query: Query,
    /// Per-request deadline in milliseconds (None = server default).
    pub deadline_ms: Option<u64>,
    /// `mode=degraded`.
    pub degraded: bool,
}

impl Request {
    /// The query of an `EXACT` / `KNN` / `RANGE` request (`None` for every
    /// other verb).
    pub fn query(&self) -> Option<WireQuery<'_>> {
        let (query, series, deadline_ms, bound, degraded) = match self {
            Request::Exact {
                query,
                deadline_ms,
                bound,
                degraded,
            } => (Query::nearest(), query, deadline_ms, *bound, degraded),
            Request::Knn {
                k,
                query,
                deadline_ms,
                bound,
                degraded,
            } => (Query::knn(*k), query, deadline_ms, *bound, degraded),
            Request::Range {
                epsilon,
                query,
                deadline_ms,
                degraded,
            } => (Query::range(*epsilon), query, deadline_ms, None, degraded),
            _ => return None,
        };
        Some(WireQuery {
            series,
            query: Query {
                bound: bound.unwrap_or(f64::INFINITY),
                ..query
            },
            deadline_ms: *deadline_ms,
            degraded: *degraded,
        })
    }
}

fn bad(msg: impl std::fmt::Display, token: &str) -> ParseError {
    ParseError::new(msg, token)
}

fn parse_query_spec(v: &str) -> ParseResult<QuerySpec> {
    if let Some(seed) = v.strip_prefix("seed:") {
        return Ok(QuerySpec::Seed(
            seed.parse()
                .map_err(|_| bad("q=seed: wants an integer", v))?,
        ));
    }
    if let Some(pos) = v.strip_prefix("pos:") {
        return Ok(QuerySpec::Pos(
            pos.parse().map_err(|_| bad("q=pos: wants an integer", v))?,
        ));
    }
    if let Some(vals) = v.strip_prefix("v:") {
        let parsed: std::result::Result<Vec<Value>, _> =
            vals.split(',').map(|x| x.trim().parse::<Value>()).collect();
        let parsed = parsed.map_err(|_| bad("q=v: wants comma-separated numbers", v))?;
        if parsed.is_empty() {
            return Err(bad("q=v: needs at least one value", v));
        }
        return Ok(QuerySpec::Values(parsed));
    }
    Err(bad("q= must be seed:<n>, pos:<n>, or v:<a,b,...>", v))
}

/// Key-value arguments after the verb, with typed accessors.
struct Args<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(tokens: &[&'a str]) -> ParseResult<Self> {
        let mut pairs = Vec::with_capacity(tokens.len());
        for t in tokens {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| bad("argument is not key=value", t))?;
            pairs.push((k, v));
        }
        Ok(Args { pairs })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn required_query(&self) -> ParseResult<QuerySpec> {
        parse_query_spec(self.get("q").ok_or_else(|| bad("missing q=", ""))?)
    }

    fn u64_opt(&self, key: &str) -> ParseResult<Option<u64>> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| bad(format!("{key}= wants an integer"), v))
            })
            .transpose()
    }

    fn u64_req(&self, key: &str) -> ParseResult<u64> {
        self.u64_opt(key)?
            .ok_or_else(|| bad(format!("missing {key}="), ""))
    }

    fn f64_req(&self, key: &str) -> ParseResult<f64> {
        let v = self
            .get(key)
            .ok_or_else(|| bad(format!("missing {key}="), ""))?;
        let parsed: f64 = v
            .parse()
            .map_err(|_| bad(format!("{key}= wants a number"), v))?;
        if !parsed.is_finite() || parsed < 0.0 {
            return Err(bad(format!("{key}= must be finite and non-negative"), v));
        }
        Ok(parsed)
    }

    /// `mode=strict` (false) or `mode=degraded` (true); strict by default.
    fn degraded_opt(&self) -> ParseResult<bool> {
        match self.get("mode") {
            None | Some("strict") => Ok(false),
            Some("degraded") => Ok(true),
            Some(v) => Err(bad("mode= must be strict or degraded", v)),
        }
    }

    /// Optional non-negative bound; `inf` is accepted (meaning: no bound).
    fn bound_opt(&self) -> ParseResult<Option<f64>> {
        let Some(v) = self.get("bound") else {
            return Ok(None);
        };
        let parsed: f64 = v.parse().map_err(|_| bad("bound= wants a number", v))?;
        if parsed.is_nan() || parsed < 0.0 {
            return Err(bad("bound= must be non-negative (inf allowed)", v));
        }
        Ok(Some(parsed))
    }
}

/// Parse one request line. Empty (or all-whitespace) lines are invalid —
/// the connection handler skips them before calling this.
pub fn parse(line: &str) -> ParseResult<Request> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((verb, rest)) = tokens.split_first() else {
        return Err(bad("empty request", ""));
    };
    let verb = verb.to_ascii_uppercase();
    let args = Args::parse(rest)?;
    match verb.as_str() {
        "PING" => Ok(Request::Ping),
        "HEALTH" => Ok(Request::Health),
        "STATS" | "METRICS" => Ok(Request::Stats),
        "EXACT" => Ok(Request::Exact {
            query: args.required_query()?,
            deadline_ms: args.u64_opt("deadline_ms")?,
            bound: args.bound_opt()?,
            degraded: args.degraded_opt()?,
        }),
        "KNN" => {
            let k = args
                .u64_req("k")?
                .try_into()
                .map_err(|_| bad("k= is too large", args.get("k").unwrap_or("")))?;
            Ok(Request::Knn {
                k,
                query: args.required_query()?,
                deadline_ms: args.u64_opt("deadline_ms")?,
                bound: args.bound_opt()?,
                degraded: args.degraded_opt()?,
            })
        }
        "RANGE" => Ok(Request::Range {
            epsilon: args.f64_req("eps")?,
            query: args.required_query()?,
            deadline_ms: args.u64_opt("deadline_ms")?,
            degraded: args.degraded_opt()?,
        }),
        "INGEST" => Ok(Request::Ingest {
            upto: args.u64_opt("upto")?,
        }),
        "BUILD" => {
            let start = args.u64_req("start")?;
            let end = args.u64_req("end")?;
            if end < start {
                return Err(bad(
                    "end= must be at least start=",
                    args.get("end").unwrap_or(""),
                ));
            }
            Ok(Request::Build {
                start,
                end,
                upto: args.u64_opt("upto")?,
            })
        }
        "SHARD-INFO" => Ok(Request::ShardInfo),
        "COMPACT" => Ok(Request::Compact),
        "GC" => Ok(Request::Gc),
        "QUIT" => Ok(Request::Quit),
        _ => Err(bad("unknown verb", &verb)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_verbs() {
        assert_eq!(parse("PING").unwrap(), Request::Ping);
        assert_eq!(parse("quit").unwrap(), Request::Quit);
        assert_eq!(
            parse("EXACT q=seed:7 deadline_ms=250").unwrap(),
            Request::Exact {
                query: QuerySpec::Seed(7),
                deadline_ms: Some(250),
                bound: None,
                degraded: false,
            }
        );
        assert_eq!(
            parse("KNN k=5 q=pos:12").unwrap(),
            Request::Knn {
                k: 5,
                query: QuerySpec::Pos(12),
                deadline_ms: None,
                bound: None,
                degraded: false,
            }
        );
        let r = parse("RANGE eps=1.5 q=v:0.5,-1,2.25").unwrap();
        assert_eq!(
            r,
            Request::Range {
                epsilon: 1.5,
                query: QuerySpec::Values(vec![0.5, -1.0, 2.25]),
                deadline_ms: None,
                degraded: false,
            }
        );
        assert_eq!(
            parse("INGEST upto=4000").unwrap(),
            Request::Ingest { upto: Some(4000) }
        );
        assert_eq!(parse("INGEST").unwrap(), Request::Ingest { upto: None });
    }

    #[test]
    fn query_requests_convert_to_one_query() {
        use coconut_core::Kind;
        let r = parse("KNN k=5 q=pos:12 bound=2.5 deadline_ms=40 mode=degraded").unwrap();
        let w = r.query().unwrap();
        assert_eq!(w.series, &QuerySpec::Pos(12));
        assert_eq!((w.query.kind, w.query.bound), (Kind::Knn(5), 2.5));
        assert_eq!((w.deadline_ms, w.degraded), (Some(40), true));
        let w = parse("EXACT q=seed:7").unwrap();
        assert_eq!(w.query().unwrap().query, Query::nearest());
        let w = parse("RANGE eps=1.5 q=seed:7").unwrap();
        assert_eq!(w.query().unwrap().query, Query::range(1.5));
        assert!(parse("PING").unwrap().query().is_none());
        assert!(parse("INGEST upto=4").unwrap().query().is_none());
    }

    #[test]
    fn parses_shard_verbs_and_bounds() {
        assert_eq!(parse("SHARD-INFO").unwrap(), Request::ShardInfo);
        assert_eq!(parse("shard-info").unwrap(), Request::ShardInfo);
        assert_eq!(
            parse("BUILD start=100 end=200 upto=150").unwrap(),
            Request::Build {
                start: 100,
                end: 200,
                upto: Some(150),
            }
        );
        assert_eq!(
            parse("BUILD start=0 end=50").unwrap(),
            Request::Build {
                start: 0,
                end: 50,
                upto: None,
            }
        );
        let r = parse("EXACT q=seed:1 bound=2.5").unwrap();
        assert_eq!(
            r,
            Request::Exact {
                query: QuerySpec::Seed(1),
                deadline_ms: None,
                bound: Some(2.5),
                degraded: false,
            }
        );
        // An explicit infinite bound round-trips (meaning: no bound).
        let r = parse("KNN k=2 q=seed:1 bound=inf").unwrap();
        let Request::Knn { bound, .. } = r else {
            panic!()
        };
        assert_eq!(bound, Some(f64::INFINITY));
    }

    #[test]
    fn parses_query_mode() {
        for (line, want) in [
            ("EXACT q=seed:1", false),
            ("EXACT q=seed:1 mode=strict", false),
            ("EXACT q=seed:1 mode=degraded", true),
        ] {
            let Request::Exact { degraded, .. } = parse(line).unwrap() else {
                panic!()
            };
            assert_eq!(degraded, want, "{line}");
        }
        let Request::Knn { degraded, .. } = parse("KNN k=2 q=seed:1 mode=degraded").unwrap() else {
            panic!()
        };
        assert!(degraded);
        let Request::Range { degraded, .. } = parse("RANGE eps=1 q=seed:1 mode=degraded").unwrap()
        else {
            panic!()
        };
        assert!(degraded);
        assert!(parse("EXACT q=seed:1 mode=yolo").is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "FROB",
            "EXACT",
            "EXACT q=walrus:1",
            "KNN q=seed:1",
            "KNN k=abc q=seed:1",
            "RANGE q=seed:1",
            "RANGE eps=-1 q=seed:1",
            "RANGE eps=nan q=seed:1",
            "EXACT q=v:",
            "INGEST upto=many",
            "BUILD end=5",
            "BUILD start=10 end=5",
            "EXACT q=seed:1 bound=-2",
            "EXACT q=seed:1 bound=nan",
        ] {
            assert!(parse(line).is_err(), "should reject {line:?}");
        }
    }

    #[test]
    fn parse_errors_name_the_offending_token() {
        let e = parse("FROB x=1").unwrap_err();
        assert!(e.to_string().contains("FROB"), "{e}");
        let e = parse("EXACT q=walrus:1").unwrap_err();
        assert!(e.to_string().contains("walrus"), "{e}");
        let e = parse("KNN k=abc q=seed:1").unwrap_err();
        assert!(e.to_string().contains("abc"), "{e}");
        let e = parse("EXACT notkeyvalue").unwrap_err();
        assert!(e.to_string().contains("notkeyvalue"), "{e}");
    }

    #[test]
    fn oversized_tokens_are_truncated_in_errors() {
        let long = format!("EXACT {}", "x".repeat(100_000));
        let e = parse(&long).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.len() < 256,
            "reply must stay bounded: {} bytes",
            msg.len()
        );
        assert!(msg.contains("..."), "{msg}");
    }
}
