//! A line-protocol client: one persistent TCP connection, one request in
//! flight, replies parsed into typed answers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A request that takes longer than this counts as timed out (and failed).
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect, retrying for up to `patience` while the listener comes up.
    pub fn connect(addr: &str, patience: Duration) -> Result<Conn, String> {
        let deadline = Instant::now() + patience;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_nodelay(true)
                        .and_then(|_| stream.set_read_timeout(Some(REQUEST_TIMEOUT)))
                        .map_err(|e| format!("configuring socket to {addr}: {e}"))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                    });
                }
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("connecting to {addr}: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Send one request line and read the one-line reply.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|_| stream.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed by the server".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// `STATS`: the Prometheus text up to the `# EOF` terminator.
    pub fn stats(&mut self) -> Result<String, String> {
        let stream = self.reader.get_mut();
        stream
            .write_all(b"STATS\n")
            .map_err(|e| format!("send failed: {e}"))?;
        let mut body = String::new();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed during STATS".into()),
                Ok(_) if line.trim_end() == "# EOF" => return Ok(body),
                Ok(_) if line.starts_with("ERR") => return Err(line.trim_end().to_string()),
                Ok(_) => body.push_str(&line),
                Err(e) => return Err(format!("no STATS reply: {e}")),
            }
        }
    }
}

/// The value of gauge/counter `name` in a Prometheus text body.
pub fn scrape(body: &str, name: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok())?
    })
}

/// `key=value` field of a reply line.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}

pub fn field_f64(reply: &str, key: &str) -> Option<f64> {
    field(reply, key)?.parse().ok()
}

/// A query reply: the hits (one for `EXACT`, k for `KNN`) in rank order and
/// the dataset prefix they were computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    pub hits: Vec<(u64, f64)>,
    pub covered: u64,
}

/// Parse `OK exact pos=<p> dist=<d> covered=<c> ...` or
/// `OK knn k=<k> covered=<c> seq=<s> hits=<p:d,...>`; anything else
/// (`ERR ...`, a refusal, garbage) is an error.
pub fn parse_query_reply(reply: &str) -> Result<QueryReply, String> {
    let bad = || format!("unexpected reply: {}", &reply[..reply.len().min(160)]);
    let covered = field_u64(reply, "covered").ok_or_else(bad)?;
    if reply.starts_with("OK exact ") {
        let pos = field_u64(reply, "pos").ok_or_else(bad)?;
        let dist = field_f64(reply, "dist").ok_or_else(bad)?;
        Ok(QueryReply {
            hits: vec![(pos, dist)],
            covered,
        })
    } else if reply.starts_with("OK knn ") {
        let hits = field(reply, "hits")
            .ok_or_else(bad)?
            .split(',')
            .map(|h| {
                let (p, d) = h.split_once(':')?;
                Some((p.parse().ok()?, d.parse().ok()?))
            })
            .collect::<Option<Vec<(u64, f64)>>>()
            .ok_or_else(bad)?;
        Ok(QueryReply { hits, covered })
    } else {
        Err(bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exact_and_knn_replies() {
        let r = parse_query_reply(
            "OK exact pos=30431 dist=5.93359416919439 covered=1000000 seq=2 fetched=6593",
        )
        .unwrap();
        assert_eq!(r.hits, vec![(30431, 5.93359416919439)]);
        assert_eq!(r.covered, 1_000_000);
        let r =
            parse_query_reply("OK knn k=2 covered=500 seq=9 hits=68426:8.15,664682:8.16").unwrap();
        assert_eq!(r.hits, vec![(68426, 8.15), (664682, 8.16)]);
        assert_eq!(r.covered, 500);
        assert!(parse_query_reply("ERR busy: admission queue full").is_err());
        assert!(parse_query_reply("OK exact pos=none dist=inf covered=0 seq=0").is_err());
        assert!(parse_query_reply("OK knn k=3 covered=5 seq=1 hits=none").is_err());
    }

    #[test]
    fn scrapes_prometheus_text() {
        let body = "# HELP coconut_runs Live runs.\n# TYPE coconut_runs gauge\ncoconut_runs 3\ncoconut_write_amp 2.75\n";
        assert_eq!(scrape(body, "coconut_runs"), Some(3.0));
        assert_eq!(scrape(body, "coconut_write_amp"), Some(2.75));
        assert_eq!(scrape(body, "coconut_missing"), None);
        assert_eq!(
            field_u64("OK ingest covered=500 added=5 runs=2", "added"),
            Some(5)
        );
    }
}
