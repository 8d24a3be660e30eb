//! The worker pool and per-connection I/O.
//!
//! Accepted connections go through a **bounded admission queue**
//! ([`std::sync::mpsc::sync_channel`]): when every worker is busy and the
//! queue is full, the connection is refused immediately with
//! `ERR busy: ...` instead of piling up latency — the open-loop load
//! experiment counts these rejections rather than letting them distort
//! tail latency.
//!
//! Workers speak the line protocol of [`crate::protocol`], and also answer
//! minimal HTTP `GET`s (`/metrics`, `/health`) so `curl` and Prometheus
//! scrapers work against the same port. Reads poll with a short timeout so
//! a worker parked on an idle connection still notices server shutdown.
//! An optional **idle-read timeout** closes connections that send nothing
//! for too long (counted by `coconut_idle_disconnect_total` via
//! [`Handler::on_idle_disconnect`]), so abandoned clients cannot pin
//! worker threads forever.
//!
//! The pool is generic over the request [`Handler`], so the same
//! connection machinery serves a single-node [`Engine`], a shard worker,
//! and the coordinator.
//!
//! Fault injection (chaos tests): the `server.read` and `server.write`
//! [`coconut_storage::fault`] sites fire on this module's socket
//! operations; either one dropping simulates a connection reset, which
//! clients must survive via reconnect-and-retry.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::engine::{Engine, Handler};

/// How often a blocked read wakes to re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Upper bound on one request line (a `q=v:` vector of a few thousand
/// floats fits comfortably); longer lines are refused with a typed
/// `ERR parse` before the connection closes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A fixed set of worker threads fed connections through a bounded queue.
pub struct Pool<H: Handler = Engine> {
    handler: Arc<H>,
    tx: Mutex<Option<SyncSender<TcpStream>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<H: Handler> Pool<H> {
    /// Spawn `workers` threads sharing an admission queue of `queue`
    /// waiting connections (beyond the ones being served).
    /// `idle_timeout` (when set) closes connections that send no bytes for
    /// that long; `None` keeps idle connections open indefinitely.
    pub fn new(
        handler: Arc<H>,
        workers: usize,
        queue: usize,
        idle_timeout: Option<Duration>,
        shutdown: Arc<AtomicBool>,
    ) -> Pool<H> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        // Failing to spawn a worker at startup (OS thread limit) leaves
        // nothing to serve with — panicking out of `new` is the only
        // honest outcome, hence the escape hatch.
        #[allow(clippy::expect_used)]
        let workers = (0..workers.max(1))
            .map(|i| {
                let handler = Arc::clone(&handler);
                let rx = Arc::clone(&rx);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("coconut-serve-{i}"))
                    .spawn(move || worker_loop(handler, rx, idle_timeout, shutdown))
                    .expect("spawning a server worker thread")
            })
            .collect();
        Pool {
            handler,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        }
    }

    /// Hand a connection to the pool. Returns `false` when the admission
    /// queue is full: the refusal is counted ([`Handler::on_rejected`])
    /// *before* `ERR busy` is written, so a client that has read the reply
    /// already sees it in the metrics.
    pub fn dispatch(&self, stream: TcpStream) -> bool {
        let tx = match self.tx.lock().clone() {
            Some(tx) => tx,
            None => return false,
        };
        match tx.try_send(stream) {
            Ok(()) => true,
            Err(TrySendError::Full(mut stream)) | Err(TrySendError::Disconnected(mut stream)) => {
                self.handler.on_rejected();
                let _ = stream.write_all(b"ERR busy: admission queue full\n");
                let _ = stream.shutdown(std::net::Shutdown::Both);
                false
            }
        }
    }

    /// Close the queue and join every worker. Idempotent.
    pub fn join(&self) {
        drop(self.tx.lock().take());
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop<H: Handler>(
    handler: Arc<H>,
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    idle_timeout: Option<Duration>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        // Hold the receiver lock only while waiting for a connection.
        let conn = {
            let rx = rx.lock();
            rx.recv_timeout(POLL_INTERVAL)
        };
        match conn {
            Ok(stream) => handle_connection(&*handler, stream, idle_timeout, &shutdown),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One read step of [`LineReader::next_line`].
enum Next {
    /// A complete request line (terminator stripped).
    Line(String),
    /// The line grew past [`MAX_LINE_BYTES`] without a newline; the caller
    /// replies with a typed parse error and closes.
    Oversized,
    /// Nothing arrived for the idle-read timeout; the caller counts the
    /// idle disconnect and closes.
    Idle,
    /// EOF, shutdown, or a fatal read error.
    Closed,
}

/// A line reader over a polling (read-timeout) stream that survives
/// partial reads and re-checks `shutdown` between polls.
struct LineReader<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
    /// Bytes read but not yet consumed as lines.
    pending: Vec<u8>,
    /// Close the connection when no bytes arrive for this long.
    idle_timeout: Option<Duration>,
    /// When the last byte arrived (or the reader was created).
    last_activity: std::time::Instant,
    shutdown: &'a AtomicBool,
}

impl LineReader<'_> {
    /// Next newline-terminated line (without the terminator), or why one
    /// could not be produced.
    fn next_line(&mut self) -> Next {
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=nl).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Next::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.pending.len() > MAX_LINE_BYTES {
                return Next::Oversized;
            }
            self.buf.resize(4096, 0);
            let mut stream = self.stream;
            match stream.read(&mut self.buf) {
                Ok(0) => return Next::Closed,
                Ok(n) => {
                    // The fault site fires per received chunk (not per
                    // idle poll), so `@n`/`every:k` triggers count request
                    // traffic deterministically.
                    if coconut_storage::fault::fires("server.read").is_some() {
                        return Next::Closed;
                    }
                    self.pending.extend_from_slice(&self.buf[..n]);
                    self.last_activity = std::time::Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.shutdown.load(Ordering::Relaxed) {
                        return Next::Closed;
                    }
                    if let Some(limit) = self.idle_timeout {
                        if self.last_activity.elapsed() >= limit {
                            return Next::Idle;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Next::Closed,
            }
        }
    }
}

fn handle_connection<H: Handler>(
    handler: &H,
    stream: TcpStream,
    idle_timeout: Option<Duration>,
    shutdown: &Arc<AtomicBool>,
) {
    // Poll at least as often as the idle limit so short limits still fire
    // promptly.
    let poll = idle_timeout.map_or(POLL_INTERVAL, |t| {
        t.min(POLL_INTERVAL).max(Duration::from_millis(1))
    });
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader {
        stream: &stream,
        buf: Vec::new(),
        pending: Vec::new(),
        idle_timeout,
        last_activity: std::time::Instant::now(),
        shutdown,
    };
    let mut out = &stream;
    loop {
        let line = match reader.next_line() {
            Next::Line(line) => line,
            Next::Oversized => {
                let _ = out.write_all(
                    format!("ERR parse: request line exceeds {MAX_LINE_BYTES} bytes\n").as_bytes(),
                );
                break;
            }
            Next::Idle => {
                handler.on_idle_disconnect();
                let _ = out.write_all(b"ERR unavailable: idle-read timeout, closing\n");
                break;
            }
            Next::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        // HTTP sniffing: a GET request line switches the connection to
        // one-shot HTTP mode so `curl http://.../metrics` just works.
        if let Some(path) = line.strip_prefix("GET ") {
            let path = path.split_whitespace().next().unwrap_or("/");
            // Drain the request headers up to the blank line.
            while let Next::Line(header) = reader.next_line() {
                if header.trim().is_empty() {
                    break;
                }
            }
            let _ = write_http_response(&mut out, handler, path);
            break;
        }
        let outcome = handler.execute_line(&line);
        if coconut_storage::fault::fires("server.write").is_some() {
            break; // injected reply loss: drop the connection mid-reply
        }
        if out
            .write_all(format!("{}\n", outcome.reply).as_bytes())
            .is_err()
            || outcome.close
        {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn write_http_response<H: Handler>(
    out: &mut &TcpStream,
    handler: &H,
    path: &str,
) -> std::io::Result<()> {
    let (status, body) = match path {
        "/metrics" | "/stats" => ("200 OK", handler.metrics_text()),
        "/health" => ("200 OK", format!("{}\n", handler.health_line())),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.write_all(header.as_bytes())?;
    out.write_all(body.as_bytes())
}
