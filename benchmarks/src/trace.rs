//! Spans around calls into a layer's public functions.
//!
//! A span is a name, a start, an end, the span that caused it and a request
//! id. Spans stay in memory and are written out once, at the end of the
//! run. A layer's self time is its spans' duration minus the part of each
//! interval that child spans cover (children may overlap one another).
//!
//! Spans *inside* the crates are a later change; this recorder only wraps
//! the calls the benchmark itself makes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The request this span belongs to (spans of one request share it).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct State {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    enabled: bool,
}

/// The recorder. Single-threaded on purpose: the traced run drives the
/// layers from one thread, so its exact counts repeat bit for bit.
pub struct Tracer {
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            state: RefCell::new(State {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                request: 0,
                enabled: true,
            }),
        }
    }

    /// Turn recording off (for the untraced side of the overhead
    /// measurement) or back on.
    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    /// Start a new request; spans opened from now on carry its id.
    pub fn next_request(&self) -> u64 {
        let mut s = self.state.borrow_mut();
        s.request += 1;
        s.request
    }

    /// Open a span named `name` under whatever span is open now.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let mut s = self.state.borrow_mut();
        if !s.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let id = s.spans.len() as u32;
        let now = s.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: s.open.last().copied(),
            request: s.request,
            name,
            start_ns: now,
            end_ns: now,
        };
        s.spans.push(span);
        s.open.push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Time `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    pub fn len(&self) -> usize {
        self.state.borrow().spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Total and self nanoseconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.state.borrow().spans)
    }

    /// One JSON object per line.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.state.borrow().spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let mut s = self.tracer.state.borrow_mut();
        let now = s.epoch.elapsed().as_nanos() as u64;
        s.spans[id as usize].end_ns = now;
        // Guards drop in reverse order of creation, so `id` is on top.
        s.open.retain(|&o| o != id);
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Nanoseconds of `start..end` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Sum duration and self time by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let inside = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - inside;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // request 0..100 > search 10..90 > fetch 20..50
        let spans = [
            span(0, None, "request", 0, 100),
            span(1, Some(0), "search", 10, 90),
            span(2, Some(1), "fetch", 20, 50),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["request"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["search"],
            Totals {
                count: 1,
                total_ns: 80,
                self_ns: 50
            }
        );
        assert_eq!(
            t["fetch"],
            Totals {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        // Self times add up to the root: nothing is counted twice.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Two parallel children overlap on 40..60; a third is disjoint; a
        // fourth sticks out past the parent's end and is clipped.
        let spans = [
            span(0, None, "scan", 0, 100),
            span(1, Some(0), "worker", 10, 60),
            span(2, Some(0), "worker", 40, 80),
            span(3, Some(0), "worker", 85, 90),
            span(4, Some(0), "worker", 95, 120),
        ];
        let t = totals(&spans);
        // Union: 10..80 (70) + 85..90 (5) + 95..100 (5) = 80 covered.
        assert_eq!(t["scan"].self_ns, 20);
        assert_eq!(t["worker"].count, 4);
        assert_eq!(t["worker"].total_ns, 50 + 40 + 5 + 25);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let tr = Tracer::new();
        let r1 = tr.next_request();
        {
            let _a = tr.span("outer");
            tr.time("inner", || std::hint::black_box(1 + 1));
        }
        let r2 = tr.next_request();
        tr.time("outer", || ());
        tr.set_enabled(false);
        tr.time("ignored", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].request),
            ("outer", None, r1)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].request),
            ("inner", Some(0), r1)
        );
        assert_eq!((spans[2].parent, spans[2].request), (None, r2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let dir = std::env::temp_dir().join(format!("coconut-perf-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        tr.flush(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("start_ns").is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
