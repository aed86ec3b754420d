//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program,
//! never inside the program. Each span knows its parent; request spans of
//! the `serve` workload also carry the request id. Everything stays in
//! memory until [`Tracer::write_chrome`] dumps it as Chrome trace JSON
//! (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::cpu_seconds;

/// Index of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Option<Instant>,
    /// Process CPU seconds at start and end (synchronous spans only).
    cpu: (f64, f64),
    request: Option<u64>,
}

/// Self time of one span name: wall seconds and process CPU seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of every thread of the process.
    pub cpu: f64,
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced run pays only a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
            cpu: (cpu_seconds(), 0.0),
            request: None,
        });
        self.open.push(idx);
        Some(SpanId(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(SpanId(idx)) = id else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end = Some(Instant::now());
        self.spans[idx].cpu.1 = cpu_seconds();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished asynchronous span for request `request` under
    /// the innermost open span. Request spans overlap each other, so they
    /// never count against their parent's self time.
    pub fn request(&mut self, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start,
            end: Some(end),
            cpu: (0.0, 0.0),
            request: Some(request),
        });
    }

    fn duration(span: &Span) -> SelfTime {
        SelfTime {
            wall: span.end.map_or(0.0, |e| e.duration_since(span.start).as_secs_f64()),
            cpu: span.cpu.1 - span.cpu.0,
        }
    }

    /// Self time per span name: each synchronous span's duration minus
    /// the durations of its synchronous children, in wall and in CPU
    /// seconds. The self times of a root and all its descendants sum to
    /// the root's duration.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.request.is_none()) {
            let d = Self::duration(span);
            let own = out.entry(span.name.clone()).or_default();
            own.wall += d.wall;
            own.cpu += d.cpu;
            if let Some(p) = span.parent {
                let parent = out.entry(self.spans[p].name.clone()).or_default();
                parent.wall -= d.wall;
                parent.cpu -= d.cpu;
            }
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as Chrome trace JSON. Synchronous spans are
    /// complete (`X`) events on one track; request spans are async
    /// (`b`/`e`) pairs keyed by request id. Every event carries its span
    /// id and parent id in `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let end = span.end.unwrap_or(span.start);
            if id > 0 {
                out.push_str(",\n");
            }
            match span.request {
                None => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                        span.name,
                        us(span.start),
                        us(end) - us(span.start),
                    );
                }
                Some(req) => {
                    for (ph, t) in [("b", span.start), ("e", end)] {
                        if ph == "e" {
                            out.push_str(",\n");
                        }
                        let _ = write!(
                            out,
                            "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"{ph}\",\"pid\":1,\
                             \"tid\":2,\"id\":{req},\"ts\":{:.3},\
                             \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{req}}}}}",
                            span.name,
                            us(t),
                        );
                    }
                }
            }
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_synchronous_children_only() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(inner);
        let now = Instant::now();
        t.request("req", 7, now, now + std::time::Duration::from_secs(1));
        t.end(outer);
        let selfs = t.self_times();
        assert!(selfs["inner"].wall >= 0.005);
        // The one-second request span is not subtracted from `outer`.
        assert!(selfs["outer"].wall >= 0.0 && selfs["outer"].wall < 0.5);
        assert!(!selfs.contains_key("req"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert_eq!(t.len(), 0);
        assert!(t.self_times().is_empty());
    }
}
