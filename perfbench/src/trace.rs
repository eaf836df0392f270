//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name (`layer.call`), start and end in microseconds since
//! the tracer was created, the id of the span that caused it (0 = none)
//! and the request id it served. Spans are kept in memory and written as
//! NDJSON when the benchmark ends, so recording costs one lock and one
//! push, never I/O.
//!
//! The same [`Tracer::span`] call times the work whether tracing is on
//! or off; only the recording differs. The untraced run therefore takes
//! its timings from exactly the code the traced run uses, and the
//! difference between the two is the tracing overhead.

use mpmc_service::json::Json;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer with recording switched off or on, sharing this one's
    /// epoch and span store.
    pub fn with_enabled(&self, enabled: bool) -> TracerView<'_> {
        TracerView { tracer: self, enabled }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// wall time in seconds. `f` receives the span id (0 when not
    /// recording) for use as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        self.with_enabled(self.enabled).span(name, parent, request, f)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned by a panicking benchmark thread").len()
    }

    /// Writes the header line and every recorded span, one JSON object
    /// per line, to `path`.
    pub fn write(&self, path: &std::path::Path, header: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned by a panicking benchmark thread");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header.render())?;
        for s in spans.iter() {
            let line = Json::Obj(vec![
                ("id".into(), Json::Num(s.id as f64)),
                ("parent".into(), Json::Num(s.parent as f64)),
                ("request".into(), Json::Num(s.request as f64)),
                ("name".into(), Json::str(s.name)),
                ("start_us".into(), Json::Num(s.start_us)),
                ("end_us".into(), Json::Num(s.end_us)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// A [`Tracer`] with recording forced on or off.
pub struct TracerView<'a> {
    tracer: &'a Tracer,
    enabled: bool,
}

impl TracerView<'_> {
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = if self.enabled { self.tracer.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.enabled {
            let t = self.tracer;
            let us = |at: Instant| at.duration_since(t.epoch).as_secs_f64() * 1e6;
            let span = Span { id, parent, request, name, start_us: us(start), end_us: us(end) };
            t.spans.lock().expect("span store poisoned by a panicking benchmark thread").push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }
}
