//! The benchmark's own span recorder for traced runs.
//!
//! Spans are taken around the calls the benchmark makes into each layer;
//! nothing inside the program is instrumented. Each span keeps its name,
//! start and end (µs since the tracer was made), the span that caused it,
//! and the request (or trip) it belongs to. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRecord {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; recorded when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_us: self.start.duration_since(self.tracer.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.tracer.origin).as_secs_f64() * 1e6,
        };
        // A poisoned lock only means another thread panicked mid-push; the
        // vector itself is still valid.
        match self.tracer.spans.lock() {
            Ok(mut v) => v.push(rec),
            Err(p) => p.into_inner().push(rec),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// Opens a span under `parent`, tagged with `request`.
    pub fn span(&self, name: &'static str, parent: Option<u64>, request: Option<u64>) -> Span<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span { tracer: self, id, parent, request, name, start: Instant::now() }
    }

    /// Runs `f` inside a root span and returns its result and duration in
    /// seconds.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.span(name, None, None);
        let t0 = span.start;
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        drop(span);
        (r, secs)
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match self.spans.lock() {
            Ok(v) => v.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(SpanRecord::dur_us).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_us,
                s.end_us
            )?;
        }
        w.flush()
    }
}
