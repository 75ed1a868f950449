//! In-memory spans for the traced run.
//!
//! The benchmark wraps each call it makes into the program in a span:
//! name, start, end, parent span and item id. Spans stay in memory while
//! the run measures and are written out, one JSON object per line, when
//! it ends. A disabled tracer records nothing, so the untraced runs that
//! give the end-to-end metrics pay only a branch per call.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Handle of a recorded span (or of nothing, on a disabled tracer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    item: u64,
}

/// Span recorder (see [the module](self)).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span that ran from `start` to `end`.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: parent.map(|p| p.0).filter(|&p| p != SpanId::NONE.0),
            item,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Opens a span that children will name as their parent; close it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, item: u64) -> SpanId {
        let now = Instant::now();
        self.push(name, parent, item, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end = self.origin.elapsed();
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Host time per recorded span, measured by recording `n` empty spans
    /// into a scratch tracer: the cost tracing adds per span.
    pub fn cost_per_span() -> Duration {
        const N: u32 = 100_000;
        let mut scratch = Tracer::new(true);
        scratch.spans.reserve(N as usize);
        let started = Instant::now();
        for i in 0..N {
            let t = Instant::now();
            scratch.push("calibrate", None, u64::from(i), t, t);
        }
        started.elapsed() / N
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"item\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.item
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let parent = t.open("round", None, 0);
        let now = Instant::now();
        t.push("call", Some(parent), 1, now, now);
        t.close(parent);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_keep_parent_and_item() {
        let mut t = Tracer::new(true);
        let round = t.open("round", None, 7);
        let start = Instant::now();
        let end = start + Duration::from_micros(5);
        let call = t.push("call", Some(round), 3, start, end);
        t.close(round);
        assert_eq!(call, SpanId(1));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].end - t.spans[1].start, Duration::from_micros(5));
        assert_eq!(t.spans[1].item, 3);
        assert!(t.spans[0].end >= t.spans[0].start);
    }
}
