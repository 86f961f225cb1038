//! In-memory spans around calls into the program's layers.
//!
//! A span records its name, start, end, parent span, the session it
//! belongs to, and the heap allocations made while it was open. Spans
//! stay in memory until the run ends and are then written out as JSONL.
//! A span's *self* time (and self allocations) is its own minus what its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::alloc::allocations;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The session (replayed unit) the span belongs to.
    pub session: u32,
    /// The layer call, e.g. `tvsim.press`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Heap allocations made while the span was open.
    pub allocs: u64,
}

/// Records spans; a disabled tracer just runs the calls, which is how
/// the same replay is measured untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    session: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the calls.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            session: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts the spans of a new session.
    pub fn begin_session(&mut self, session: u32, expected_spans: usize) {
        self.session = session;
        // Reserve up front so the tracer's own growth is not counted
        // against the layers it measures.
        self.spans.reserve(expected_spans);
    }

    /// Runs `call` inside a span named `name`.
    pub fn call<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return call();
        }
        let index = self.open(name);
        let result = call();
        self.close(index);
        result
    }

    /// Opens a span and returns its index for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32 + 1,
            parent,
            session: self.session,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(index);
        let span = &mut self.spans[index];
        span.allocs = allocations();
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
        index
    }

    /// Closes the span opened at `index`.
    pub fn close(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let allocs = allocations();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        self.stack.pop();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"session\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.id, s.parent, s.session, s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Self time and self allocations of one span name, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Σ self time in ns.
    pub self_ns: u64,
    /// Σ self allocations.
    pub self_allocs: u64,
}

impl LayerTotals {
    /// Adds another set of totals of the same layer.
    pub fn add(&mut self, other: LayerTotals) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
    }
}

/// Folds spans into per-name totals of self time and self allocations.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    let mut child_allocs = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        child_allocs[s.parent as usize] += s.allocs;
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[s.id as usize]);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            Span {
                id: 1,
                parent: 0,
                session: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                allocs: 5,
            },
            Span {
                id: 2,
                parent: 1,
                session: 0,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                allocs: 2,
            },
            Span {
                id: 3,
                parent: 1,
                session: 0,
                name: "inner",
                start_ns: 50,
                end_ns: 60,
                allocs: 1,
            },
        ];
        let totals = self_totals(&spans);
        assert_eq!(totals["outer"].self_ns, 60);
        assert_eq!(totals["outer"].self_allocs, 2);
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["inner"].self_ns, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.call("x", || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
