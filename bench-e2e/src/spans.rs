//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into the system — one
//! around every HTTP request of a traced run, one around each public call
//! of the in-process replay — kept in memory, and written out as JSON
//! lines when the run ends. Nothing here reaches into the program: the
//! spans only bracket calls the benchmark itself makes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `op` ties spans of one operation together: an HTTP
/// read and the replay of that same read share it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// Time `f` as a child span of `parent`; returns its value and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, op);
        let out = f();
        (out, self.end(id))
    }

    /// Record an already-measured interval (used for HTTP requests, whose
    /// start is a scheduled send time rather than the moment of the call).
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) -> usize {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover (children are sequential in this recorder).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

/// Write the spans of several recorders as one JSON object per line; ids
/// are positions in the concatenated log.
pub fn write_jsonl(recorders: &[&Recorder], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0;
    for rec in recorders {
        for (i, (s, self_ns)) in rec.spans.iter().zip(rec.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |p| (p + base).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"op\":{}}}",
                i + base,
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        base += rec.spans.len();
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin("root", None, 7);
        rec.time("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(root);
        let self_ns = rec.self_ns();
        assert!(self_ns[0] < rec.spans()[0].dur_ns());
        assert_eq!(self_ns[1], rec.spans()[1].dur_ns());
        assert_eq!(rec.spans()[1].op, 7);
    }
}
