//! In-memory spans around calls into the crates, written out when a
//! traced run ends.
//!
//! A probe span is a replay of its parent's operation one layer down: the
//! root span is what the client waited for, a child re-issues the same
//! operation at the next layer's public entry point (the reactor round
//! trip, then `submit_line().wait()`, then `handle_line`, then the
//! library calls behind it). A layer's self time is its span's duration
//! minus its child's.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `mapper.search`.
    pub name: &'static str,
    /// Operation id shared by every span of one request or design.
    pub op: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder of one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its value and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let value = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        });
        (value, self.spans.len() - 1)
    }

    /// Duration of span `i` in microseconds.
    pub fn us(&self, i: usize) -> f64 {
        self.spans[i].us()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's spans (re-basing their parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as NDJSON to `path`, after a `{"stamp": …}` line.
    pub fn write(&self, path: &std::path::Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"stamp\":{stamp}}}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a traced run writes its spans, inside the working directory.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(".perfbench_out").join(format!("trace-{workload}-seed{seed}.ndjson"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_index_and_survive_absorb() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let (_, root) = a.span("root", 1, None, || ());
        let (_, child) = a.span("child", 1, Some(root), || ());
        let mut b = Tracer::new(epoch);
        b.absorb(Tracer::new(epoch));
        let (_, other) = b.span("other", 2, None, || ());
        let (_, _) = b.span("other.child", 2, Some(other), || ());
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.spans[child].parent, Some(root));
        assert_eq!(a.spans[3].parent, Some(2));
        assert!(a.us(root) >= 0.0);
    }
}
