//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, a parent, and the id of the run
//! (one build-and-simulate of a workload) it belongs to. Spans may
//! carry counts read at the same boundary. Spans stay in memory while
//! the benchmark runs and are written out as JSON lines at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The run this span belongs to.
    pub run: u32,
    /// Parent span index, `None` for a run's root.
    pub parent: Option<usize>,
    /// What the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Counts recorded at this span's boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a new run: later root spans get a fresh run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Open a span under `parent`; returns its index.
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            parent,
            name,
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Attach a count to span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s self time: its duration minus the part its children
    /// cover.
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Indices of spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// All spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.run, s.name, s.start_ns, s.end_ns
            );
            for (k, (key, v)) in s.counts.iter().enumerate() {
                let sep = if k == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{key}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.enter("root", None);
        let child = t.enter("child", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        assert!(t.self_ns(root) < t.spans()[root].ns());
        assert_eq!(t.self_ns(child), t.spans()[child].ns());
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
