//! In-memory spans around calls into each layer, written out when the
//! run ends, and self-time folding.
//!
//! Spans are recorded from the benchmark's own code around the public
//! functions it calls; the program itself carries no stamps.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    workload: String,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Record a span timed elsewhere (a load-generator thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn duration_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"self_ns\":{self_ns},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of its interval that its direct
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 65, 80, Some(0)),
        ];
        // Children cover [10, 80): 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            span("late", 150, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let mut t = Tracer::new("w");
        let root = t.begin("root", None);
        let kid = t.begin("kid", Some(root));
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let root_self = t.self_us("root")[0];
        let root_total = t.duration_us("root")[0];
        assert!(root_self <= root_total);
        assert_eq!(t.duration_us("kid").len(), 1);
    }
}
