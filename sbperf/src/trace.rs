//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a
//! span: name, start, end, parent span and request id. Spans go into a
//! preallocated buffer, so recording costs two clock reads and no
//! allocation, and are written out as JSON lines when the run ends.
//! Per-layer metrics are computed from these spans, never from a clock
//! inside the program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// Marks a root span.
const NO_PARENT: usize = usize::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `engine.run`.
    pub name: &'static str,
    /// Which program (or request argument) the call served.
    pub key: usize,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Enclosing span, or `NO_PARENT`.
    pub parent: usize,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into a fixed-capacity buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that can hold `capacity` spans without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// True once the buffer cannot take `more` spans without growing.
    pub fn nearly_full(&self, more: usize) -> bool {
        self.spans.len() + more > self.spans.capacity()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        key: usize,
        request: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            request,
            parent: parent.unwrap_or(NO_PARENT),
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        key: usize,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, key, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of the spans called `name`, grouped by
    /// key (BTreeMap, so iteration order repeats across runs).
    pub fn durations_us(&self, name: &str) -> BTreeMap<usize, Vec<f64>> {
        let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.key)
                .or_default()
                .push(s.duration_ns() as f64 / 1e3);
        }
        out
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns().saturating_sub(covered_ns(kids)))
            .collect()
    }

    /// All spans as JSON lines, each with its self time.
    pub fn to_json_lines(&self, key_names: &[String]) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let key = key_names.get(s.key).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"key\": \"{key}\", \"request\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            _ => {
                if let Some((clo, chi)) = current {
                    total += chi - clo;
                }
                current = Some((lo, hi));
            }
        }
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered_ns(vec![]), 0);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(vec![(20, 25), (0, 10)]), 15);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::with_capacity(8);
        t.spans = vec![
            Span {
                name: "request",
                key: 0,
                request: 1,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "engine.reset",
                key: 0,
                request: 1,
                parent: 0,
                start_ns: 10,
                end_ns: 30,
            },
            Span {
                name: "engine.run",
                key: 0,
                request: 1,
                parent: 0,
                start_ns: 30,
                end_ns: 90,
            },
        ];
        assert_eq!(t.self_times_ns(), vec![20, 20, 60]);
        assert_eq!(t.durations_us("engine.run")[&0], vec![0.06]);
        assert!(t.to_json_lines(&["p".into()]).contains("\"parent\": 0"));
    }
}
