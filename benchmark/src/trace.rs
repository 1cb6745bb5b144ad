//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer, and written out as JSON when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! iteration it belongs to. Self time is the span's duration minus the part
//! its children cover. Spans inside the program under test are a later
//! issue; these are taken from outside.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `switch.ingest` or `iteration`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to; `None` for layer drives.
    pub iteration: Option<u32>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer reads no clock, so the end-to-end loop
/// can share code with the traced pass without paying for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: Option<u32>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: None,
        }
    }

    /// A tracer that does nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Tags spans opened from now on with an iteration id (or none).
    pub fn set_iteration(&mut self, iteration: Option<u32>) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: duration minus the time its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Total duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Renders the trace file: one object per span, parents by index.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"iteration\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name,
                opt(span.parent.map(|p| p as u64)),
                opt(span.iteration.map(u64::from)),
                span.start_ns,
                span.end_ns,
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::enabled();
        t.set_iteration(Some(3));
        t.span("iteration", |t| {
            t.span("run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("verify", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].iteration, Some(3));
        let own = t.self_ns();
        let total = spans[0].end_ns - spans[0].start_ns;
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], total - children);
        assert!(t.total_ns("run") >= 2_000_000);
        assert!(t.to_json("w", 1).contains("\"name\":\"verify\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
