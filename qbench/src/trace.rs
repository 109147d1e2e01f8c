//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer (the program itself is not instrumented). Each
//! span has a name, start, end and parent; they stay in memory and are
//! written to one JSON file when the run ends. With tracing off the
//! recorder still times every call — the untraced run needs those
//! timings for its end-to-end figures — but records nothing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dense span id (its index in the recorder).
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// An open span handle returned by [`Tracer::begin`].
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

/// Span recorder. `enabled` can be flipped between rounds so a traced
/// run interleaves traced and untraced rounds (the tracing overhead is
/// the difference between the two).
pub struct Tracer {
    /// Whether spans are currently recorded.
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A recorder; `enabled` false makes it a plain stopwatch.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
            });
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Closes a span and returns its duration (measured whether or not
    /// the span is recorded).
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.id {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            self.spans[id as usize].end_ns = self.ns_since_origin(end);
        }
        end - open.start
    }

    /// Times `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the time its direct children cover (children are
    /// sequential, so their durations add). A span left open by an
    /// error counts as zero length.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let len = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += len(s);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let d = len(s);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The span list as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_but_times() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("x", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(2));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let a = t.begin("child");
        std::thread::sleep(Duration::from_millis(3));
        t.end(a);
        let b = t.begin("child");
        std::thread::sleep(Duration::from_millis(3));
        t.end(b);
        std::thread::sleep(Duration::from_millis(2));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = t.totals();
        let o = totals["outer"];
        let c = totals["child"];
        assert_eq!(c.count, 2);
        assert_eq!(c.self_ns, c.total_ns, "leaves are all self time");
        assert_eq!(o.self_ns, o.total_ns - c.total_ns);
        assert!(o.self_ns >= 2_000_000);
        let json = t.to_json("w", 3);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"name\":\"child\""));
    }
}
