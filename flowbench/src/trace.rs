//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around each call into a
//! layer's public function; nothing inside the program is instrumented.
//! They stay in memory until the run ends, when [`Tracer::chrome_json`]
//! renders them as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). A layer's self time is its spans' durations minus the
//! parts covered by their child spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request (job or wire request) this span serves.
    pub req: u64,
    /// Set on a span that stands for many short calls summed into one
    /// interval (e.g. every SA-table lookup of one binding run): their
    /// count.
    pub aggregated: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
            aggregated: None,
        });
        self.open.push(idx);
        let value = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        value
    }

    /// Records `total` — the summed duration of `count` short calls made
    /// inside the innermost open span — as one child span laid at that
    /// span's start. The parent must still be open and `total` must not
    /// exceed its elapsed time; both hold when the calls ran inside it.
    pub fn aggregate(&mut self, name: &'static str, req: u64, total: Duration, count: u64) {
        let parent = *self.open.last().expect("aggregate inside an open span");
        let start_ns = self.spans[parent].start_ns;
        let end_ns = (start_ns + total.as_nanos() as u64).min(self.now_ns());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            req,
            aggregated: Some(count),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span (nanoseconds), index-aligned with
    /// [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self seconds summed per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Total seconds of the root spans (those with no parent) — the
    /// traced wall time the self times must add up to.
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// The spans as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps). Each event's `args` carry the span id,
    /// its parent id and its request id.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let aggregated = s
                .aggregated
                .map_or(String::new(), |n| format!(",\"aggregated_calls\":{n}"));
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":\"flowbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"req\":{}{aggregated}}}}}",
                crate::json::quote(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
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
            req: 0,
            aggregated: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer {
            spans: vec![
                span("pass", 0, 100, None),
                span("job", 10, 90, Some(0)),
                span("map", 20, 50, Some(1)),
                span("sim", 50, 80, Some(1)),
                span("map", 95, 99, Some(0)),
            ],
            ..Tracer::default()
        };
        assert_eq!(t.self_ns(), vec![16, 20, 30, 30, 4]);
        let by = t.self_by_name();
        assert!((by["map"] - 34e-9).abs() < 1e-15);
        // Self times of a tree always add up to its root's duration.
        let total: u64 = t.self_ns().iter().sum();
        assert_eq!(total, 100);
        assert!((t.root_seconds() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn recorded_spans_nest_and_render() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(3 + 4));
            t.aggregate("lookups", 7, Duration::from_nanos(1), 12);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[1].end_ns);
        let json = crate::json::parse(&t.chrome_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2].get("name").and_then(|n| n.as_str()),
            Some("lookups")
        );
    }
}
