//! Host-clock spans the benchmark records around each call it makes into
//! the library. Spans are kept in memory and written out once, at the
//! end of a traced run, as a Chrome trace-event document.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `runner.decode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` (which must be the innermost open one) and
    /// returns its duration in seconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].seconds()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Every span named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::seconds).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Share of span `idx`'s duration covered by its direct children
    /// (which never overlap: the benchmark is single-threaded).
    pub fn child_coverage(&self, idx: usize) -> f64 {
        let own = self.spans[idx].seconds();
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(idx)).map(Span::seconds).sum();
        if own > 0.0 {
            children / own
        } else {
            0.0
        }
    }

    /// The spans as a Chrome trace-event JSON document (complete `X`
    /// events on one track, microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_coverage() {
        let mut s = Spans::default();
        let root = s.begin("root");
        s.time("leaf", || std::hint::black_box(1 + 1));
        s.time("leaf", || std::hint::black_box(2 + 2));
        s.end(root);
        assert_eq!(s.count("leaf"), 2);
        assert!(s.named("leaf").all(|l| l.parent == Some(root)));
        let cov = s.child_coverage(root);
        assert!((0.0..=1.0).contains(&cov));
        hilos_trace::validate_json(&s.to_chrome_json()).expect("valid JSON");
    }
}
