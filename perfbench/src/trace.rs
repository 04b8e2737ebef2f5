//! Spans recorded from the benchmark's own code around calls into the
//! program's public functions. Spans stay in memory; the traced run
//! derives per-layer metrics from them and writes them out at the end.

use std::time::Instant;

/// One timed call: name, interval on the tracer's clock, the span that
/// caused it and the request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `gather.round`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled tracer runs the wrapped calls and
/// records nothing, so traced and untraced passes share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Renames the most recently opened span (for calls whose layer is
    /// known only from their result, such as a cache hit or miss).
    pub fn rename_last(&mut self, name: &'static str) {
        if self.enabled {
            if let Some(span) = self.spans.last_mut() {
                span.name = name;
            }
        }
    }

    /// Tags the spans that follow with request id `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name`; spans opened by `call`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return call(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = call(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed self time (duration minus direct children) of the spans
    /// named `name`, in seconds.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(k, s)| (s.end_ns - s.start_ns).saturating_sub(child[k]) as f64 * 1e-9)
            .sum()
    }

    /// Per span name, in first-seen order: calls, total seconds and self
    /// seconds.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let durations = self.durations(name);
                let total = durations.iter().sum();
                (name, durations.len(), total, self.self_seconds(name))
            })
            .collect()
    }

    /// The spans and their per-name summary as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (k, s) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                r#"  {{"id": {k}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "request": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out.push_str("\n], \"summary\": [\n");
        for (k, (name, count, total, own)) in self.summary().into_iter().enumerate() {
            if k > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                r#"  {{"name": "{name}", "count": {count}, "total_s": {total}, "self_s": {own}}}"#
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut tracer = Tracer::new(true);
        tracer.set_request(7);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(tracer.self_seconds("outer") < spans[0].seconds());
        let summary = tracer.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[0].0, summary[0].1), ("outer", 1));
        assert_eq!((summary[1].0, summary[1].1), ("inner", 1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |_| 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
