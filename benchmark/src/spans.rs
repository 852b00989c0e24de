//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started. Spans stay in memory until the run ends; a layer's self time
//! is its span's duration minus the time its child spans cover.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `routing.build`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created (equal to
    /// `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in ns.
    ///
    /// # Panics
    /// If no span is open.
    pub fn exit(&mut self) -> u64 {
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self times in ns of every span called `name`: its duration minus
    /// the durations of its direct children.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.enter("outer");
        s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit();
        s.exit();
        let outer = s.durations("outer")[0];
        let inner = s.durations("inner")[0];
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(s.self_times("outer")[0], outer - inner);
        assert_eq!(s.spans()[1].parent, Some(0));
    }
}
