//! In-memory spans around the harness's calls into each layer.
//!
//! The spans live in the benchmark, not in the program: each one wraps
//! a call the harness makes into a public library function. They are
//! kept in memory and written out when the run ends.

use std::time::Instant;

use crate::json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The workload run this span belongs to.
    pub run_id: u64,
    /// Layer-qualified call name (`core.study`, `scenario.parse`, ...).
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when on; when off, [`Tracer::span`] only runs the
/// closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            run_id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts a new workload run: later spans carry its id.
    pub fn begin_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            run_id: self.run_id,
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of the spans of run `run_id` named `name`: each
    /// span's duration minus the part its child spans cover.
    pub fn self_time(&self, run_id: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.run_id == run_id && s.name == name)
            .map(|(i, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::duration)
                    .sum();
                s.duration() - children
            })
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                json::object(&[
                    ("run_id", s.run_id.to_string()),
                    ("name", json::string(s.name)),
                    ("start_s", json::number(s.start)),
                    ("end_s", json::number(s.end)),
                    (
                        "parent",
                        s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    ),
                ])
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.begin_run(1);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = &t.spans()[0];
        let inner = &t.spans()[1];
        assert_eq!(inner.parent, Some(0));
        let own = t.self_time(1, "outer");
        assert!((own - (outer.duration() - inner.duration())).abs() < 1e-12);
        assert!(t.self_time(1, "inner") >= 0.005);
        assert_eq!(t.self_time(2, "inner"), 0.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
