//! The in-memory span recorder of a traced run.
//!
//! Spans are recorded by the harness itself, around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span has a name, a start and an end (ns since the process's trace
//! origin), the span that caused it, and the trial it belongs to. Calls that
//! happen millions of times per trial (engine `deliver`, endpoint `send`) are
//! not recorded one by one: each (trial, thread, layer operation) gets one
//! *aggregated* span that covers the trial's run window and carries the call
//! count and the summed busy time. The spans are written as JSON lines when
//! the run ends. A span's self time is its duration minus the part its plain
//! children cover; aggregated children overlap across threads, so they are
//! accounted by busy time instead.
//!
//! A disabled tracer (end-to-end runs) records nothing.

use std::time::Instant;

use crate::json::Value;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    trial: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    /// Set on aggregated spans only.
    aggregate: Option<Aggregate>,
}

#[derive(Debug, Clone, Copy)]
struct Aggregate {
    thread: usize,
    calls: u64,
    busy_ns: u64,
}

/// Records spans on the harness's main thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        trial: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            trial,
            start_ns: now,
            end_ns: now,
            aggregate: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
        }
    }

    /// The trial a span belongs to.
    pub fn trial_of(&self, id: SpanId) -> Option<u64> {
        self.spans.get(id.0)?.trial
    }

    /// Records a span that was timed elsewhere (on a worker thread), as a
    /// child of `parent` in the same trial.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let since_origin = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            parent: Some(parent.0),
            trial: self.trial_of(parent),
            start_ns: since_origin(start),
            end_ns: since_origin(end),
            aggregate: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Records one aggregated span per (trial, thread, layer operation): it
    /// covers its parent's window and carries `calls` and `busy_ns`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: SpanId,
        thread: usize,
        calls: u64,
        busy_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let Some(window) = self.spans.get(parent.0) else {
            return;
        };
        let span = Span {
            name,
            parent: Some(parent.0),
            trial: window.trial,
            start_ns: window.start_ns,
            end_ns: window.end_ns,
            aggregate: Some(Aggregate {
                thread,
                calls,
                busy_ns,
            }),
        };
        self.spans.push(span);
    }

    /// Number of spans recorded.
    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Value::uint(id as u64)),
                ("name", Value::str(span.name)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::uint(p as u64)),
                ),
                ("trial", span.trial.map_or(Value::Null, Value::uint)),
                ("start_ns", Value::uint(span.start_ns)),
                ("end_ns", Value::uint(span.end_ns)),
            ];
            if let Some(agg) = span.aggregate {
                fields.push(("thread", Value::uint(agg.thread as u64)));
                fields.push(("calls", Value::uint(agg.calls)));
                fields.push(("busy_ns", Value::uint(agg.busy_ns)));
            }
            out.push_str(&Value::obj(fields).to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let run = t.begin("run", None, None);
        t.aggregate("core.engine.deliver", run, 0, 5, 100);
        t.end(run);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn spans_nest_and_aggregates_cover_their_parents_window() {
        let mut t = Tracer::new(true);
        let run = t.begin("run", None, None);
        let trial = t.begin("trial", Some(run), Some(0));
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let instance = t.record("sim.instance", trial, started, Instant::now());
        t.end(trial);
        t.aggregate("core.engine.deliver", trial, 1, 7, 1234);
        t.end(run);
        assert_eq!(t.span_count(), 4);
        assert_eq!(t.trial_of(instance), Some(0));
        let (trial_span, recorded, aggregate) = (&t.spans[1], &t.spans[2], &t.spans[3]);
        assert!(trial_span.start_ns <= recorded.start_ns && recorded.end_ns <= trial_span.end_ns);
        assert!(recorded.end_ns - recorded.start_ns >= 2_000_000);
        assert_eq!(
            (aggregate.start_ns, aggregate.end_ns),
            (trial_span.start_ns, trial_span.end_ns)
        );
    }

    #[test]
    fn jsonl_lines_parse_and_carry_aggregate_fields() {
        let mut t = Tracer::new(true);
        let run = t.begin("run", None, None);
        let trial = t.begin("trial", Some(run), Some(3));
        t.end(trial);
        t.aggregate("runtime.transport.send", trial, 1, 9, 4321);
        t.end(run);
        let lines: Vec<Value> = t.to_jsonl().lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(lines[1].get("trial").unwrap().as_u64(), Some(3));
        let agg = &lines[2];
        assert_eq!(
            agg.get("name").unwrap().as_str(),
            Some("runtime.transport.send")
        );
        assert_eq!(agg.get("thread").unwrap().as_u64(), Some(1));
        assert_eq!(agg.get("calls").unwrap().as_u64(), Some(9));
        assert_eq!(agg.get("busy_ns").unwrap().as_u64(), Some(4321));
        assert_eq!(agg.get("trial").unwrap().as_u64(), Some(3));
    }
}
