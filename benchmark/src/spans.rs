//! In-memory spans recorded by the benchmark around its calls into each
//! layer (choosing-metrics §4).  Spans live in memory for the whole run and
//! are written out, if asked, when the benchmark ends.

use crate::stats::median;
use mcversi_telemetry::Stopwatch;
use serde::Serialize;
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified name (`sim.run_iteration`, `mcm.check`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Sample the span belongs to: the identifier its spans share.
    pub sample: usize,
    /// 1-based test-run within the sample (0 outside any test-run).
    pub run: usize,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Sample stamped on new spans.
    pub sample: usize,
    /// Test-run stamped on new spans.
    pub run: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            sample: self.sample,
            run: self.run,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus what their children cover.
    pub self_ns: u64,
    /// Median duration in microseconds: what one call costs between the
    /// host's slow phases (0 when there is no such span).
    pub median_us: f64,
}

/// Totals by span name.  Children of one span never overlap (one thread, a
/// stack), so a span's self time is its duration minus its children's.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut durations_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
        durations_us
            .entry(span.name)
            .or_default()
            .push(duration as f64 / 1e3);
    }
    for (name, durations) in durations_us {
        by_name.entry(name).or_default().median_us = median(&durations);
    }
    by_name
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
            sample: 0,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("sample", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("sim", 20, 50, Some(1)),
            span("check", 50, 80, Some(1)),
            span("sim", 80, 85, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["sample"].self_ns, 20);
        assert_eq!(t["run"].self_ns, 80 - 30 - 30 - 5);
        assert_eq!(
            (t["sim"].count, t["sim"].total_ns, t["sim"].self_ns),
            (2, 35, 35)
        );
        assert!((t["sim"].median_us - 0.0175).abs() < 1e-12);
        assert_eq!(t["check"].median_us, 0.03);
        let all_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(all_self, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut rec = Recorder::new();
        rec.sample = 3;
        rec.enter("outer");
        rec.run = 7;
        let got = rec.time("inner", || 42);
        rec.exit();
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].sample, spans[1].run), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
