//! The benchmark's own span recorder: every span is opened and closed
//! from this crate, around a call into one of the workspace's public
//! functions. Spans stay in memory until the workload ends, then
//! export as Chrome trace JSON.

use std::collections::BTreeMap;
use std::sync::Arc;
use tifl_obs::{ChromeEvent, HostClock};

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which run of the workload the span belongs to (spans of one
    /// run share it).
    pub run: u32,
    /// Chrome thread lane: 0 is the coordinator, workers count from 1.
    pub lane: u32,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Total and self seconds of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub total: f64,
    pub self_time: f64,
    pub count: u64,
}

pub struct Tracer {
    clock: Arc<dyn HostClock>,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(clock: Arc<dyn HostClock>) -> Self {
        Self {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn now(&self) -> f64 {
        self.clock.now_sec()
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            run: self.run,
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end = self.now();
        self.spans[id].dur()
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span measured elsewhere (a worker thread, a selector
    /// decorator, the program's own host profiler) as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64, lane: u32) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            run: self.run,
            lane,
        });
    }

    /// Start attributing spans to the next run.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span from `from` on: its duration minus the
    /// part of that interval its direct children cover (overlapping
    /// children — parallel workers — count once). `from` must be a
    /// point where no span was open, so no parent lies before it.
    pub fn self_times_from(&self, from: usize) -> Vec<f64> {
        let spans = &self.spans[from..];
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start, self.spans[p].end);
                children[p - from].push((s.start.clamp(lo, hi), s.end.clamp(lo, hi)));
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.dur() - covered(kids))
            .collect()
    }

    /// Per-name totals over spans `from..` (one traced unit).
    pub fn totals_from(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_time) in self.spans[from..].iter().zip(self.self_times_from(from)) {
            let t = out.entry(s.name).or_default();
            t.total += s.dur();
            t.self_time += self_time;
            t.count += 1;
        }
        out
    }

    /// Chrome trace-event JSON (`pid` 3: the benchmark's lane, beside
    /// the program's virtual-time pid 1 and host pid 2).
    pub fn chrome(&self) -> Vec<ChromeEvent> {
        self.spans
            .iter()
            .map(|s| ChromeEvent {
                name: s.name.to_string(),
                cat: format!("run{}", s.run),
                ph: "X".to_string(),
                ts: s.start * 1e6,
                dur: s.dur() * 1e6,
                pid: 3,
                tid: u64::from(s.lane),
            })
            .collect()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for &(start, end) in intervals.iter() {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tifl_obs::FrozenClock;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(covered(&mut []), 0.0);
        assert_eq!(covered(&mut [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(covered(&mut [(1.0, 2.0), (0.0, 4.0)]), 4.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // Frozen clock: every read advances one second, so run is 0..5,
        // a is 1..2 and b is 3..4, with two overlapping worker spans
        // under b, one reaching past its end.
        let mut t = Tracer::new(FrozenClock::shared());
        let run = t.open("run");
        let a = t.open("a");
        t.close(a);
        let b = t.open("b");
        t.record("w", 3.5, 4.5, 1);
        t.record("w", 4.0, 9.0, 2);
        t.close(b);
        t.close(run);
        let st = t.self_times_from(0);
        assert_eq!(t.spans()[run].dur(), 5.0);
        assert_eq!(st[run], 3.0, "run minus a (1 s) and b (1 s)");
        assert_eq!(st[a], 1.0);
        assert_eq!(st[b], 0.5, "workers cover 3.5..4 of 3..4 after clamping");
        let totals = t.totals_from(0);
        assert_eq!(totals["w"].count, 2);
        assert_eq!(totals["run"].self_time, 3.0);
        assert_eq!(t.spans()[a].parent, Some(run));
    }

    #[test]
    fn runs_share_an_identifier_and_export_to_chrome() {
        let mut t = Tracer::new(FrozenClock::shared());
        t.span("first", || ());
        t.next_run();
        t.span("second", || ());
        assert_eq!(t.spans()[0].run, 0);
        assert_eq!(t.spans()[1].run, 1);
        let chrome = t.chrome();
        assert_eq!(chrome.len(), 2);
        assert_eq!(chrome[1].cat, "run1");
        assert_eq!(chrome[0].dur, 1e6);
        let from_second = t.totals_from(1);
        assert!(from_second.contains_key("second") && !from_second.contains_key("first"));
    }
}
