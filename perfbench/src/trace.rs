//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! Each span keeps its name, start, end, the span that caused it, the
//! worker thread it ran on, and a group id shared by every span of one
//! evaluation unit or request. Span names are the per-layer metric names,
//! so the Chrome trace and the benchmark report use one vocabulary.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub group: u64,
    pub thread: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_index() -> usize {
    THREAD_INDEX.with(|t| *t)
}

/// Records spans when enabled; when disabled every call just runs its
/// closure, so the same replay code serves the untraced reference run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`. The closure receives the
    /// span's id so it can parent spans it starts, on any thread.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        work: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return work(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span buffer poisoned by a panicking worker");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                group,
                thread: thread_index(),
            });
            spans.len() - 1
        };
        let out = work(Some(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking worker")[id]
            .end_ns = end_ns;
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking worker")
            .clone()
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (on any thread) or by other spans that ran nested on its
/// own thread. The second case is work stealing: a worker blocked inside
/// one unit may run another unit before returning, and that time belongs
/// to the stolen unit, not to the span it interrupted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut by_thread: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push(i);
        }
        by_thread.entry(s.thread).or_default().push(i);
    }
    for ids in by_thread.values_mut() {
        ids.sort_by_key(|&i| (spans[i].start_ns, i));
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            let same_thread = &by_thread[&s.thread];
            let from = same_thread.partition_point(|&j| spans[j].start_ns < s.start_ns);
            for &j in &same_thread[from..] {
                let o = &spans[j];
                if o.start_ns >= s.end_ns {
                    break;
                }
                if j > i && o.end_ns <= s.end_ns {
                    intervals.push((o.start_ns, o.end_ns));
                }
            }
            s.duration_ns() - covered(intervals, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Per span name: (summed self time in ns, span count).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    out
}

/// Busy time summed over threads (the union of each thread's spans)
/// divided by `threads × wall_ns`.
pub fn busy_fraction(spans: &[Span], threads: usize, wall_ns: u64) -> f64 {
    let mut by_thread: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let busy: u64 = by_thread
        .into_values()
        .map(|iv| covered(iv, 0, u64::MAX))
        .sum();
    busy as f64 / (threads.max(1) as f64 * wall_ns.max(1) as f64)
}

/// Chrome trace-event JSON (complete "X" events, microsecond times), which
/// Perfetto and chrome://tracing open directly.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "name": s.name,
                "cat": s.name.split('.').next().unwrap_or(s.name),
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.duration_ns() as f64 / 1e3,
                "pid": 1,
                "tid": s.thread,
                "args": { "id": i, "parent": Value::from(s.parent), "group": s.group },
            })
        })
        .collect();
    json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ms" })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        thread: usize,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
            thread,
        }
    }

    #[test]
    fn overlapping_children_on_two_workers_count_once() {
        // Parent on worker 0; children on both workers overlap in
        // [30, 50]; their union [10, 80] covers 70 of the parent's 100.
        let spans = vec![
            span("parent", 0, 100, None, 0),
            span("a", 10, 50, Some(0), 0),
            span("b", 30, 80, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 50]);
    }

    #[test]
    fn stolen_work_on_the_same_thread_is_not_self_time() {
        // Worker 0 runs an unrelated unit (no parent link) while blocked
        // inside "fit"; that time is the stolen unit's, not fit's.
        let spans = vec![
            span("fit", 0, 100, None, 0),
            span("stolen", 60, 90, None, 0),
            span("elsewhere", 20, 40, None, 1),
        ];
        assert_eq!(self_times(&spans), vec![70, 30, 20]);
    }

    #[test]
    fn identical_intervals_on_one_thread_charge_the_inner_span() {
        let spans = vec![
            span("outer", 5, 15, None, 0),
            span("inner", 5, 15, Some(0), 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("parent", 10, 20, None, 0),
            span("late", 15, 40, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn busy_fraction_unions_per_thread() {
        let spans = vec![
            span("a", 0, 50, None, 0),
            span("b", 10, 20, Some(0), 0),
            span("c", 0, 25, None, 1),
        ];
        // Thread 0 busy 50, thread 1 busy 25, over 2 threads × 100.
        assert!((busy_fraction(&spans, 2, 100) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_aggregates_by_name() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, 7, |id| {
            tracer.span("inner", id, 7, |_| std::hint::black_box(3 + 4));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["inner"].1, 1);
        let trace = chrome_trace(&spans);
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(0)
        );
        assert_eq!(events[1].get("name").and_then(Value::as_str), Some("inner"));

        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
