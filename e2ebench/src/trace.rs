//! Spans for the traced run.
//!
//! A span wraps one call from the benchmark into a public function of
//! the tool (never code inside it): its name, start, end, parent span
//! and session. Spans live in a `Vec` allocated once up front and are
//! written out when the run ends; when that buffer is full, further
//! spans are counted as dropped rather than growing it mid-run.

use badabing_metrics::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off or the buffer
/// is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    session: u32,
}

/// The span recorder. Off, every call is a branch and nothing else.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans preallocated for a traced run (32 bytes each).
const SPAN_CAPACITY: usize = 1 << 19;

impl Tracer {
    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder with its whole span buffer allocated now.
    pub fn on() -> Self {
        Self {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
        }
    }

    /// Whether spans are being kept: the traced half of a run.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, session: u32) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Close a span now.
    pub fn end(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let now = self.ns();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Per-name totals: count, total and self time, and the median and
    /// p99 of the span durations. Self time is a span's duration minus
    /// the union of the intervals its children cover.
    pub fn summary(&self) -> Value {
        let mut covered = vec![Vec::<(u64, u64)>::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                covered[s.parent.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut covered) {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur - union_within(kids, s.start_ns, s.end_ns);
            let e = by_name.entry(s.name).or_default();
            e.0.push(dur as f64 / 1e3);
            e.1 += self_ns as f64 / 1e3;
        }
        let names = by_name
            .into_iter()
            .map(|(name, (durs, self_us))| {
                let total: f64 = durs.iter().sum();
                let pct = |p| crate::stats::percentile(&durs, p).unwrap_or(0.0);
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("count", Value::Num(durs.len() as f64)),
                        ("total_us", Value::Num(total)),
                        ("self_us", Value::Num(self_us)),
                        ("p50_us", Value::Num(pct(50.0))),
                        ("p99_us", Value::Num(pct(99.0))),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("spans", Value::Num(self.spans.len() as f64)),
            ("dropped", Value::Num(self.dropped as f64)),
            ("by_name", Value::Obj(names)),
        ])
    }

    /// Every span, one JSON object each, ids as array indices.
    pub fn spans_json(&self) -> Value {
        let parent = |p: SpanId| {
            if p == SpanId::NONE {
                Value::Null
            } else {
                Value::Num(f64::from(p.0))
            }
        };
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("parent", parent(s.parent)),
                        ("session", Value::Num(f64::from(s.session))),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (0, 5)];
        assert_eq!(union_within(&mut v, 2, 45), 3 + 20 + 5);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", SpanId::NONE, 1);
        t.end(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(t.summary().get("spans").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        let parent = t.begin("parent", SpanId::NONE, 0);
        let child = t.begin("child", parent, 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(parent);
        let s = t.summary();
        let by = s.get("by_name").unwrap();
        let p = by.get("parent").unwrap();
        let total = p.get("total_us").and_then(Value::as_f64).unwrap();
        let own = p.get("self_us").and_then(Value::as_f64).unwrap();
        assert!(total >= 5_000.0);
        assert!(own < total / 2.0, "self {own} of total {total}");
    }
}
