//! The benchmark's own spans: one around every public call it makes into a
//! layer, kept in memory and written out as Chrome trace-event JSON when
//! the run ends. Spans of one sweep sample or one request share a group
//! id. A span's self time is its duration minus its children's.
//!
//! Time the benchmark cannot see from outside — the backend and condition
//! work inside `verify_targets`, or the daemon's `handle_ns` inside a
//! round trip — enters as *attributed* child spans whose durations come
//! from the program's own counters (`SessionStats`, response fields).

use qb_serve::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub group: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
    /// `true` when the duration comes from a program counter, not from
    /// the benchmark's clock.
    pub attributed: bool,
    pub counts: Vec<(&'static str, f64)>,
}

/// One thread's span buffer. A disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span measured by the benchmark between `start` and `end`.
    pub fn record(
        &mut self,
        group: u64,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.push(Span {
            group,
            name: name.into(),
            parent,
            start: start.saturating_duration_since(self.origin),
            dur: end.saturating_duration_since(start),
            attributed: false,
            counts: Vec::new(),
        })
    }

    /// Records an attributed child of `parent` lasting `dur`.
    pub fn attribute(&mut self, parent: Option<usize>, name: &str, dur: Duration) {
        let Some(p) = parent.filter(|_| self.enabled) else {
            return;
        };
        let (group, start) = (self.spans[p].group, self.spans[p].start);
        self.push(Span {
            group,
            name: name.to_string(),
            parent: Some(p),
            start,
            dur,
            attributed: true,
            counts: Vec::new(),
        });
    }

    /// Attaches counts to a recorded span.
    pub fn count(&mut self, span: Option<usize>, name: &'static str, value: f64) {
        if let Some(s) = span.filter(|_| self.enabled) {
            self.spans[s].counts.push((name, value));
        }
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per group: span name → summed self time in ms, and
/// `<span name>.<count name>` → summed count.
pub type GroupLayers = BTreeMap<u64, BTreeMap<String, f64>>;

/// Self time (`<name>` in ms) and counts (`<name>.<count>`) per group.
pub fn self_times(spans: &[Span]) -> GroupLayers {
    let mut child_ns = vec![0u128; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur.as_nanos();
        }
    }
    let mut out = GroupLayers::new();
    for (i, s) in spans.iter().enumerate() {
        let layers = out.entry(s.group).or_default();
        let self_ns = s.dur.as_nanos() as f64 - child_ns[i] as f64;
        *layers.entry(s.name.clone()).or_default() += self_ns / 1e6;
        for (k, v) in &s.counts {
            *layers.entry(format!("{}.{k}", s.name)).or_default() += v;
        }
    }
    out
}

/// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`).
pub fn chrome_trace(threads: &[Vec<Span>]) -> String {
    let mut events = Vec::new();
    for (tid, spans) in threads.iter().enumerate() {
        for s in spans {
            let mut args = vec![
                ("group", Json::Int(s.group as i64)),
                ("attributed", Json::Bool(s.attributed)),
            ];
            args.extend(s.counts.iter().map(|(k, v)| (*k, Json::Float(*v))));
            events.push(Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Float(s.start.as_nanos() as f64 / 1e3)),
                ("dur", Json::Float(s.dur.as_nanos() as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(tid as i64)),
                ("args", Json::obj(args)),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, true);
        let ms = Duration::from_millis;
        let root = tr.record(1, "root", None, t0, t0 + ms(10));
        tr.record(1, "child", root, t0 + ms(1), t0 + ms(4));
        tr.attribute(root, "inner", ms(2));
        tr.count(root, "n", 3.0);
        let layers = &self_times(&tr.into_spans())[&1];
        assert!((layers["root"] - 5.0).abs() < 1e-9);
        assert!((layers["child"] - 3.0).abs() < 1e-9);
        assert!((layers["inner"] - 2.0).abs() < 1e-9);
        assert_eq!(layers["root.n"], 3.0);
    }
}
