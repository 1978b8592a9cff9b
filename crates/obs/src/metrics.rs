//! Process-wide labelled counters and latency histograms.
//!
//! Unlike spans, metrics are always on: the writers below are only called
//! at coarse points (solve exit, request completion, GC), so a short
//! mutex-guarded map update is negligible next to the work being
//! measured. [`metrics_snapshot`] returns a consistent copy for export.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::hist::Histogram;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<(String, String), i64>,
    histograms: BTreeMap<(String, String), Histogram>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let reg = REGISTRY.get_or_init(Default::default);
    let mut reg = reg.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut reg)
}

/// Adds `by` to the counter `name{label}`. A zero `by` still creates the
/// series, which keeps exposition stable across scrapes.
pub fn counter_add(name: &str, label: &str, by: u64) {
    with_registry(|reg| {
        *reg.counters
            .entry((name.to_string(), label.to_string()))
            .or_insert(0) += by;
    });
}

/// Records one nanosecond sample into the histogram `name{label}`.
pub fn observe_ns(name: &str, label: &str, ns: u64) {
    with_registry(|reg| {
        reg.histograms
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .record(ns);
    });
}

/// Sets the gauge `name{label}` to `value`, creating the series if
/// needed. Gauges hold instantaneous readings (queue depths, resident
/// sessions) rather than monotone totals.
pub fn gauge_set(name: &str, label: &str, value: i64) {
    with_registry(|reg| {
        reg.gauges
            .insert((name.to_string(), label.to_string()), value);
    });
}

/// A point-in-time copy of every metric series.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, label, value)` counter samples, sorted by name then label.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, label, value)` gauge readings, sorted by name then label.
    pub gauges: Vec<(String, String, i64)>,
    /// `(name, label, histogram)` series, sorted by name then label.
    pub histograms: Vec<(String, String, Histogram)>,
}

/// Index of `(name, label)` in a sorted series list: `Ok` if present,
/// `Err` with the insertion point otherwise.
fn series_slot<T>(series: &[(String, String, T)], name: &str, label: &str) -> Result<usize, usize> {
    series.binary_search_by(|(n, l, _)| (n.as_str(), l.as_str()).cmp(&(name, label)))
}

impl MetricsSnapshot {
    /// Adds `by` to the counter `name{label}` of this copy, keeping the
    /// sort order. Facts kept outside the registry (a daemon's own
    /// counters) join an export this way instead of being counted twice.
    pub fn add_counter(&mut self, name: &str, label: &str, by: u64) {
        match series_slot(&self.counters, name, label) {
            Ok(i) => self.counters[i].2 += by,
            Err(i) => self
                .counters
                .insert(i, (name.to_string(), label.to_string(), by)),
        }
    }

    /// Sets the gauge `name{label}` of this copy, keeping the sort order.
    pub fn set_gauge(&mut self, name: &str, label: &str, value: i64) {
        match series_slot(&self.gauges, name, label) {
            Ok(i) => self.gauges[i].2 = value,
            Err(i) => self
                .gauges
                .insert(i, (name.to_string(), label.to_string(), value)),
        }
    }
}

/// Snapshots all counters, gauges and histograms.
pub fn metrics_snapshot() -> MetricsSnapshot {
    with_registry(|reg| MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|((n, l), v)| (n.clone(), l.clone(), *v))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|((n, l), v)| (n.clone(), l.clone(), *v))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|((n, l), h)| (n.clone(), l.clone(), *h))
            .collect(),
    })
}

/// Clears every metric series (tests and daemon restarts).
pub fn reset_metrics() {
    with_registry(|reg| {
        reg.counters.clear();
        reg.gauges.clear();
        reg.histograms.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label() {
        counter_add("obs_test_ctr", "a", 2);
        counter_add("obs_test_ctr", "a", 3);
        counter_add("obs_test_ctr", "b", 7);
        let snap = metrics_snapshot();
        let get = |l: &str| {
            snap.counters
                .iter()
                .find(|(n, lab, _)| n == "obs_test_ctr" && lab == l)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(get("a"), Some(5));
        assert_eq!(get("b"), Some(7));
    }

    #[test]
    fn gauges_hold_the_latest_reading() {
        gauge_set("obs_test_gauge", "q", 3);
        gauge_set("obs_test_gauge", "q", 1);
        let snap = metrics_snapshot();
        let v = snap
            .gauges
            .iter()
            .find(|(n, l, _)| n == "obs_test_gauge" && l == "q")
            .map(|(_, _, v)| *v);
        assert_eq!(v, Some(1));
    }

    #[test]
    fn merged_series_keep_the_snapshot_sorted() {
        let mut snap = MetricsSnapshot::default();
        snap.add_counter("b", "x", 2);
        snap.add_counter("a", "y", 1);
        snap.add_counter("b", "x", 3);
        snap.set_gauge("g", "2", 7);
        snap.set_gauge("g", "1", 4);
        snap.set_gauge("g", "2", 9);
        let counters: Vec<(&str, &str, u64)> = snap
            .counters
            .iter()
            .map(|(n, l, v)| (n.as_str(), l.as_str(), *v))
            .collect();
        assert_eq!(counters, vec![("a", "y", 1), ("b", "x", 5)]);
        let gauges: Vec<(&str, i64)> = snap
            .gauges
            .iter()
            .map(|(_, l, v)| (l.as_str(), *v))
            .collect();
        assert_eq!(gauges, vec![("1", 4), ("2", 9)]);
    }

    #[test]
    fn histograms_record_per_label() {
        observe_ns("obs_test_lat", "x", 1_000);
        observe_ns("obs_test_lat", "x", 2_000);
        let snap = metrics_snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|(n, l, _)| n == "obs_test_lat" && l == "x")
            .map(|(_, _, h)| *h)
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3_000);
    }
}
