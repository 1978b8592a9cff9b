//! Hierarchical spans on a per-thread ring buffer.
//!
//! Recording is gated on a global atomic flag ([`enabled`]): when tracing
//! is off, [`span`] returns an inert guard and the hot path pays one
//! relaxed atomic load. When on, each guard notes its start timestamp and
//! nesting depth at construction and appends one completed [`SpanEvent`]
//! to the *current thread's* ring buffer when dropped. Only the owning
//! thread ever touches its ring, so the fast path takes no locks; rings
//! of exited threads drain into a global pool (one mutex acquisition per
//! thread lifetime), which [`take_all_spans`] collects.
//!
//! The ring is bounded: when full, the oldest completed span is dropped
//! and counted in [`dropped_spans`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global tracing switch. Relaxed ordering: span boundaries need not
/// synchronise with the flip, a few spans more or less around it are fine.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Ring capacity, read on every push so tests can shrink it live.
static RING_CAP: AtomicUsize = AtomicUsize::new(65_536);

/// Spans dropped to ring overflow, across all threads, since process start.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Monotonic thread-id source for trace attribution.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The instant all span timestamps are measured from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Rings of threads that have exited, awaiting collection.
static EXITED: OnceLock<Mutex<VecDeque<SpanEvent>>> = OnceLock::new();

/// Turns span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Caps the per-thread ring (and the exited-thread pool). Takes effect on
/// the next push; intended for tests and long-lived daemons.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Total spans dropped to ring overflow since process start.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span kind, e.g. `"target"` or `"sat.solve"`.
    pub name: &'static str,
    /// Free-form instance label, e.g. `"q3"`.
    pub label: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open (0 = top level on its thread).
    pub depth: u32,
    /// Trace thread id (small dense integers, not OS tids).
    pub tid: u64,
}

struct Ring {
    events: VecDeque<SpanEvent>,
    depth: u32,
    tid: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            events: VecDeque::new(),
            depth: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn push(&mut self, ev: SpanEvent) {
        let cap = RING_CAP.load(Ordering::Relaxed);
        while self.events.len() >= cap {
            self.events.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        self.events.push_back(ev);
    }

    /// Moves every recorded event to the exited-thread pool.
    fn drain_to_pool(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let pool = EXITED.get_or_init(Default::default);
        if let Ok(mut pool) = pool.lock() {
            let cap = RING_CAP.load(Ordering::Relaxed);
            pool.extend(self.events.drain(..));
            while pool.len() > cap {
                pool.pop_front();
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.drain_to_pool();
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

/// RAII span guard: records one [`SpanEvent`] on drop when tracing was
/// enabled at construction; inert (and free beyond one atomic load) when
/// it was not.
pub struct Span {
    name: &'static str,
    label: String,
    start_ns: u64,
    depth: u32,
    active: bool,
}

/// Opens a span whose label is computed only when tracing is enabled —
/// use on hot paths where building the label would allocate.
#[inline]
pub fn span_with<L: Into<String>>(name: &'static str, label: impl FnOnce() -> L) -> Span {
    if !enabled() {
        return Span {
            name,
            label: String::new(),
            start_ns: 0,
            depth: 0,
            active: false,
        };
    }
    span(name, label())
}

/// Opens a span. The guard closes it when dropped.
#[inline]
pub fn span(name: &'static str, label: impl Into<String>) -> Span {
    if !enabled() {
        return Span {
            name,
            label: String::new(),
            start_ns: 0,
            depth: 0,
            active: false,
        };
    }
    let depth = RING.with(|r| {
        let mut r = r.borrow_mut();
        let d = r.depth;
        r.depth += 1;
        d
    });
    Span {
        name,
        label: label.into(),
        start_ns: now_ns(),
        depth,
        active: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_ns();
        RING.with(|r| {
            let mut r = r.borrow_mut();
            r.depth = r.depth.saturating_sub(1);
            let tid = r.tid;
            r.push(SpanEvent {
                name: self.name,
                label: std::mem::take(&mut self.label),
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                depth: self.depth,
                tid,
            });
        });
    }
}

/// Drains and returns the current thread's completed spans, ordered by
/// completion. Spans recorded by other live threads are not touched.
pub fn take_spans() -> Vec<SpanEvent> {
    RING.with(|r| r.borrow_mut().events.drain(..).collect())
}

/// Moves the calling thread's completed spans to the exited-thread pool,
/// where [`take_all_spans`] collects them. Worker threads call this as
/// their last act: `std::thread::scope` can return before a worker's
/// thread-local ring is destroyed, so the ring's own hand-over at thread
/// exit may come too late for a collector running right after the join.
pub fn flush_thread_spans() {
    let _ = RING.try_with(|r| r.borrow_mut().drain_to_pool());
}

/// Drains the current thread's spans *and* the pool left behind by exited
/// threads (e.g. parallel sweep workers), sorted by start time.
pub fn take_all_spans() -> Vec<SpanEvent> {
    let mut out = take_spans();
    if let Some(pool) = EXITED.get() {
        if let Ok(mut pool) = pool.lock() {
            out.extend(pool.drain(..));
        }
    }
    out.sort_by_key(|e| (e.start_ns, e.depth));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Span tests toggle the process-wide flag; serialise them.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_spans();
        set_ring_capacity(65_536);
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn spans_nest_by_depth_and_containment() {
        let evs = with_tracing(|| {
            {
                let _outer = span("outer", "o");
                {
                    let _mid = span("mid", "m");
                    let _inner = span("inner", "i");
                }
                let _sibling = span("mid", "m2");
            }
            take_spans()
        });
        assert_eq!(evs.len(), 4);
        // Completion order: innermost first.
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "mid");
        assert_eq!(evs[2].name, "mid");
        assert_eq!(evs[3].name, "outer");
        assert_eq!(evs[3].depth, 0);
        assert_eq!(evs[1].depth, 1);
        assert_eq!(evs[0].depth, 2);
        // Children are contained in their parent's interval.
        let outer = &evs[3];
        for child in &evs[..3] {
            assert!(child.start_ns >= outer.start_ns);
            assert!(
                child.start_ns + child.dur_ns <= outer.start_ns + outer.dur_ns,
                "child escapes parent interval"
            );
        }
        // All on one thread.
        assert!(evs.iter().all(|e| e.tid == evs[0].tid));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_spans();
        set_enabled(false);
        {
            let _s = span("ghost", "");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let evs = with_tracing(|| {
            set_ring_capacity(4);
            let before = dropped_spans();
            for i in 0..10 {
                let _s = span("tick", format!("{i}"));
            }
            let evs = take_spans();
            assert_eq!(dropped_spans() - before, 6);
            evs
        });
        set_ring_capacity(65_536);
        assert_eq!(evs.len(), 4);
        // The survivors are the newest four, in order.
        let labels: Vec<&str> = evs.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["6", "7", "8", "9"]);
    }

    #[test]
    fn exited_threads_drain_into_the_pool() {
        let evs = with_tracing(|| {
            // `join` returns only after the thread's TLS destructors ran,
            // so the ring's hand-over at exit has happened by then.
            std::thread::spawn(|| {
                let _s = span("worker", "w");
            })
            .join()
            .unwrap();
            take_all_spans()
        });
        assert!(evs.iter().any(|e| e.name == "worker"));
    }

    #[test]
    fn flushed_scoped_workers_reach_the_pool() {
        let evs = with_tracing(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    {
                        let _s = span("scoped", "w");
                    }
                    flush_thread_spans();
                });
            });
            take_all_spans()
        });
        assert!(evs.iter().any(|e| e.name == "scoped"));
    }
}
