//! Stage spans: bounded per-thread ring buffers of timed events,
//! exportable as a chrome://tracing ("trace event format") profile.
//!
//! Recording is designed for the advance hot path:
//!
//! * [`record_span`] touches only the **current thread's** ring, so the
//!   per-ring mutex is uncontended in steady state (worker threads never
//!   share a ring);
//! * a [`SpanEvent`] is `Copy` and carries only `&'static str` names plus
//!   integers — recording never allocates;
//! * rings are **bounded** ([`DEFAULT_RING_CAP`] events): a long soak
//!   keeps the most recent window of spans instead of growing without
//!   limit;
//! * server waves run tenants on short-lived scoped worker threads, so
//!   rings of exited threads are parked in a free pool and handed to the
//!   next new thread (events survive until overwritten — each event
//!   stores the recording thread's `tid`, so a reused ring still
//!   attributes old events correctly).
//!
//! Timestamps come from a process-wide monotonic epoch ([`now_ns`]), which
//! makes spans from different threads directly comparable on one timeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity (in events) of each per-thread trace ring.
pub const DEFAULT_RING_CAP: usize = 4096;

/// One completed span: a named interval on a thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `"sweep"` (static so recording never allocates).
    pub name: &'static str,
    /// Category: `"advance"`, `"stage"` or `"sub"` in the engine taxonomy.
    pub cat: &'static str,
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Id of the thread that recorded the span (chrome trace `tid`).
    pub tid: u32,
    /// Interned context label (see [`ctx_id`] / [`ctx_label`]); groups all
    /// spans of one engine/run so tests and exports can filter.
    pub ctx: u32,
    /// Free-form numeric payload (tuple count, region index, …).
    pub arg: u64,
}

/// A bounded circular buffer of [`SpanEvent`]s.
///
/// One ring belongs to one recording thread at a time; the mutex exists so
/// snapshots taken from *other* threads are safe, and is uncontended on
/// the recording path.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
    cap: usize,
}

#[derive(Debug)]
struct RingInner {
    events: Vec<SpanEvent>,
    /// Next write position once `events` has reached capacity.
    head: usize,
}

impl TraceRing {
    /// Creates an empty ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                events: Vec::new(),
                head: 0,
            }),
            cap: cap.max(1),
        }
    }

    /// Appends `event`, overwriting the oldest event when full.
    pub fn record(&self, event: SpanEvent) {
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() < self.cap {
            inner.events.push(event);
        } else {
            let head = inner.head;
            inner.events[head] = event;
            inner.head = (head + 1) % self.cap;
        }
    }

    /// Returns the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.events.len());
        out.extend_from_slice(&inner.events[inner.head..]);
        out.extend_from_slice(&inner.events[..inner.head]);
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all retained events.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.clear();
        inner.head = 0;
    }
}

/// All rings ever created plus a pool of rings whose owner thread exited.
struct RingRegistry {
    rings: Vec<Arc<TraceRing>>,
    free: Vec<Arc<TraceRing>>,
}

fn registry() -> &'static Mutex<RingRegistry> {
    static REGISTRY: OnceLock<Mutex<RingRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(RingRegistry {
            rings: Vec::new(),
            free: Vec::new(),
        })
    })
}

/// Owns this thread's ring; returns it to the free pool on thread exit so
/// the scoped worker threads spawned on every parallel advance do not leak
/// one ring each.
struct ThreadRing {
    ring: Arc<TraceRing>,
    tid: u32,
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        if let Ok(mut reg) = registry().lock() {
            reg.free.push(Arc::clone(&self.ring));
        }
    }
}

thread_local! {
    static THREAD_RING: ThreadRing = {
        static NEXT_TID: AtomicU32 = AtomicU32::new(1);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let mut reg = registry().lock().unwrap();
        let ring = match reg.free.pop() {
            Some(r) => r,
            None => {
                let r = Arc::new(TraceRing::new(DEFAULT_RING_CAP));
                reg.rings.push(Arc::clone(&r));
                r
            }
        };
        ThreadRing { ring, tid }
    };
}

/// Nanoseconds since the process-wide trace epoch (first call wins).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a completed span on the current thread's ring.
pub fn record_span(
    name: &'static str,
    cat: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    ctx: u32,
    arg: u64,
) {
    THREAD_RING.with(|tr| {
        tr.ring.record(SpanEvent {
            name,
            cat,
            ts_ns,
            dur_ns,
            tid: tr.tid,
            ctx,
            arg,
        });
    });
}

/// Forward (id → label) and reverse (label → id) sides of the intern table.
type CtxTable = (Vec<String>, BTreeMap<String, u32>);

fn ctx_table() -> &'static Mutex<CtxTable> {
    static CTX: OnceLock<Mutex<CtxTable>> = OnceLock::new();
    CTX.get_or_init(|| Mutex::new((Vec::new(), BTreeMap::new())))
}

/// Interns `label` and returns its stable id. Call once at setup and cache
/// the id; the hot path then records plain integers.
pub fn ctx_id(label: &str) -> u32 {
    let mut tbl = ctx_table().lock().unwrap();
    if let Some(&id) = tbl.1.get(label) {
        return id;
    }
    let id = tbl.0.len() as u32;
    tbl.0.push(label.to_string());
    tbl.1.insert(label.to_string(), id);
    id
}

/// The label interned as `id`, or `"?"` for an unknown id.
pub fn ctx_label(id: u32) -> String {
    let tbl = ctx_table().lock().unwrap();
    tbl.0
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "?".to_string())
}

/// Collects the retained events of every ring (live and pooled), sorted by
/// start time.
pub fn snapshot_spans() -> Vec<SpanEvent> {
    let reg = registry().lock().unwrap();
    let mut out = Vec::new();
    for ring in &reg.rings {
        out.extend(ring.snapshot());
    }
    drop(reg);
    out.sort_by_key(|e| (e.ts_ns, e.tid));
    out
}

/// Clears every ring. Benchmarks call this between instrumented and
/// baseline passes so exports only cover the run under measurement.
pub fn clear_trace() {
    let reg = registry().lock().unwrap();
    for ring in &reg.rings {
        ring.clear();
    }
}

/// Serializes `events` in the chrome://tracing "trace event format":
/// one `ph:"X"` (complete) event per span, timestamps and durations in
/// microseconds. The output opens directly in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Integer-nanosecond inputs render as exact microsecond decimals.
        out.push_str(&format!(
            "{{\"name\":{name},\"cat\":{cat},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts}.{ts_frac:03},\"dur\":{dur}.{dur_frac:03},\
             \"args\":{{\"ctx\":{ctx},\"arg\":{arg}}}}}",
            name = crate::json::escape(e.name),
            cat = crate::json::escape(e.cat),
            tid = e.tid,
            ts = e.ts_ns / 1_000,
            ts_frac = e.ts_ns % 1_000,
            dur = e.dur_ns / 1_000,
            dur_frac = e.dur_ns % 1_000,
            ctx = crate::json::escape(&ctx_label(e.ctx)),
            arg = e.arg,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_most_recent() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(SpanEvent {
                name: "e",
                cat: "t",
                ts_ns: i,
                dur_ns: 1,
                tid: 0,
                ctx: 0,
                arg: i,
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn ctx_interning_is_stable() {
        let a = ctx_id("test-span-ctx-a");
        let b = ctx_id("test-span-ctx-b");
        assert_ne!(a, b);
        assert_eq!(ctx_id("test-span-ctx-a"), a);
        assert_eq!(ctx_label(a), "test-span-ctx-a");
        assert_eq!(ctx_label(u32::MAX), "?");
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let ctx = ctx_id("test-span-roundtrip");
        let t0 = now_ns();
        record_span("unit", "stage", t0, 5, ctx, 42);
        let mine: Vec<_> = snapshot_spans()
            .into_iter()
            .filter(|e| e.ctx == ctx)
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "unit");
        assert_eq!(mine[0].arg, 42);
    }

    #[test]
    fn chrome_trace_json_is_wellformed() {
        let ctx = ctx_id("test-span-json");
        let events = vec![
            SpanEvent {
                name: "a\"quote",
                cat: "stage",
                ts_ns: 1_234_567,
                dur_ns: 890,
                tid: 3,
                ctx,
                arg: 7,
            },
            SpanEvent {
                name: "b",
                cat: "sub",
                ts_ns: 2_000_000,
                dur_ns: 1_000,
                tid: 4,
                ctx,
                arg: 0,
            },
        ];
        let json = chrome_trace_json(&events);
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.890"), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
