//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Events are `tp_obs::SpanEvent`s stamped with `tp_obs::now_ns`, the
//! clock and the format of the engine's stage spans, so the exported
//! file opens beside `tp_stream::trace_json()` on one time axis. They
//! are kept in memory and written once, when the run ends.

use std::path::PathBuf;

use tp_obs::{chrome_trace_json, ctx_id, now_ns, SpanEvent};

/// Span categories. A `CALL` span is one call into a layer; a `CHILD`
/// span is time inside such a call that belongs to someone else (the
/// sink); `arg` of both is the ordinal of the call, which ties a child
/// and a push batch to their advance.
pub const CALL: &str = "bench";
pub const CHILD: &str = "bench.child";

/// Collects spans when tracing is on; free otherwise.
pub struct Tracer {
    pub on: bool,
    ctx: u32,
    events: Vec<SpanEvent>,
}

impl Tracer {
    /// A tracer that records, under the span context `bench:<workload>`.
    pub fn on(workload: &str) -> Self {
        Tracer {
            on: true,
            ctx: ctx_id(&format!("bench:{workload}")),
            events: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ctx: 0,
            events: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        arg: u64,
    ) {
        if self.on {
            self.events.push(SpanEvent {
                name,
                cat,
                ts_ns,
                dur_ns,
                tid: 0,
                ctx: self.ctx,
                arg,
            });
        }
    }

    /// Runs `f` as one `CALL` span and returns its result and duration.
    /// The clock is read whether or not tracing is on: callers use the
    /// duration as a measurement.
    pub fn call<R>(&mut self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = now_ns();
        let out = f();
        let dur = now_ns() - t0;
        self.span(name, CALL, t0, dur, arg);
        (out, dur)
    }

    /// Writes the spans as a chrome://tracing file under the build
    /// directory and returns its path; `None` when there is nothing to
    /// write.
    pub fn export(&self, workload: &str) -> std::io::Result<Option<PathBuf>> {
        if self.events.is_empty() {
            return Ok(None);
        }
        let target = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
        let dir = PathBuf::from(target).join("benchmark");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, chrome_trace_json(&self.events))?;
        Ok(Some(path))
    }
}
