//! `asdf-obs` — always-on, zero-dependency instrumentation for the ASDF
//! reproduction.
//!
//! The paper's headline claim is *online* diagnosis at low overhead
//! (Table 3 meters the collectors); this crate turns the same discipline
//! on the framework itself. It provides:
//!
//! * **Lock-free metrics** — [`Counter`], [`Gauge`] (with high-water
//!   mark), and [`Histogram`] (fixed power-of-two log buckets): every
//!   record is a few relaxed atomics, wait-free, allocation-free.
//! * **RAII spans** — [`SpanHandle::enter`] times a region and feeds a
//!   latency histogram; while trace capture is on, completed spans are
//!   also appended to a **bounded** in-process recorder.
//! * **A global registry** — [`registry()`] hands out shared named
//!   handles at construction time; hot paths never touch the map lock.
//! * **Exporters** — [`export::write_chrome_trace`] renders captured
//!   spans as Chrome `trace_event` JSON (loads in `chrome://tracing` /
//!   Perfetto), [`export::render_summary`] renders an end-of-run text
//!   table, and [`snapshot::render_snapshot`] serializes the full metric
//!   state to a stable, schema-versioned JSON record, hashed into the
//!   [`snapshot::snapshot_digest`] fingerprint.
//!
//! # Cost model
//!
//! The layer is **enabled by default**. Disabling it
//! ([`set_enabled(false)`](set_enabled)) reduces every metric operation
//! and span to a single relaxed load of one `AtomicBool` — the
//! self-overhead harness in `asdf::experiments` measures the enabled
//! layer against that baseline and gates it at <1% of campaign
//! wall-clock. To stay under that gate on sub-microsecond paths, span
//! *timing* is sampled (every [`span_sample_period`]-th execution per
//! site; see [`span`] module docs). Trace *capture* is separate and
//! **off by default** ([`start_tracing`]); while capture is on every
//! span is timed so traces stay complete, and only capture allocates
//! (bounded by the recorder capacity).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let hist = asdf_obs::registry().histogram("demo.work_ns");
//! let span = asdf_obs::SpanHandle::new("demo", "work", Arc::clone(&hist));
//! asdf_obs::start_tracing(1024);
//! {
//!     let _timer = span.enter();
//!     // ... the measured region ...
//! }
//! let (events, dropped) = asdf_obs::stop_tracing();
//! assert_eq!(events.len() as u64 + dropped, 1);
//! assert_eq!(hist.count(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, RegistrySnapshot};
pub use snapshot::{render_snapshot, snapshot_digest};
pub use span::{current_tid, Sampler, SpanGuard, SpanHandle, TraceEvent, DEFAULT_TRACE_CAPACITY};

static ENABLED: AtomicBool = AtomicBool::new(true);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether the instrumentation layer is recording (default: yes).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the whole layer on or off. Off, every metric/span operation is a
/// single relaxed atomic load. Returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Whether completed spans are being captured as trace events.
#[inline(always)]
pub fn tracing_on() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process-wide metric registry.
pub fn registry() -> &'static Registry {
    registry::global()
}

/// Starts capturing completed spans into the bounded recorder (clearing
/// any previous capture). At most `capacity` events are kept; further
/// spans are counted as dropped, never reallocated.
pub fn start_tracing(capacity: usize) {
    let rec = span::recorder();
    {
        let mut events = rec.events.lock().expect("trace recorder poisoned");
        events.clear();
        // Reserve up-front so capture itself does not reallocate mid-run
        // (bounded: `capacity` is operator-chosen).
        events.reserve(capacity.min(DEFAULT_TRACE_CAPACITY));
    }
    rec.capacity.store(capacity as u64, Ordering::Relaxed);
    rec.dropped.store(0, Ordering::Relaxed);
    // Anchor the trace epoch before the first event.
    span::anchor_epoch();
    TRACING.store(true, Ordering::Relaxed);
}

/// How often spans are *timed* outside trace capture: one in every
/// `period` executions per site (see [`span`] module docs).
pub fn span_sample_period() -> u64 {
    span::SAMPLE_MASK.load(Ordering::Relaxed) + 1
}

/// Sets the span sampling period (rounded down to a power of two, minimum
/// 1 = time every execution). Returns the previous period. Tests that
/// assert exact span-histogram counts set this to 1 around the assertion.
pub fn set_span_sample_period(period: u64) -> u64 {
    let pow2 = if period <= 1 {
        1
    } else {
        1u64 << (63 - period.leading_zeros())
    };
    span::SAMPLE_MASK.swap(pow2 - 1, Ordering::Relaxed) + 1
}

/// Stops capture and returns `(events, dropped_count)`.
pub fn stop_tracing() -> (Vec<TraceEvent>, u64) {
    TRACING.store(false, Ordering::Relaxed);
    let rec = span::recorder();
    let events = std::mem::take(&mut *rec.events.lock().expect("trace recorder poisoned"));
    let dropped = rec.dropped.swap(0, Ordering::Relaxed);
    (events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, OnceLock};

    /// Tests that toggle the global enabled/tracing flags serialize here
    /// so they cannot starve each other's recordings.
    pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = flag_lock();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        let span = SpanHandle::new("t", "off", Arc::new(Histogram::new()));
        let was = set_enabled(false);
        c.inc();
        g.set(5);
        h.record(9);
        drop(span.enter());
        set_enabled(was);
        assert_eq!(c.get(), 0);
        assert_eq!((g.get(), g.high_water()), (0, 0));
        assert_eq!(h.count(), 0);
        assert_eq!(span.histogram().count(), 0);
    }

    #[test]
    fn tracing_capture_is_bounded_and_drops_are_counted() {
        let _guard = flag_lock();
        let span = SpanHandle::new("t", "bounded", Arc::new(Histogram::new()));
        start_tracing(3);
        for _ in 0..5 {
            drop(span.enter());
        }
        let (events, dropped) = stop_tracing();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 2);
        assert!(events.iter().all(|e| e.name.as_ref() == "bounded"));
        // A fresh capture starts clean.
        start_tracing(3);
        let (events, dropped) = stop_tracing();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_outside_capture_still_feed_histograms() {
        let _guard = flag_lock();
        let hist = Arc::new(Histogram::new());
        let span = SpanHandle::new("t", "no-capture", Arc::clone(&hist));
        drop(span.enter());
        assert_eq!(hist.count(), 1);
    }
}
