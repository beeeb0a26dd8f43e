//! RAII span timers and the bounded in-process trace recorder.
//!
//! A [`SpanHandle`] is created once (it owns its name and a histogram
//! handle); [`SpanHandle::enter`] returns a guard that, on drop, records
//! the elapsed nanoseconds into the histogram and — only while trace
//! capture is on ([`crate::start_tracing`]) — appends a [`TraceEvent`] to
//! the global recorder. The recorder is bounded: once full, events are
//! counted as dropped rather than growing without limit, so always-on
//! instrumentation can never exhaust memory.
//!
//! # Staying under the overhead gate
//!
//! Span sites sit on paths that execute in hundreds of nanoseconds (a
//! module run, an RPC poll), where two clock reads per span would blow
//! the <1%-of-wall-clock self-overhead budget. So outside trace capture,
//! span *timing* is **sampled**: every
//! [`crate::span_sample_period`]-th execution per site is timed; the
//! rest cost two relaxed loads and one relaxed increment. Latency
//! histograms therefore hold a uniform sample of executions (exact
//! event totals belong in [`crate::Counter`]s). While trace capture is
//! on, every span is timed so traces stay complete.
//!
//! Timestamps are nanoseconds of [`Instant`] since a process-wide epoch:
//! one monotonic clock on every platform, with no calibration step and no
//! unit conversion between a read and a recorded duration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;

/// Sampling mask: a span is timed when `ticker & mask == 0`, so the
/// stored value is `period - 1` (period is a power of two). Default
/// period: 32.
pub(crate) static SAMPLE_MASK: AtomicU64 = AtomicU64::new(31);

/// The process-wide instant every span timestamp is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since [`epoch`].
#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// [`now_ns`] value all trace timestamps are measured from, anchored by
/// [`crate::start_tracing`].
static TRACE_EPOCH_NS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn anchor_epoch() {
    TRACE_EPOCH_NS.store(now_ns(), Ordering::Relaxed);
}

/// Advances a per-site sampling ticker and reports whether this execution
/// is the sampled one. Deliberately load-then-store rather than a locked
/// `fetch_add`: a lost increment under a race only nudges the effective
/// sampling phase, and the unlocked pair is several times cheaper on the
/// sub-microsecond paths this guards.
#[inline(always)]
pub(crate) fn tick_site(ticker: &AtomicU64) -> bool {
    let t = ticker.load(Ordering::Relaxed);
    ticker.store(t.wrapping_add(1), Ordering::Relaxed);
    t & SAMPLE_MASK.load(Ordering::Relaxed) == 0
}

/// A standalone sampling ticker for a decision that spans several span
/// sites (the tick engine decides once per tick whether that tick's module
/// runs are timed), honoring the same global period as span timing
/// ([`crate::span_sample_period`]).
#[derive(Debug, Default)]
pub struct Sampler(AtomicU64);

impl Sampler {
    /// Creates a sampler; the first event is always sampled.
    pub const fn new() -> Self {
        Sampler(AtomicU64::new(0))
    }

    /// Advances the ticker; true when this event should be recorded.
    #[inline]
    pub fn sample(&self) -> bool {
        tick_site(&self.0)
    }
}

/// One completed span, in Chrome `trace_event` terms a `ph: "X"` complete
/// event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (e.g. the module instance id).
    pub name: Arc<str>,
    /// Category (e.g. `engine`, `campaign`, `rpc`).
    pub cat: &'static str,
    /// Small dense id of the emitting thread.
    pub tid: u64,
    /// Start, nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Small dense id for the current thread (Chrome traces want integer
/// tids; [`std::thread::ThreadId`] is opaque).
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Default recorder capacity: enough for a smoke campaign's per-module
/// spans (~48 bytes each, so ~200 MB at the cap) without letting a
/// long-running deployment grow unboundedly.
pub const DEFAULT_TRACE_CAPACITY: usize = 4_000_000;

pub(crate) struct Recorder {
    pub events: Mutex<Vec<TraceEvent>>,
    pub capacity: AtomicU64,
    pub dropped: AtomicU64,
}

pub(crate) fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        events: Mutex::new(Vec::new()),
        capacity: AtomicU64::new(DEFAULT_TRACE_CAPACITY as u64),
        dropped: AtomicU64::new(0),
    })
}

pub(crate) fn record_event(ev: TraceEvent) {
    let rec = recorder();
    let cap = rec.capacity.load(Ordering::Relaxed) as usize;
    let mut events = rec.events.lock().expect("trace recorder poisoned");
    if events.len() < cap {
        events.push(ev);
    } else {
        rec.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A named timing site: owns the span name, category, and the histogram
/// every execution feeds. Create once, [`enter`](SpanHandle::enter) often.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    name: Arc<str>,
    cat: &'static str,
    hist: Arc<Histogram>,
    /// Per-site execution ticker driving the sampling decision; shared by
    /// clones so a site samples uniformly across threads.
    ticker: Arc<AtomicU64>,
}

impl SpanHandle {
    /// Creates a handle feeding `hist` (typically obtained from the
    /// [`crate::registry()`] so summaries and exports can find it).
    pub fn new(cat: &'static str, name: impl Into<Arc<str>>, hist: Arc<Histogram>) -> Self {
        SpanHandle {
            name: name.into(),
            cat,
            hist,
            ticker: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The latency histogram this handle feeds.
    pub fn histogram(&self) -> &Arc<Histogram> {
        &self.hist
    }

    /// Starts timing; the returned guard records on drop. When the layer
    /// is disabled this is a single relaxed load and the guard is inert;
    /// when enabled, unsampled executions cost a handful of relaxed loads
    /// and one plain store (see the module docs).
    #[inline]
    pub fn enter(&self) -> SpanGuard<'_> {
        let start = if crate::enabled() && (crate::tracing_on() || tick_site(&self.ticker)) {
            Some(now_ns())
        } else {
            None
        };
        SpanGuard {
            handle: self,
            start,
        }
    }

    /// Starts timing unconditionally — no enabled/tracing/sampling gate.
    ///
    /// For call sites that hoist the gating decision out of an even hotter
    /// loop (e.g. the tick engine decides once per tick, then times every
    /// module run in that tick through this method), so the per-execution
    /// cost in unsampled ticks is one plain branch instead of several
    /// atomic loads.
    #[inline]
    pub fn enter_forced(&self) -> SpanGuard<'_> {
        SpanGuard {
            handle: self,
            start: Some(now_ns()),
        }
    }
}

/// Live timer for one execution of a [`SpanHandle`]; records on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    handle: &'a SpanHandle,
    start: Option<u64>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = now_ns().saturating_sub(start);
        self.handle.hist.record(dur_ns);
        if crate::tracing_on() {
            let ts_ns = start.saturating_sub(TRACE_EPOCH_NS.load(Ordering::Relaxed));
            record_event(TraceEvent {
                name: Arc::clone(&self.handle.name),
                cat: self.handle.cat,
                tid: current_tid(),
                ts_ns,
                dur_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_feeds_histogram() {
        let _guard = crate::tests::flag_lock();
        let was = crate::set_span_sample_period(1);
        let hist = Arc::new(Histogram::new());
        let span = SpanHandle::new("test", "unit", Arc::clone(&hist));
        for _ in 0..3 {
            let _g = span.enter();
        }
        crate::set_span_sample_period(was);
        assert_eq!(hist.count(), 3);
        assert_eq!(span.name(), "unit");
    }

    #[test]
    fn a_span_around_a_sleep_records_a_duration_that_brackets_it() {
        let _guard = crate::tests::flag_lock();
        let was = crate::set_span_sample_period(1);
        let hist = Arc::new(Histogram::new());
        let span = SpanHandle::new("test", "slept", Arc::clone(&hist));
        let pause = std::time::Duration::from_millis(20);
        crate::start_tracing(16);
        let outer = Instant::now();
        {
            let _g = span.enter();
            std::thread::sleep(pause);
        }
        let outer_ns = outer.elapsed().as_nanos() as u64;
        let (events, _) = crate::stop_tracing();
        crate::set_span_sample_period(was);
        let ev = events
            .iter()
            .find(|e| &*e.name == "slept")
            .expect("span captured");
        // The span lies inside `outer` and contains the sleep, so its
        // duration is pinned from both sides in real nanoseconds.
        let pause_ns = pause.as_nanos() as u64;
        assert!(ev.dur_ns >= pause_ns, "{} < {pause_ns}", ev.dur_ns);
        assert!(ev.dur_ns <= outer_ns, "{} > {outer_ns}", ev.dur_ns);
        assert_eq!(hist.snapshot().sum, ev.dur_ns);
    }

    #[test]
    fn sampling_times_one_in_period_executions() {
        let _guard = crate::tests::flag_lock();
        let was = crate::set_span_sample_period(4);
        let hist = Arc::new(Histogram::new());
        let span = SpanHandle::new("test", "sampled", Arc::clone(&hist));
        for _ in 0..8 {
            let _g = span.enter();
        }
        crate::set_span_sample_period(was);
        // Executions 0 and 4 are the sampled ones at period 4.
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn sample_period_rounds_to_a_power_of_two() {
        let _guard = crate::tests::flag_lock();
        let was = crate::set_span_sample_period(48);
        assert_eq!(crate::span_sample_period(), 32);
        assert_eq!(crate::set_span_sample_period(0), 32);
        assert_eq!(crate::span_sample_period(), 1);
        crate::set_span_sample_period(was);
    }

    #[test]
    fn tids_are_stable_within_a_thread_and_distinct_across() {
        let _guard = crate::tests::flag_lock();
        let a = current_tid();
        assert_eq!(a, current_tid());
        let b = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
