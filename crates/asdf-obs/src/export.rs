//! Exporters: Chrome `trace_event` JSON and an end-of-run text summary.
//!
//! The trace format is the subset of the Trace Event Format that
//! `chrome://tracing` and Perfetto load directly: a top-level object with
//! a `traceEvents` array of `ph: "X"` (complete) events, timestamps and
//! durations in **microseconds**. Span nesting is implicit: events on the
//! same `tid` whose `[ts, ts+dur]` intervals contain one another render
//! as stacked slices.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::json;
use crate::metrics::HistogramSnapshot;
use crate::registry::RegistrySnapshot;
use crate::span::TraceEvent;

/// Renders trace events as a Chrome `trace_event` JSON document.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    // ~120 bytes per rendered event.
    let mut out = String::with_capacity(64 + events.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        json::escape_into(&ev.name, &mut out);
        out.push_str("\",\"cat\":\"");
        json::escape_into(ev.cat, &mut out);
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            ev.tid,
            ev.ts_ns as f64 / 1000.0,
            ev.dur_ns as f64 / 1000.0,
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Writes events to `path` as Chrome trace JSON.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_chrome_trace(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(render_chrome_trace(events).as_bytes())?;
    file.flush()
}

/// Structural facts extracted by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheck {
    /// Number of events in the document.
    pub n_events: usize,
    /// Distinct thread ids seen.
    pub n_threads: usize,
    /// Distinct span names seen.
    pub n_names: usize,
}

/// Parses a Chrome trace document and checks that every event is a
/// well-formed complete event and that, per thread, spans **nest**: two
/// intervals on one thread either are disjoint or one contains the other
/// (the property that makes the trace render as clean stacks).
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;

    // (tid, ts, dur, name) per event.
    let mut per_thread: std::collections::BTreeMap<u64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut names = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i}: missing `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("event {i}: `{k}` not a number"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: `name` not a string"))?;
        if field("ph")?.as_str() != Some("X") {
            return Err(format!("event {i}: not a complete (ph=X) event"));
        }
        let (ts, dur) = (num("ts")?, num("dur")?);
        if !(ts.is_finite() && dur.is_finite() && ts >= 0.0 && dur >= 0.0) {
            return Err(format!("event {i}: bad ts/dur {ts}/{dur}"));
        }
        per_thread
            .entry(num("tid")? as u64)
            .or_default()
            .push((ts, ts + dur));
        names.insert(name.to_owned());
    }

    // Nesting check per thread: sweep intervals sorted by (start, -end)
    // with a stack of open intervals.
    for (tid, intervals) in &mut per_thread {
        intervals.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite")
                .then(b.1.partial_cmp(&a.1).expect("finite"))
        });
        let mut stack: Vec<f64> = Vec::new();
        for &(start, end) in intervals.iter() {
            while let Some(&open_end) = stack.last() {
                if open_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&open_end) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "tid {tid}: span [{start}, {end}] straddles enclosing span ending at {open_end}"
                    ));
                }
            }
            stack.push(end);
        }
    }

    Ok(TraceCheck {
        n_events: events.len(),
        n_threads: per_thread.len(),
        n_names: names.len(),
    })
}

/// Renders a histogram line for the summary table. A registered-but-empty
/// histogram is rendered explicitly (`(empty)` in place of statistics)
/// rather than as a misleading row of zeros — every registered name
/// appears in the summary, recorded or not.
fn histogram_line(name: &str, h: &HistogramSnapshot) -> String {
    if h.count == 0 {
        return format!(
            "  {name:<44} {:>10}  {:>12}  {:>12}  {:>12}\n",
            0, "(empty)", "-", "-"
        );
    }
    format!(
        "  {name:<44} {:>10}  {:>12.0}  {:>12}  {:>12}\n",
        h.count,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
    )
}

/// Renders the end-of-run text summary of a registry snapshot: the
/// snapshot digest (the same fingerprint perf-history records cite, see
/// [`crate::snapshot::snapshot_digest`]), counters, gauges (value +
/// high-water), and histograms (count / mean / p50 / p99, nanoseconds for
/// span timers).
pub fn render_summary(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("== instrumentation summary ==\n");
    let _ = writeln!(
        out,
        "snapshot digest: {}",
        crate::snapshot::snapshot_digest(snap)
    );
    if snap.is_empty() {
        out.push_str("  (no metrics registered)\n");
        return out;
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<44} {v:>10}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges (value / high-water):\n");
        for (name, (v, hw)) in &snap.gauges {
            let _ = writeln!(out, "  {name:<44} {v:>10} / {hw}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(
            "histograms:                                         count          mean           p50           p99\n",
        );
        for (name, h) in &snap.histograms {
            out.push_str(&histogram_line(name, h));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(name: &str, tid: u64, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: Arc::from(name),
            cat: "test",
            tid,
            ts_ns,
            dur_ns,
        }
    }

    #[test]
    fn trace_round_trips_through_the_validator() {
        let events = vec![
            ev("outer", 1, 0, 10_000),
            ev("inner \"quoted\"\n", 1, 2_000, 3_000),
            ev("other-thread", 2, 1_000, 500),
        ];
        let text = render_chrome_trace(&events);
        let check = validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.n_events, 3);
        assert_eq!(check.n_threads, 2);
        assert_eq!(check.n_names, 3);
    }

    #[test]
    fn validator_rejects_straddling_spans() {
        // [0, 10] and [5, 15] on one thread overlap without nesting.
        let events = vec![ev("a", 1, 0, 10_000), ev("b", 1, 5_000, 10_000)];
        let text = render_chrome_trace(&events);
        let err = validate_chrome_trace(&text).unwrap_err();
        assert!(err.contains("straddles"), "{err}");
    }

    #[test]
    fn validator_accepts_adjacent_and_empty() {
        let text = render_chrome_trace(&[]);
        assert_eq!(validate_chrome_trace(&text).unwrap().n_events, 0);
        // Touching intervals ([0,5] then [5,9]) are disjoint, not nested.
        let events = vec![ev("a", 1, 0, 5_000), ev("b", 1, 5_000, 4_000)];
        let ok = validate_chrome_trace(&render_chrome_trace(&events)).unwrap();
        assert_eq!(ok.n_events, 2);
    }

    #[test]
    fn summary_renders_all_sections() {
        let _guard = crate::tests::flag_lock();
        let reg = crate::Registry::default();
        reg.counter("rpc.messages_total").add(7);
        reg.gauge("campaign.workers").set(4);
        reg.histogram("engine.run_ns.x").record(1500);
        let text = render_summary(&reg.snapshot());
        assert!(text.contains("rpc.messages_total"));
        assert!(text.contains("campaign.workers"));
        assert!(text.contains("engine.run_ns.x"));
        assert!(text.contains("p99"));
        let empty = render_summary(&crate::Registry::default().snapshot());
        assert!(empty.contains("no metrics registered"));
    }

    #[test]
    fn summary_cites_the_snapshot_digest() {
        let _guard = crate::tests::flag_lock();
        let reg = crate::Registry::default();
        reg.counter("c.total").inc();
        let snap = reg.snapshot();
        let text = render_summary(&snap);
        let digest = crate::snapshot::snapshot_digest(&snap);
        assert!(
            text.contains(&format!("snapshot digest: {digest}")),
            "summary must cite the digest of the snapshot it renders:\n{text}"
        );
        // Even an empty registry gets a digest line (of the empty state).
        let empty_snap = crate::Registry::default().snapshot();
        assert!(render_summary(&empty_snap).contains("snapshot digest: "));
    }

    #[test]
    fn empty_histograms_render_explicitly_not_silently() {
        let _guard = crate::tests::flag_lock();
        let reg = crate::Registry::default();
        // Registered but never recorded: a span site that never fired.
        reg.histogram("engine.idle_ns.never");
        reg.histogram("engine.run_ns.live").record(512);
        let text = render_summary(&reg.snapshot());
        let empty_line = text
            .lines()
            .find(|l| l.contains("engine.idle_ns.never"))
            .expect("registered-but-empty histogram must still be listed");
        assert!(
            empty_line.contains("(empty)"),
            "empty histogram must be marked, not rendered as zeros: {empty_line}"
        );
        // The live one keeps its normal statistics row.
        let live_line = text
            .lines()
            .find(|l| l.contains("engine.run_ns.live"))
            .expect("live histogram listed");
        assert!(!live_line.contains("(empty)"), "{live_line}");
    }
}
