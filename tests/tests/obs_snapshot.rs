//! Integration tests for the observability snapshot export: a
//! `Registry::snapshot()` taken while metrics are being hammered
//! concurrently keeps every series and renders to plain JSON, and the
//! Chrome trace file the CLI writes with `--trace-out` must be valid JSON
//! that parses back to the same event population.
//!
//! Tests that toggle process-global obs state serialize on [`obs_lock`].

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use asdf_obs::{export, json, render_snapshot, snapshot_digest, Registry};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The snapshot taken *while* writers are updating metrics concurrently
/// keeps every series under its own name, renders to plain JSON, and
/// reflects the final totals after the writers join — no torn names, no
/// dropped series.
#[test]
fn snapshot_under_concurrent_updates_is_lossless() {
    let _guard = obs_lock();
    let reg = Arc::new(Registry::default());
    // Register up front so writers race on values, not map insertion.
    let counter = reg.counter("race.counter_total");
    let gauge = reg.gauge("race.gauge_depth");
    let hist = reg.histogram("race.latency_ns");

    const WRITERS: usize = 4;
    const OPS: u64 = 5_000;
    let barrier = Arc::new(std::sync::Barrier::new(WRITERS + 1));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (c, g, h, b) = (
                Arc::clone(&counter),
                Arc::clone(&gauge),
                Arc::clone(&hist),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                b.wait();
                for i in 0..OPS {
                    c.inc();
                    g.set((w as i64 + 1) * 100);
                    h.record(i * 3 + w as u64);
                }
            })
        })
        .collect();
    barrier.wait();
    // Mid-race snapshots: whatever inconsistent-but-valid state each one
    // observed, it names every series once and renders to plain JSON.
    let names = |snap: &asdf_obs::RegistrySnapshot| {
        (
            snap.counters
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            snap.gauges
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            snap.histograms
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
        )
    };
    let expected = (
        vec!["race.counter_total".to_owned()],
        vec!["race.gauge_depth".to_owned()],
        vec!["race.latency_ns".to_owned()],
    );
    for _ in 0..50 {
        let snap = reg.snapshot();
        assert_eq!(names(&snap), expected);
        assert!(snap.counters[0].1 <= WRITERS as u64 * OPS);
        json::parse(&render_snapshot(&snap)).expect("mid-race snapshot is valid JSON");
    }
    for h in handles {
        h.join().expect("writer");
    }
    let final_snap = reg.snapshot();
    assert_eq!(names(&final_snap), expected);
    assert_eq!(final_snap.counters[0].1, WRITERS as u64 * OPS);
    let (_, h) = &final_snap.histograms[0];
    assert_eq!(h.count, WRITERS as u64 * OPS);
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    let (value, high_water) = final_snap.gauges[0].1;
    assert!((100..=WRITERS as i64 * 100).contains(&value));
    assert_eq!(high_water, WRITERS as i64 * 100);
    // Digest is stable across repeated snapshots of a quiescent registry.
    assert_eq!(
        snapshot_digest(&reg.snapshot()),
        snapshot_digest(&reg.snapshot())
    );
}

/// The exact file `--trace-out` writes is valid JSON and parses back to
/// the same per-thread event population the recorder captured.
#[test]
fn trace_out_file_parses_back() {
    let _guard = obs_lock();
    let prev = asdf_obs::set_enabled(true);
    let hist = Arc::new(asdf_obs::Histogram::new());
    let span = asdf_obs::SpanHandle::new("test", "traced_work", Arc::clone(&hist));
    asdf_obs::start_tracing(1024);
    for _ in 0..25 {
        drop(span.enter());
    }
    let (events, dropped) = asdf_obs::stop_tracing();
    asdf_obs::set_enabled(prev);
    assert_eq!(dropped, 0);
    assert_eq!(events.len(), 25);

    let path = std::env::temp_dir().join(format!("asdf_trace_{}.json", std::process::id()));
    export::write_chrome_trace(&path, &events).expect("trace file writes");
    let text = std::fs::read_to_string(&path).expect("trace file reads");
    let _ = std::fs::remove_file(&path);

    // Plain JSON first, then the structural validator the CLI uses.
    let doc = json::parse(&text).expect("trace file is valid JSON");
    let parsed_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(parsed_events.len(), events.len());
    assert!(parsed_events
        .iter()
        .all(|e| e.get("name").and_then(|n| n.as_str()) == Some("traced_work")));
    let check = export::validate_chrome_trace(&text).expect("trace validates");
    assert_eq!(check.n_events, events.len());
    assert_eq!(check.n_names, 1);
}
