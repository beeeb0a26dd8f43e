//! Schema-versioned serialization of [`RegistrySnapshot`]s.
//!
//! A snapshot record is one JSON document capturing every registered
//! counter, gauge, and histogram at a point in time — the full metric
//! state of a run, not just hand-picked numbers. The format is:
//!
//! * **stable** — keys are emitted in name order (the snapshot is already
//!   name-ordered), so the same state always renders to the same bytes;
//! * **versioned** — a top-level `schema` field gates future layout
//!   changes, and `kind` tags the document type;
//! * **exact** — integer values that exceed the 2^53 exact range of a
//!   JSON `f64` are written as decimal strings, so a `u64::MAX` histogram
//!   sum keeps every digit.
//!
//! Nothing reads a snapshot back: [`snapshot_digest`] hashes the canonical
//! rendering into a short stable fingerprint (FNV-1a 64) that perf-history
//! records and the end-of-run summary cite.

use crate::json;
use crate::registry::RegistrySnapshot;

/// Version tag written into every rendered snapshot document.
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// Document-type tag written into every rendered snapshot document.
pub const SNAPSHOT_KIND: &str = "asdf-obs-snapshot";

/// Largest integer magnitude a JSON number (an `f64`) represents exactly.
const MAX_EXACT: u64 = 1 << 53;

/// Writes a `u64` as a JSON number when exact in `f64`, else as a decimal
/// string (lossless for the full range).
fn push_u64(v: u64, out: &mut String) {
    use std::fmt::Write as _;
    if v <= MAX_EXACT {
        let _ = write!(out, "{v}");
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

/// Writes an `i64` with the same exact-or-string discipline as
/// [`push_u64`].
fn push_i64(v: i64, out: &mut String) {
    use std::fmt::Write as _;
    if v.unsigned_abs() <= MAX_EXACT {
        let _ = write!(out, "{v}");
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

/// Renders a snapshot as the canonical schema-versioned JSON document.
///
/// The output is deterministic: equal snapshots render to equal bytes
/// (metric maps are name-ordered, numbers are integers, no whitespace).
pub fn render_snapshot(snap: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(
        128 + 32 * (snap.counters.len() + snap.gauges.len()) + 96 * snap.histograms.len(),
    );
    out.push_str("{\"schema\":");
    out.push_str(&SNAPSHOT_SCHEMA.to_string());
    out.push_str(",\"kind\":\"");
    out.push_str(SNAPSHOT_KIND);
    out.push_str("\",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(name, &mut out);
        out.push_str("\":");
        push_u64(*v, &mut out);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, (v, hw))) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(name, &mut out);
        out.push_str("\":{\"value\":");
        push_i64(*v, &mut out);
        out.push_str(",\"high_water\":");
        push_i64(*hw, &mut out);
        out.push('}');
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json::escape_into(name, &mut out);
        out.push_str("\":{\"count\":");
        push_u64(h.count, &mut out);
        out.push_str(",\"sum\":");
        push_u64(h.sum, &mut out);
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (idx, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push('[');
            out.push_str(&idx.to_string());
            out.push(',');
            push_u64(n, &mut out);
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// FNV-1a 64-bit hash — tiny, dependency-free, stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A short, stable fingerprint of a snapshot: the FNV-1a 64 hash of its
/// canonical rendering, as 16 lowercase hex digits. Equal metric states
/// digest equal; any changed value changes the digest (up to hash
/// collisions).
pub fn snapshot_digest(snap: &RegistrySnapshot) -> String {
    format!("{:016x}", fnv1a64(render_snapshot(snap).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::Registry;

    #[test]
    fn values_beyond_f64_precision_survive() {
        let _guard = crate::tests::flag_lock();
        let reg = Registry::default();
        reg.counter("big").add(u64::MAX);
        reg.gauge("low").set(i64::MIN + 1);
        let h = reg.histogram("h");
        h.record(u64::MAX); // sum = u64::MAX, bucket 63
        let text = render_snapshot(&reg.snapshot());
        // The big values must have gone out as strings, not lossy numbers.
        let doc = json::parse(&text).expect("a snapshot is plain JSON");
        let at = |path: &[&str]| {
            let mut v = &doc;
            for key in path {
                v = v.get(key).unwrap_or_else(|| panic!("{path:?} in {text}"));
            }
            v.clone()
        };
        let max = Value::String(u64::MAX.to_string());
        assert_eq!(at(&["counters", "big"]), max);
        assert_eq!(at(&["histograms", "h", "sum"]), max);
        assert_eq!(
            at(&["gauges", "low", "value"]),
            Value::String((i64::MIN + 1).to_string())
        );
        assert_eq!(at(&["histograms", "h", "count"]), Value::Number(1.0));
    }

    #[test]
    fn digest_tracks_state() {
        let _guard = crate::tests::flag_lock();
        let reg = Registry::default();
        reg.counter("c").add(1);
        let d1 = snapshot_digest(&reg.snapshot());
        assert_eq!(d1, snapshot_digest(&reg.snapshot()));
        reg.counter("c").add(1);
        let d2 = snapshot_digest(&reg.snapshot());
        assert_ne!(d1, d2);
        assert_eq!(d1.len(), 16);
        assert!(d1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn empty_registry_renders_and_parses() {
        let text = render_snapshot(&RegistrySnapshot::default());
        assert_eq!(
            text,
            r#"{"schema":1,"kind":"asdf-obs-snapshot","counters":{},"gauges":{},"histograms":{}}"#
        );
        json::parse(&text).expect("a snapshot is plain JSON");
    }
}
