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
//! * **lossless** — integer values that exceed the 2^53 exact range of a
//!   JSON `f64` are encoded as decimal strings, so a `u64::MAX` histogram
//!   sum survives the round trip bit-for-bit.
//!
//! [`parse_snapshot`] inverts [`render_snapshot`] exactly, and
//! [`snapshot_digest`] hashes the canonical rendering into a short stable
//! fingerprint (FNV-1a 64) that perf-history records and the end-of-run
//! summary can cite.

use std::fmt;

use crate::json::{self, Value};
use crate::metrics::{HistogramSnapshot, N_BUCKETS};
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

/// A structural failure while parsing a snapshot document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn bad(msg: impl Into<String>) -> SnapshotError {
    SnapshotError(msg.into())
}

/// Reads a `u64` written by [`push_u64`] (number or decimal string).
fn read_u64(v: &Value, what: &str) -> Result<u64, SnapshotError> {
    match v {
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT as f64 => {
            Ok(*n as u64)
        }
        Value::String(s) => s.parse().map_err(|_| bad(format!("{what}: bad `{s}`"))),
        other => Err(bad(format!(
            "{what}: expected unsigned integer, got {other:?}"
        ))),
    }
}

/// Reads an `i64` written by [`push_i64`].
fn read_i64(v: &Value, what: &str) -> Result<i64, SnapshotError> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && n.abs() <= MAX_EXACT as f64 => Ok(*n as i64),
        Value::String(s) => s.parse().map_err(|_| bad(format!("{what}: bad `{s}`"))),
        other => Err(bad(format!("{what}: expected integer, got {other:?}"))),
    }
}

fn object<'a>(
    v: &'a Value,
    what: &str,
) -> Result<&'a std::collections::BTreeMap<String, Value>, SnapshotError> {
    match v {
        Value::Object(map) => Ok(map),
        _ => Err(bad(format!("{what}: expected object"))),
    }
}

/// Parses a document produced by [`render_snapshot`] back into a
/// [`RegistrySnapshot`]. Exact inverse: for every snapshot `s`,
/// `parse_snapshot(&render_snapshot(&s)) == Ok(s)`.
///
/// # Errors
///
/// Returns [`SnapshotError`] on malformed JSON, a wrong `schema`/`kind`,
/// or out-of-range values.
pub fn parse_snapshot(text: &str) -> Result<RegistrySnapshot, SnapshotError> {
    let doc = json::parse(text).map_err(|e| bad(e.to_string()))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_f64)
        .ok_or_else(|| bad("missing schema"))?;
    if schema != f64::from(SNAPSHOT_SCHEMA) {
        return Err(bad(format!("unsupported schema {schema}")));
    }
    if doc.get("kind").and_then(Value::as_str) != Some(SNAPSHOT_KIND) {
        return Err(bad("missing or wrong kind tag"));
    }

    let counters = object(
        doc.get("counters").ok_or_else(|| bad("missing counters"))?,
        "counters",
    )?
    .iter()
    .map(|(name, v)| Ok((name.clone(), read_u64(v, name)?)))
    .collect::<Result<Vec<_>, SnapshotError>>()?;

    let gauges = object(
        doc.get("gauges").ok_or_else(|| bad("missing gauges"))?,
        "gauges",
    )?
    .iter()
    .map(|(name, v)| {
        let g = object(v, name)?;
        let value = read_i64(
            g.get("value").ok_or_else(|| bad("gauge missing value"))?,
            name,
        )?;
        let hw = read_i64(
            g.get("high_water")
                .ok_or_else(|| bad("gauge missing high_water"))?,
            name,
        )?;
        Ok((name.clone(), (value, hw)))
    })
    .collect::<Result<Vec<_>, SnapshotError>>()?;

    let histograms = object(
        doc.get("histograms")
            .ok_or_else(|| bad("missing histograms"))?,
        "histograms",
    )?
    .iter()
    .map(|(name, v)| {
        let h = object(v, name)?;
        let count = read_u64(
            h.get("count")
                .ok_or_else(|| bad("histogram missing count"))?,
            name,
        )?;
        let sum = read_u64(
            h.get("sum").ok_or_else(|| bad("histogram missing sum"))?,
            name,
        )?;
        let mut buckets = [0u64; N_BUCKETS];
        for pair in h
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("histogram missing buckets"))?
        {
            let pair = pair
                .as_array()
                .ok_or_else(|| bad("bucket entry not a pair"))?;
            if pair.len() != 2 {
                return Err(bad("bucket entry not a pair"));
            }
            let idx = read_u64(&pair[0], "bucket index")? as usize;
            if idx >= N_BUCKETS {
                return Err(bad(format!("bucket index {idx} out of range")));
            }
            buckets[idx] = read_u64(&pair[1], "bucket count")?;
        }
        Ok((
            name.clone(),
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        ))
    })
    .collect::<Result<Vec<_>, SnapshotError>>()?;

    Ok(RegistrySnapshot {
        counters,
        gauges,
        histograms,
    })
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
    use crate::Registry;

    fn populated() -> RegistrySnapshot {
        let reg = Registry::default();
        reg.counter("engine.ticks_total").add(41);
        reg.counter("rpc.bytes_total").add(1 << 30);
        reg.gauge("engine.pending.a").set(7);
        reg.gauge("pool.workers").set(-3);
        let h = reg.histogram("engine.tick_ns");
        h.record(0);
        h.record(900);
        h.record(1 << 40);
        reg.histogram("empty.hist"); // registered, never recorded
        reg.snapshot()
    }

    #[test]
    fn round_trip_is_exact() {
        let _guard = crate::tests::flag_lock();
        let snap = populated();
        let text = render_snapshot(&snap);
        let back = parse_snapshot(&text).expect("parses");
        assert_eq!(back, snap);
        // Determinism: same state, same bytes, same digest.
        assert_eq!(render_snapshot(&back), text);
        assert_eq!(snapshot_digest(&back), snapshot_digest(&snap));
    }

    #[test]
    fn values_beyond_f64_precision_survive() {
        let _guard = crate::tests::flag_lock();
        let reg = Registry::default();
        reg.counter("big").add(u64::MAX);
        reg.gauge("low").set(i64::MIN + 1);
        let h = reg.histogram("h");
        h.record(u64::MAX); // sum = u64::MAX, bucket 63
        let snap = reg.snapshot();
        let text = render_snapshot(&snap);
        // The big values must have gone out as strings, not lossy numbers.
        assert!(text.contains(&format!("\"{}\"", u64::MAX)), "{text}");
        assert_eq!(parse_snapshot(&text).expect("parses"), snap);
    }

    #[test]
    fn digest_tracks_state() {
        let _guard = crate::tests::flag_lock();
        let reg = Registry::default();
        reg.counter("c").add(1);
        let d1 = snapshot_digest(&reg.snapshot());
        reg.counter("c").add(1);
        let d2 = snapshot_digest(&reg.snapshot());
        assert_ne!(d1, d2);
        assert_eq!(d1.len(), 16);
        assert!(d1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn rejects_wrong_schema_kind_and_garbage() {
        assert!(parse_snapshot("not json").is_err());
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot(
            r#"{"schema":99,"kind":"asdf-obs-snapshot","counters":{},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        assert!(parse_snapshot(
            r#"{"schema":1,"kind":"other","counters":{},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        // Bucket index out of range.
        assert!(parse_snapshot(
            r#"{"schema":1,"kind":"asdf-obs-snapshot","counters":{},"gauges":{},
                "histograms":{"h":{"count":1,"sum":1,"buckets":[[64,1]]}}}"#
        )
        .is_err());
    }

    #[test]
    fn empty_registry_renders_and_parses() {
        let snap = RegistrySnapshot::default();
        let back = parse_snapshot(&render_snapshot(&snap)).expect("parses");
        assert!(back.is_empty());
    }
}
