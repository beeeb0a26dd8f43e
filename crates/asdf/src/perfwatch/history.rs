//! The `BENCH_history.jsonl` record schema: one JSON line per perfsuite
//! run, schema-versioned so the series survives layout changes.
//!
//! * **Schema 1** (current): `{"schema":1,"suite":"perfsuite",
//!   "ts_epoch_secs":…,"utc":"…Z","commit":"…","host":{"cores":…,
//!   "simd":"avx2|scalar"},"workers":…,"metrics":{…},"obs_digest":"…"}`
//!   (written in key order; the lines recorded before the one JSON writer
//!   keep the order shown, and no reader cares).
//!   Every run carries its commit hash (`+dirty` when the tree it
//!   measured was uncommitted), UTC timestamp, host fingerprint (core
//!   count + kernel SIMD dispatch — one population for trend analysis),
//!   worker configuration, the full flat map of section metrics, and the
//!   digest of the run's observability snapshot
//!   ([`asdf_obs::snapshot::snapshot_digest`]).
//! * **Schema 0** (legacy): the flat one-line records PR 6 wrote —
//!   `ts_epoch_secs`/`suite`/`workers` plus bare numeric metric fields,
//!   no commit or host metadata. [`parse_history`] normalizes them so the
//!   seed line stays a valid first point of every metric series.

use std::collections::BTreeMap;
use std::fmt;

use asdf_obs::json::{self, Value};

/// Version tag written into every new history record.
pub const HISTORY_SCHEMA: u32 = 1;

/// One perfsuite run in the BENCH time series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRecord {
    /// Record layout version (0 = legacy pre-metadata line).
    pub schema: u32,
    /// Seconds since the UNIX epoch at record time.
    pub ts_epoch_secs: u64,
    /// `ts_epoch_secs` rendered as `YYYY-MM-DDTHH:MM:SSZ`.
    pub utc: String,
    /// Git commit hash of the measured tree (`unknown` for legacy lines).
    pub commit: String,
    /// Cores available to the run (0 when unrecorded).
    pub cores: usize,
    /// Vector width the distance kernels were compiled for (`avx2`,
    /// `scalar`, or `unknown`).
    pub simd: String,
    /// Campaign worker count the suite ran with.
    pub workers: usize,
    /// Flat name → value map of every section metric. Only finite values
    /// are recorded.
    pub metrics: BTreeMap<String, f64>,
    /// Digest of the run's full observability snapshot, when captured.
    pub obs_digest: Option<String>,
}

/// A failure loading the history file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryError {
    /// 1-based line the failure occurred on (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HistoryError {}

/// Renders `secs` since the UNIX epoch as `YYYY-MM-DDTHH:MM:SSZ`
/// (proleptic Gregorian, no leap seconds — the civil-from-days algorithm).
pub fn utc_from_epoch(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    // Howard Hinnant's civil_from_days: shift the epoch to 0000-03-01 so
    // leap days land at era ends.
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Renders a record as one JSON line (no trailing newline) in the layout
/// of its own `schema`, keys in name order: a schema-0 record goes back
/// to the flat legacy form [`parse_history`] normalized it from.
/// Non-finite metric values are skipped — JSON has no spelling for them
/// and a NaN section metric is a bug to surface elsewhere, not to poison
/// the series with.
pub fn render_record(r: &HistoryRecord) -> String {
    let metrics = r
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, v)| (name.as_str(), Value::from(*v)));
    let mut fields: Vec<(&str, Value)> = vec![
        ("schema", f64::from(r.schema).into()),
        ("suite", "perfsuite".into()),
        ("ts_epoch_secs", (r.ts_epoch_secs as f64).into()),
        ("workers", (r.workers as f64).into()),
    ];
    if r.schema == 0 {
        fields.extend(metrics);
    } else {
        let host = [
            ("cores", (r.cores as f64).into()),
            ("simd", r.simd.as_str().into()),
        ];
        fields.extend([
            ("utc", r.utc.as_str().into()),
            ("commit", r.commit.as_str().into()),
            ("host", json::object(host)),
            ("metrics", json::object(metrics)),
        ]);
        if let Some(digest) = &r.obs_digest {
            fields.push(("obs_digest", digest.as_str().into()));
        }
    }
    json::object(fields).render(None)
}

fn num(v: &Value) -> Option<f64> {
    v.as_f64()
}

fn parse_line(line: &str, lineno: usize) -> Result<HistoryRecord, HistoryError> {
    let err = |message: String| HistoryError {
        line: lineno,
        message,
    };
    let doc = json::parse(line).map_err(|e| err(e.to_string()))?;
    let Value::Object(map) = &doc else {
        return Err(err("record is not a JSON object".into()));
    };
    let schema = map.get("schema").and_then(num).unwrap_or(0.0);
    if schema != 0.0 && schema != f64::from(HISTORY_SCHEMA) {
        return Err(err(format!("unsupported schema {schema}")));
    }
    let ts_epoch_secs = map
        .get("ts_epoch_secs")
        .and_then(num)
        .ok_or_else(|| err("missing ts_epoch_secs".into()))? as u64;

    if schema == 0.0 {
        // Legacy flat record: every numeric field apart from the envelope
        // fields is a metric; metadata defaults to "unknown".
        let mut metrics = BTreeMap::new();
        for (k, v) in map {
            if matches!(k.as_str(), "schema" | "ts_epoch_secs" | "workers" | "suite") {
                continue;
            }
            if let Some(x) = num(v) {
                metrics.insert(k.clone(), x);
            }
        }
        return Ok(HistoryRecord {
            schema: 0,
            ts_epoch_secs,
            utc: utc_from_epoch(ts_epoch_secs),
            commit: "unknown".to_owned(),
            cores: 0,
            simd: "unknown".to_owned(),
            workers: map.get("workers").and_then(num).unwrap_or(0.0) as usize,
            metrics,
            obs_digest: None,
        });
    }

    let host = map.get("host");
    let metrics = match map.get("metrics") {
        Some(Value::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| num(v).map(|x| (k.clone(), x)))
            .collect(),
        _ => return Err(err("schema-1 record missing metrics object".into())),
    };
    Ok(HistoryRecord {
        schema: HISTORY_SCHEMA,
        ts_epoch_secs,
        utc: map
            .get("utc")
            .and_then(Value::as_str)
            .map_or_else(|| utc_from_epoch(ts_epoch_secs), str::to_owned),
        commit: map
            .get("commit")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        cores: host
            .and_then(|h| h.get("cores"))
            .and_then(num)
            .unwrap_or(0.0) as usize,
        simd: host
            .and_then(|h| h.get("simd"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        workers: map.get("workers").and_then(num).unwrap_or(0.0) as usize,
        metrics,
        obs_digest: map
            .get("obs_digest")
            .and_then(Value::as_str)
            .map(str::to_owned),
    })
}

/// Parses a whole `BENCH_history.jsonl` document (blank lines skipped),
/// normalizing legacy schema-0 lines.
///
/// # Errors
///
/// Returns [`HistoryError`] naming the first malformed line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRecord>, HistoryError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact seed line PR 6 wrote (plus the schema marker the backfill
    /// added) must stay parseable forever.
    const SEED_LINE: &str = r#"{"schema":0,"ts_epoch_secs":1786223772,"suite":"perfsuite","workers":1,"campaign_serial_secs":0.519,"campaign_pool_secs":0.527,"obs_overhead_pct":1.618,"engine_speedup_t4":0.978,"batch_speedup_b64":2.054,"envelopes_per_sec_b64":5235448,"scan_speedup":1.985,"parser_lines_per_sec":4256626}"#;

    #[test]
    fn seed_schema0_line_normalizes() {
        let recs = parse_history(SEED_LINE).expect("seed line parses");
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.schema, 0);
        assert_eq!(r.commit, "unknown");
        assert_eq!(r.simd, "unknown");
        assert_eq!(r.workers, 1);
        assert_eq!(r.metrics["campaign_serial_secs"], 0.519);
        assert_eq!(r.metrics["envelopes_per_sec_b64"], 5_235_448.0);
        assert_eq!(r.metrics.len(), 8);
        assert!(r.obs_digest.is_none());
        // The marker-less original line parses identically.
        let bare = SEED_LINE.replacen("{\"schema\":0,", "{", 1);
        assert_eq!(parse_history(&bare).unwrap()[0].metrics, r.metrics);
    }

    #[test]
    fn schema1_round_trips() {
        let rec = HistoryRecord {
            schema: HISTORY_SCHEMA,
            ts_epoch_secs: 1_786_223_772,
            utc: utc_from_epoch(1_786_223_772),
            commit: "abc123def456".to_owned(),
            cores: 4,
            simd: "avx2".to_owned(),
            workers: 2,
            metrics: [
                ("campaign_serial_secs".to_owned(), 0.5),
                ("scan_speedup".to_owned(), 1.985),
                ("nan_metric".to_owned(), f64::NAN),
            ]
            .into_iter()
            .collect(),
            obs_digest: Some("00ff00ff00ff00ff".to_owned()),
        };
        let line = render_record(&rec);
        assert!(!line.contains('\n'));
        let back = &parse_history(&line).expect("round trip")[0];
        assert_eq!(back.commit, rec.commit);
        assert_eq!(back.cores, 4);
        assert_eq!(back.simd, "avx2");
        assert_eq!(back.obs_digest, rec.obs_digest);
        // The NaN metric is dropped at render time, the rest survive.
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics["scan_speedup"], 1.985);
    }

    /// Every tracked line — the flat schema-0 seed included — survives
    /// parse → render → parse, so the writer can rewrite the file it reads.
    #[test]
    fn tracked_history_round_trips_line_by_line() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let text = std::fs::read_to_string(path).expect("tracked BENCH history reads");
        assert!(!text.is_empty(), "the tracked series is never empty");
        for line in text.lines() {
            let parsed = parse_history(line).expect("tracked line parses");
            assert_eq!(parsed.len(), 1);
            let again = parse_history(&render_record(&parsed[0])).expect("rendered line parses");
            assert_eq!(again, parsed, "line: {line}");
        }
    }

    #[test]
    fn a_record_renders_in_the_layout_of_its_own_schema() {
        let seed = &parse_history(SEED_LINE).unwrap()[0];
        let line = render_record(seed);
        assert!(line.starts_with(r#"{"batch_speedup_b64":2.054,"#), "{line}");
        assert!(line.contains(r#""schema":0,"#), "{line}");
        assert!(!line.contains("metrics"), "schema 0 is flat: {line}");
        let current = HistoryRecord {
            schema: HISTORY_SCHEMA,
            ..seed.clone()
        };
        let line = render_record(&current);
        assert!(line.contains(r#""schema":1,"#), "{line}");
        assert!(line.contains(r#""metrics":{"batch_speedup_b64":2.054,"#));
    }

    #[test]
    fn utc_formatting_matches_known_dates() {
        assert_eq!(utc_from_epoch(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_from_epoch(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_from_epoch(1_786_223_772), "2026-08-08T21:16:12Z");
        assert_eq!(utc_from_epoch(86_399), "1970-01-01T23:59:59Z");
    }

    #[test]
    fn mixed_schemas_and_blank_lines() {
        let text = format!(
            "{SEED_LINE}\n\n{}\n",
            render_record(&HistoryRecord {
                schema: HISTORY_SCHEMA,
                ts_epoch_secs: 1,
                utc: utc_from_epoch(1),
                commit: "c".into(),
                cores: 1,
                simd: "scalar".into(),
                workers: 1,
                metrics: [("scan_speedup".to_owned(), 2.0)].into_iter().collect(),
                obs_digest: None,
            })
        );
        let recs = parse_history(&text).expect("mixed history parses");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].schema, 0);
        assert_eq!(recs[1].schema, 1);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = parse_history("{\"ts_epoch_secs\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_history(r#"{"schema":7,"ts_epoch_secs":1}"#).unwrap_err();
        assert!(err.message.contains("unsupported schema"));
        let err = parse_history(r#"{"schema":1,"ts_epoch_secs":1}"#).unwrap_err();
        assert!(err.message.contains("metrics"));
    }
}
