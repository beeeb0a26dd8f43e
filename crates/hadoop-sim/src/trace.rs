//! Trace-replay workload generation.
//!
//! Where [`crate::gridmix`] *synthesizes* a workload from a seeded mixture,
//! this module *replays* one from a cluster-trace-style CSV — the shape of
//! public traces like Google's cluster data that BiDAl-style analyses
//! consume: one row per job with its arrival time and task-shape columns.
//! Replay is fully deterministic: the same file produces the same job
//! sequence on every run, which is what the pinned-stream tests need.
//!
//! # Schema
//!
//! One job per line, 11 comma-separated columns:
//!
//! ```text
//! arrival_secs,class,maps,reduces,map_input_kb,map_cpu_secs,map_output_kb,\
//! shuffle_kb,sort_cpu_secs,reduce_cpu_secs,reduce_output_kb
//! ```
//!
//! `class` is a GridMix class name (`webdata_scan`, `webdata_sort`,
//! `stream_sort`, `java_sort`, `monster_query`). Blank lines and lines
//! starting with `#` are ignored. Malformed rows are rejected with the
//! 1-based line number, not skipped — a trace that parses is a trace that
//! replays.
//!
//! When a run outlives the trace, replay cycles back to the first row with
//! all arrival times shifted past the last submission, so long campaigns
//! keep receiving work (still deterministically).

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crate::job::{JobClass, JobSpec, MapProfile, ReduceProfile};
use crate::types::JobId;

/// One parsed trace row: a job template plus its arrival offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Submission time, seconds from the start of the trace epoch.
    pub arrival_secs: u64,
    /// Workload class.
    pub class: JobClass,
    /// Number of map tasks.
    pub maps: u32,
    /// Number of reduce tasks.
    pub reduces: u32,
    /// Per-map resource profile.
    pub map_profile: MapProfile,
    /// Per-reduce resource profile.
    pub reduce_profile: ReduceProfile,
}

/// A parse failure, carrying the 1-based line number of the offending row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What was wrong with the row.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// A fully parsed, validated job trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Rows in file order (arrival times need not be sorted; replay sorts
    /// submissions by construction).
    pub rows: Vec<TraceRow>,
}

const COLUMNS: usize = 11;

impl Trace {
    /// Parses a trace from CSV text. Every malformed row is an error — rows
    /// are never silently dropped.
    pub fn parse_str(text: &str) -> Result<Trace, TraceParseError> {
        let mut rows = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            rows.push(parse_row(line, line_no)?);
        }
        if rows.is_empty() {
            return Err(TraceParseError {
                line: 0,
                message: "trace contains no job rows".to_string(),
            });
        }
        Ok(Trace { rows })
    }

    /// Loads and parses a trace file.
    pub fn load(path: &Path) -> Result<Trace, TraceParseError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceParseError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Trace::parse_str(&text)
    }

    /// Duration of one trace epoch: the largest arrival offset.
    pub fn span_secs(&self) -> u64 {
        self.rows.iter().map(|r| r.arrival_secs).max().unwrap_or(0)
    }
}

fn parse_row(line: &str, line_no: usize) -> Result<TraceRow, TraceParseError> {
    let err = |message: String| TraceParseError {
        line: line_no,
        message,
    };
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != COLUMNS {
        return Err(err(format!(
            "expected {COLUMNS} columns, found {}",
            fields.len()
        )));
    }

    let uint = |name: &str, s: &str| -> Result<u64, TraceParseError> {
        s.parse::<u64>()
            .map_err(|_| err(format!("{name}: not a non-negative integer: {s:?}")))
    };
    let count = |name: &str, s: &str| -> Result<u32, TraceParseError> {
        s.parse::<u32>()
            .map_err(|_| err(format!("{name}: not an integer in 0..={}: {s:?}", u32::MAX)))
    };
    let pos_f64 = |name: &str, s: &str| -> Result<f64, TraceParseError> {
        let v = s
            .parse::<f64>()
            .map_err(|_| err(format!("{name}: not a number: {s:?}")))?;
        if !v.is_finite() || v < 0.0 {
            return Err(err(format!("{name}: must be finite and >= 0, got {s:?}")));
        }
        Ok(v)
    };

    let arrival_secs = uint("arrival_secs", fields[0])?;
    let class = JobClass::ALL
        .iter()
        .copied()
        .find(|c| c.name() == fields[1])
        .ok_or_else(|| err(format!("class: unknown job class {:?}", fields[1])))?;
    let maps = count("maps", fields[2])?;
    let reduces = count("reduces", fields[3])?;
    if maps == 0 {
        return Err(err("maps: must be at least 1".to_string()));
    }
    if reduces == 0 {
        return Err(err("reduces: must be at least 1".to_string()));
    }

    Ok(TraceRow {
        arrival_secs,
        class,
        maps,
        reduces,
        map_profile: MapProfile {
            input_kb: pos_f64("map_input_kb", fields[4])?,
            cpu_secs: pos_f64("map_cpu_secs", fields[5])?,
            output_kb: pos_f64("map_output_kb", fields[6])?,
        },
        reduce_profile: ReduceProfile {
            shuffle_kb: pos_f64("shuffle_kb", fields[7])?,
            sort_cpu_secs: pos_f64("sort_cpu_secs", fields[8])?,
            reduce_cpu_secs: pos_f64("reduce_cpu_secs", fields[9])?,
            output_kb: pos_f64("reduce_output_kb", fields[10])?,
        },
    })
}

/// Streaming replayer with the same `next_job` contract as
/// [`crate::gridmix::GridMix`]: strictly increasing submission times and
/// sequential [`JobId`]s from 1. Cycles through the trace indefinitely.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Arc<Trace>,
    cursor: usize,
    next_id: u32,
    epoch_base: u64,
    last_at: Option<u64>,
}

impl TraceReplay {
    /// Creates a replayer over `trace`.
    pub fn new(trace: Arc<Trace>) -> Self {
        TraceReplay {
            trace,
            cursor: 0,
            next_id: 1,
            epoch_base: 0,
            last_at: None,
        }
    }

    /// Produces the next job and its submission time (seconds).
    ///
    /// Submission times are strictly increasing even when the trace's own
    /// arrival offsets tie or run out of order, and across epoch wraps.
    pub fn next_job(&mut self) -> (u64, JobSpec) {
        let row = self.trace.rows[self.cursor];
        let base = self.epoch_base;
        self.cursor += 1;
        if self.cursor == self.trace.rows.len() {
            // Next epoch starts strictly after this one's span.
            self.cursor = 0;
            self.epoch_base += self.trace.span_secs() + 1;
        }

        let mut at = base + row.arrival_secs;
        if let Some(last) = self.last_at {
            at = at.max(last + 1);
        }
        self.last_at = Some(at);

        let id = JobId(self.next_id);
        self.next_id += 1;
        (
            at,
            JobSpec {
                id,
                class: row.class,
                maps: row.maps,
                reduces: row.reduces,
                map_profile: row.map_profile,
                reduce_profile: row.reduce_profile,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# arrival,class,maps,reduces,map_input_kb,map_cpu,map_out_kb,shuffle_kb,sort_cpu,red_cpu,red_out_kb
5,webdata_scan,8,1,16384,8.0,819.2,6553.6,1.0,1.0,3276.8

40,java_sort,6,2,16384,18.0,16384,49152,4.8,8.0,49152
90,monster_query,10,4,16384,14.0,4915.2,12288,3.0,5.0,4915.2
";

    #[test]
    fn parses_sample_skipping_comments_and_blanks() {
        let t = Trace::parse_str(SAMPLE).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].class, JobClass::WebdataScan);
        assert_eq!(t.rows[1].maps, 6);
        assert_eq!(t.rows[2].arrival_secs, 90);
        assert_eq!(t.span_secs(), 90);
    }

    #[test]
    fn rejects_malformed_rows_with_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("5,webdata_scan,8,1,1,1,1,1,1,1", 1, "columns"),
            ("5,no_such_class,8,1,1,1,1,1,1,1,1", 1, "class"),
            ("x,webdata_scan,8,1,1,1,1,1,1,1,1", 1, "arrival_secs"),
            ("5,webdata_scan,0,1,1,1,1,1,1,1,1", 1, "maps"),
            ("5,webdata_scan,8,0,1,1,1,1,1,1,1", 1, "reduces"),
            // Past `u32`: an error, never a wrapped count.
            (
                "5,webdata_scan,4294967297,1,1,1,1,1,1,1,1",
                1,
                "maps: not an integer in 0..=4294967295",
            ),
            (
                "5,webdata_scan,4294967296,1,1,1,1,1,1,1,1",
                1,
                "maps: not an integer in 0..=4294967295",
            ),
            (
                "5,webdata_scan,8,4294967297,1,1,1,1,1,1,1",
                1,
                "reduces: not an integer in 0..=4294967295",
            ),
            ("5,webdata_scan,8,1,-3,1,1,1,1,1,1", 1, "map_input_kb"),
            ("5,webdata_scan,8,1,NaN,1,1,1,1,1,1", 1, "map_input_kb"),
            (
                "# ok\n\n5,webdata_scan,8,1,1,1,1,bad,1,1,1",
                3,
                "shuffle_kb",
            ),
        ];
        for (text, line, needle) in cases {
            let e = Trace::parse_str(text).unwrap_err();
            assert_eq!(e.line, *line, "line number for {text:?}");
            assert!(
                e.message.contains(needle),
                "error {:?} should mention {needle:?}",
                e.message
            );
        }
    }

    #[test]
    fn empty_trace_is_an_error() {
        let e = Trace::parse_str("# nothing\n\n").unwrap_err();
        assert!(e.message.contains("no job rows"));
    }

    #[test]
    fn replay_is_deterministic() {
        let t = Arc::new(Trace::parse_str(SAMPLE).unwrap());
        let mut a = TraceReplay::new(Arc::clone(&t));
        let mut b = TraceReplay::new(t);
        for _ in 0..10 {
            assert_eq!(a.next_job(), b.next_job());
        }
    }

    #[test]
    fn replay_matches_trace_then_cycles() {
        let t = Arc::new(Trace::parse_str(SAMPLE).unwrap());
        let mut r = TraceReplay::new(t);
        let (at0, j0) = r.next_job();
        assert_eq!((at0, j0.class, j0.id.0), (5, JobClass::WebdataScan, 1));
        let (at1, j1) = r.next_job();
        assert_eq!((at1, j1.class, j1.id.0), (40, JobClass::JavaSort, 2));
        let (at2, _) = r.next_job();
        assert_eq!(at2, 90);
        // Epoch 2 replays the same rows, shifted past the first epoch.
        let (at3, j3) = r.next_job();
        assert_eq!(j3.class, JobClass::WebdataScan);
        assert_eq!(at3, 91 + 5);
        assert_eq!(j3.id.0, 4);
    }

    #[test]
    fn submission_times_strictly_increase_across_epochs() {
        let t = Arc::new(Trace::parse_str("0,webdata_scan,1,1,1,1,1,1,1,1,1").unwrap());
        let mut r = TraceReplay::new(t);
        let mut last = None;
        for _ in 0..20 {
            let (at, _) = r.next_job();
            if let Some(l) = last {
                assert!(at > l, "at={at} must exceed last={l}");
            }
            last = Some(at);
        }
    }
}
