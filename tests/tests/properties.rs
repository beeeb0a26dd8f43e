//! Cross-crate property-based tests on the invariants the diagnosis
//! pipeline relies on.

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_rpc::wire::{Bytes, FrameReader, Handshake, MessageReader};
use hadoop_logs::sync::Aligner;
use hadoop_sim::resources::{allocate_flows, fair_share, loss_goodput_factor, Flow};
use proptest::prelude::*;

proptest! {
    /// Max-min fair share: feasible (sum ≤ capacity), honest (grant ≤
    /// demand), and work-conserving when oversubscribed.
    #[test]
    fn fair_share_is_feasible_honest_and_work_conserving(
        capacity in 0.0f64..1000.0,
        demands in proptest::collection::vec(0.0f64..500.0, 0..12),
    ) {
        let grants = fair_share(capacity, &demands);
        prop_assert_eq!(grants.len(), demands.len());
        let total_grant: f64 = grants.iter().sum();
        let total_demand: f64 = demands.iter().sum();
        prop_assert!(total_grant <= capacity + 1e-6);
        for (g, d) in grants.iter().zip(&demands) {
            prop_assert!(*g <= d + 1e-9, "grant exceeds demand");
            prop_assert!(*g >= 0.0);
        }
        if total_demand > capacity && capacity > 0.0 && !demands.is_empty() {
            prop_assert!(
                (total_grant - capacity).abs() < 1e-6,
                "oversubscribed capacity must be fully used: {} vs {}",
                total_grant,
                capacity
            );
        }
        if total_demand <= capacity {
            prop_assert!((total_grant - total_demand).abs() < 1e-6);
        }
    }

    /// Flow allocation never violates either endpoint's capacity.
    #[test]
    fn flow_allocation_is_always_feasible(
        flows in proptest::collection::vec((0usize..6, 0usize..6, 0.0f64..1000.0), 0..24),
        caps in proptest::collection::vec(1.0f64..500.0, 6),
    ) {
        let flows: Vec<Flow> = flows
            .into_iter()
            .map(|(src, dst, wanted_kb)| Flow { src, dst, wanted_kb })
            .collect();
        let rates = allocate_flows(&flows, &caps, &caps);
        let mut tx = [0.0; 6];
        let mut rx = [0.0; 6];
        for (f, r) in flows.iter().zip(&rates) {
            prop_assert!(*r >= 0.0 && *r <= f.wanted_kb + 1e-9);
            tx[f.src] += r;
            rx[f.dst] += r;
        }
        for i in 0..6 {
            prop_assert!(tx[i] <= caps[i] + 1e-6, "tx overflow at node {i}");
            prop_assert!(rx[i] <= caps[i] + 1e-6, "rx overflow at node {i}");
        }
    }

    /// Goodput collapse is monotone in loss and bounded by (1 - loss).
    #[test]
    fn goodput_factor_is_monotone_and_bounded(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(loss_goodput_factor(lo) >= loss_goodput_factor(hi));
        prop_assert!(loss_goodput_factor(a) <= 1.0 - a + 1e-12);
        prop_assert!(loss_goodput_factor(a) >= 0.0);
    }

    /// The cross-node aligner releases complete rows in strictly
    /// increasing time order, each row carrying exactly the values pushed.
    #[test]
    fn aligner_releases_complete_rows_in_order(
        pushes in proptest::collection::vec((0usize..3, 0u64..40), 1..120),
    ) {
        let mut aligner: Aligner<u64> = Aligner::new(3);
        let mut pushed: std::collections::HashMap<(usize, u64), u64> =
            std::collections::HashMap::new();
        for (i, &(node, t)) in pushes.iter().enumerate() {
            // Value encodes (node, t) so rows can be verified.
            let value = t * 10 + node as u64;
            // Later duplicate pushes overwrite earlier ones in the aligner.
            aligner.push(node, t, value);
            let _ = i;
            pushed.insert((node, t), value);
        }
        let rows = aligner.drain_aligned();
        let mut last_t = None;
        for (t, values) in rows {
            if let Some(prev) = last_t {
                prop_assert!(t > prev, "timestamps must strictly increase");
            }
            last_t = Some(t);
            prop_assert_eq!(values.len(), 3);
            for (node, v) in values.iter().enumerate() {
                prop_assert_eq!(*v, t * 10 + node as u64, "row value mismatch");
                prop_assert!(pushed.contains_key(&(node, t)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The log parser never produces negative state counts, no matter how
    /// log lines are interleaved or truncated.
    #[test]
    fn parser_counts_are_never_negative(
        ops in proptest::collection::vec((0u8..6, 0u32..4, 0u32..3), 0..80),
    ) {
        use hadoop_logs::parser::LogParser;
        let mut p = LogParser::new();
        for (i, (op, task, attempt)) in ops.iter().enumerate() {
            let name = format!("task_0001_r_{task:06}_{attempt}");
            let sec = i as u64 % 60;
            let line = match op {
                0 => format!("2008-04-15 14:00:{sec:02},000 INFO org.apache.hadoop.mapred.TaskTracker: LaunchTaskAction: {name}"),
                1 => format!("2008-04-15 14:00:{sec:02},000 INFO org.apache.hadoop.mapred.TaskTracker: Task {name} is done."),
                2 => format!("2008-04-15 14:00:{sec:02},000 INFO org.apache.hadoop.mapred.ReduceTask: {name} Copying map outputs"),
                3 => format!("2008-04-15 14:00:{sec:02},000 INFO org.apache.hadoop.mapred.ReduceTask: {name} Merge complete, reducing"),
                4 => format!("2008-04-15 14:00:{sec:02},000 WARN org.apache.hadoop.mapred.TaskRunner: {name} failed"),
                _ => format!("2008-04-15 14:00:{sec:02},000 INFO org.apache.hadoop.dfs.DataNode: Served block blk_{task}"),
            };
            p.feed_line(&line);
            let v = p.sample(i as u64);
            for &count in v.as_slice() {
                prop_assert!(count >= 0.0, "negative count after `{line}`: {v}");
            }
        }
    }
}

/// A valid JSON document exercising every value kind, escapes included.
const JSON_DOC: &str = r#"{"suite": "perfsuite", "n": [0, -1.5, 2e3, 1E-2], "ok": true,
 "no": false, "none": null, "s": "tab\t quote\" \\ \/ é 😀",
 "nested": {"a": [[], {}, [{"b": "c"}]]}}"#;

/// Valid TaskTracker, task and DataNode log lines, one per line.
const LOG_LINES: &str = "\
2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker: LaunchTaskAction: task_0001_m_000096_0
2008-04-15 14:23:16,000 INFO org.apache.hadoop.mapred.ReduceTask: task_0001_r_000002_0 Copying map outputs
2008-04-15 14:23:17,000 INFO org.apache.hadoop.mapred.ReduceTask: task_0001_r_000002_0 Merge complete, reducing
2008-04-15 14:23:18,500 INFO org.apache.hadoop.mapred.TaskTracker: Task task_0001_m_000096_0 is done.
2008-04-15 14:23:19,000 WARN org.apache.hadoop.mapred.TaskRunner: task_0001_r_000002_0 failed
2008-04-15 14:23:20,000 INFO org.apache.hadoop.dfs.DataNode: Served block blk_7 to /10.1.0.3
2008-04-15 23:59:59,999 INFO org.apache.hadoop.dfs.DataNode: Receiving block blk_8 src: /10.1.0.4";

/// A small analysis DAG in the configuration dialect: a `pulse` source
/// feeding `mavgvec → analysis_wb`, `rack_agg → metric_rank` and
/// `ibuffer → print`.
const ANALYSIS_CONFIG: &str = "\
[pulse]
id = src

[mavgvec]
id = avg
input[input] = src.out
window = 5
slide = 5

[analysis_wb]
id = wb
input[r0] = avg.stats
consecutive = 3
k = 3
nodes = slave00,slave01,slave02

[rack_agg]
id = ra
input[frame] = src.out
window = 5

[metric_rank]
id = mr
input[r0] = ra.sum
nodes = slave00,slave01,slave02
top = 2

[ibuffer]
id = buf
input[input] = src.out
size = 4

[print]
id = sink
input[a] = @buf
";

/// Parses `text` as a configuration and builds it over the analysis
/// modules plus the harness's `pulse` source.
fn build_analysis_config(text: &str) -> Result<Dag, String> {
    let config: Config = text.parse().map_err(|e| format!("{e}"))?;
    let mut registry = integration_tests::support::synthetic_registry();
    asdf_modules::register_analysis_modules(&mut registry);
    Dag::build(&registry, &config).map_err(|e| format!("{e}"))
}

/// The syntax the parsers split and match on: half of the bytes a
/// mutation writes come from here, the other half are any byte.
const SYNTAX: &[u8] = b"{}[]\",:\\-+.eE0123456789 \t\n#_=@;";

/// `valid` after up to eight byte edits: each deletes, inserts or
/// overwrites a byte, truncates, or repeats up to 16 bytes in place.
fn mutated_bytes(valid: Vec<u8>) -> impl Strategy<Value = Vec<u8>> {
    let edit = (0u8..5, any::<u64>(), any::<bool>(), any::<u8>());
    proptest::collection::vec(edit, 0..8).prop_map(move |edits| {
        let mut bytes = valid.clone();
        for (op, at, syntax, byte) in edits {
            let i = (at % (bytes.len() as u64 + 1)) as usize;
            let byte = if syntax {
                SYNTAX[usize::from(byte) % SYNTAX.len()]
            } else {
                byte
            };
            match op {
                0 if i < bytes.len() => {
                    bytes.remove(i);
                }
                1 => bytes.insert(i, byte),
                2 if i < bytes.len() => bytes[i] = byte,
                3 => bytes.truncate(i),
                _ => {
                    let run: Vec<u8> = bytes[i..].iter().take(16).copied().collect();
                    bytes.splice(i..i, run);
                }
            }
        }
        bytes
    })
}

/// [`mutated_bytes`] of a text, read as UTF-8, lossily, as a caller
/// reading a file would.
fn mutated(valid: &'static str) -> impl Strategy<Value = String> {
    mutated_bytes(valid.as_bytes().to_vec())
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Arbitrary bytes.
fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

/// Arbitrary bytes, read as UTF-8 lossily.
fn arbitrary_text() -> impl Strategy<Value = String> {
    arbitrary_bytes().prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

#[test]
fn the_mutation_seeds_are_valid_inputs() {
    let history = include_str!("../../BENCH_history.jsonl");
    assert!(asdf::perfwatch::parse_history(history).is_ok());
    assert!(hadoop_sim::Trace::parse_str(include_str!("../fixtures/sample_trace.csv")).is_ok());
    assert!(asdf_obs::json::parse(JSON_DOC).is_ok());
    assert!(asdf_obs::json::parse(include_str!("../fixtures/sample_trace_parsed.json")).is_ok());
    let dag = build_analysis_config(ANALYSIS_CONFIG).expect("the analysis config builds");
    assert_eq!(dag.len(), 7);
    for line in LOG_LINES.lines() {
        assert!(
            hadoop_logs::event::parse_timestamp(line).is_some(),
            "{line}"
        );
        assert!(hadoop_logs::event::parse_line(line).is_some(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The text parsers answer every input, valid or mangled, with a value
    /// or an error and never panic: cluster traces, JSON and Hadoop log
    /// lines, each fed arbitrary bytes and mutations of a valid input.
    #[test]
    fn trace_json_and_log_parsers_never_panic(
        noise in arbitrary_text(),
        trace in mutated(include_str!("../fixtures/sample_trace.csv")),
        json in mutated(JSON_DOC),
        fixture_json in mutated(include_str!("../fixtures/sample_trace_parsed.json")),
        log in mutated(LOG_LINES),
    ) {
        for text in [&noise, &trace] {
            let _ = hadoop_sim::Trace::parse_str(text);
        }
        for text in [&noise, &json, &fixture_json] {
            let _ = asdf_obs::json::parse(text);
        }
        for line in noise.lines().chain(log.lines()) {
            let _ = hadoop_logs::event::parse_timestamp(line);
            let _ = hadoop_logs::event::parse_line(line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The perf history never panics its reader or the watchdog, and the
    /// watchdog fails exactly when the history does not parse.
    #[test]
    fn history_parse_and_analyze_never_panic(
        noise in arbitrary_text(),
        history in mutated(include_str!("../../BENCH_history.jsonl")),
    ) {
        for text in [&noise, &history] {
            let parsed = asdf::perfwatch::parse_history(text);
            let analyzed = asdf::perfwatch::analyze(text);
            prop_assert_eq!(parsed.is_ok(), analyzed.is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The configuration parser and the DAG build answer every input with
    /// a DAG or an error and never panic: arbitrary bytes, and mutations of
    /// a valid analysis configuration built over the analysis modules.
    #[test]
    fn config_parser_and_dag_build_never_panic(
        noise in arbitrary_text(),
        config in mutated(ANALYSIS_CONFIG),
    ) {
        for text in [&noise, &config] {
            let _ = build_analysis_config(text);
        }
    }
}

/// A serve frame as a tenant's feeder sends it: the `sadc` stream tag, node
/// 0, a timestamp, and one second of three nodes of two values each.
fn valid_serve_frame() -> Vec<u8> {
    asdf::serve::encode_frame(0, 0, 1_234, &[3.0, 2.0, 0.5, 1.0, 0.25, 2.0, 8.0, 0.0]).to_vec()
}

/// A session handshake.
fn valid_handshake() -> Vec<u8> {
    Handshake::new("tenant-03").encode().to_vec()
}

/// `framed` with its length prefix rewritten to match the payload, so an
/// edit reaches the field decoders instead of failing the frame check.
fn honest_prefix(framed: &[u8]) -> Option<Vec<u8>> {
    let payload = framed.get(4..)?;
    let mut fixed = u32::try_from(payload.len()).ok()?.to_le_bytes().to_vec();
    fixed.extend_from_slice(payload);
    Some(fixed)
}

/// Decodes `framed` every way the daemons do: as a serve frame (stream
/// tag, first node, timestamp, values) through both readers, as a
/// collector response (strings, then a row of a fixed width), and as a
/// handshake.
fn decode_every_way(framed: &[u8]) {
    if let Ok(mut r) = FrameReader::new(framed) {
        let _ = (
            r.get_u8(),
            r.get_u32(),
            r.get_u64(),
            r.get_f64s::<Vec<f64>>(),
        );
    }
    if let Ok(mut r) = MessageReader::new(Bytes::from(framed.to_vec())) {
        let _ = (r.get_u8(), r.get_u32(), r.get_u64(), r.get_f64_slice());
        let _ = (r.get_f64(), r.get_str(), r.remaining());
    }
    if let Ok(mut r) = FrameReader::new(framed) {
        while r.get_str().is_ok() && r.remaining() > 0 {}
        let _ = r.get_f64_slice_to(&mut [0.0; 8]);
    }
    let _ = Handshake::decode(Bytes::from(framed.to_vec()));
}

#[test]
fn the_wire_mutation_seeds_decode() {
    let frame = valid_serve_frame();
    let mut r = FrameReader::new(&frame).expect("a whole frame");
    assert_eq!(
        (r.get_u8(), r.get_u32(), r.get_u64()),
        (Ok(0), Ok(0), Ok(1_234))
    );
    assert_eq!(r.get_f64s::<Vec<f64>>().map(|v| v.len()), Ok(8));
    let hello = Handshake::decode(Bytes::from(valid_handshake())).expect("a handshake");
    assert_eq!(hello.tenant, "tenant-03");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The wire decoders answer every input with a value or an error and
    /// never panic: arbitrary bytes, and edits of a valid serve frame and
    /// handshake, each also with its length prefix made to match.
    #[test]
    fn wire_decoders_never_panic(
        noise in arbitrary_bytes(),
        frame in mutated_bytes(valid_serve_frame()),
        hello in mutated_bytes(valid_handshake()),
    ) {
        for bytes in [&noise, &frame, &hello] {
            decode_every_way(bytes);
            if let Some(fixed) = honest_prefix(bytes) {
                decode_every_way(&fixed);
            }
        }
    }
}
