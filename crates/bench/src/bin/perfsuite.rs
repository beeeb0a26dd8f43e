//! One-shot performance suite for the quantities `asdfbench` cannot see:
//! the campaign worker pool, the observability layer's self-overhead, the
//! extended-fault accuracy cells and the analysis micro-kernels. What the
//! benchmark of record reports — engine threads, `serve`, fleet scale, the
//! log parser — is measured there and only there (DESIGN.md §5b: "quantity
//! → harness → metric → correctness guard").
//!
//! Usage: `cargo run -p bench --bin perfsuite --release [-- --threads N]`
//!
//! `main` runs four section functions; each returns a [`Section`] of named
//! rows, measured once, and [`render`] turns that one row list into both
//! outputs, so a metric is named once: `BENCH_campaign.json` at the
//! repository root (overwritten every run, pretty-printed in key order so
//! it diffs) and one appended line of `BENCH_history.jsonl`, the series
//! `asdf perfwatch` judges.
//!
//! One row carries a bound, because every recorded reading of unchanged
//! code clears it: the centroid-scan speedup. A breach is recorded
//! (`gates.<row>.held` and a count), both files are written, and only then
//! does the suite exit non-zero. Every other row is `perfwatch`'s to watch.
//! A correctness check (pool determinism) panics on the spot — a run that
//! computed the wrong thing has nothing worth keeping.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use asdf::experiments::{self, CampaignConfig, Workload};
use asdf::perfwatch::history::{self, HistoryRecord};
use asdf_modules::kernel;
use asdf_modules::training::BlackBoxModel;
use asdf_obs::json::{self, Value};
use hadoop_sim::faults::FaultKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 120;
const N_STATES: usize = 12;

/// One block of the artifact: named rows, of which at most one is bounded.
struct Section {
    name: &'static str,
    /// `(history key, value)`; a non-finite value means "absent".
    rows: Vec<(String, f64)>,
    /// `(row key, at least)`: the run is a breach unless that row reads at
    /// least the bound.
    gate: Option<(&'static str, f64)>,
}

impl Section {
    fn new(name: &'static str) -> Section {
        Section {
            name,
            rows: Vec::new(),
            gate: None,
        }
    }

    /// Adds a row, rounded to four decimals — finer than any row's noise,
    /// coarse enough that both files stay readable.
    fn row(&mut self, key: impl Into<String>, value: f64) {
        self.rows.push((key.into(), (value * 1e4).round() / 1e4));
    }

    /// Adds the row `key` and bounds it from below.
    fn gated_row(&mut self, key: &'static str, value: f64, at_least: f64) {
        self.row(key, value);
        self.gate = Some((key, at_least));
    }
}

/// The smoke campaign with no campaign-level fan-out: what the pool is
/// compared against and what the single-run sections drive.
fn serial_cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        ..CampaignConfig::smoke()
    }
}

/// Campaign wall-clock, serial against the `asdf::campaign` worker pool —
/// the pool's only measurement. Results must be identical either way.
fn campaign_section(threads: usize) -> Section {
    // One smoke campaign: train + fig6a sweep + fig7.
    let campaign = |cfg: &CampaignConfig| {
        let start = Instant::now();
        let model = experiments::train_model(cfg);
        let sweep = experiments::fig6a(cfg, &model, &[0.0, 25.0, 50.0]);
        let rows = experiments::fig7(cfg, &model);
        (start.elapsed().as_secs_f64(), sweep, rows)
    };
    eprintln!("[perfsuite] smoke campaign, serial then pooled ...");
    let (serial_secs, serial_sweep, serial_rows) = campaign(&serial_cfg());
    let (pool_secs, pool_sweep, pool_rows) = campaign(&CampaignConfig {
        threads,
        ..CampaignConfig::smoke()
    });
    assert!(
        serial_rows == pool_rows && serial_sweep == pool_sweep,
        "worker pool changed campaign results"
    );
    let mut s = Section::new("campaign");
    s.row("campaign_serial_secs", serial_secs);
    s.row("campaign_pool_secs", pool_secs);
    s.row("campaign_speedup", serial_secs / pool_secs.max(1e-9));
    s
}

/// ASDF-on-ASDF: what the always-on `asdf-obs` layer costs one evaluation
/// run, as the median of 30 paired on/off deltas. The same binary reads
/// anywhere from under 1% to almost 9% from launch to launch on a shared
/// host (allocation layout decides which atomics share cache lines), so
/// the row is tracked, not bounded.
fn observability_section() -> Section {
    eprintln!("[perfsuite] instrumentation self-overhead ...");
    let ovh = experiments::self_overhead(&serial_cfg(), 30);
    let mut s = Section::new("observability");
    s.row("obs_on_secs", ovh.on_secs);
    s.row("obs_off_secs", ovh.off_secs);
    s.row("obs_overhead_pct", ovh.overhead_pct());
    s
}

/// The widened fault matrix: one smoke-scale evaluation run per (extended
/// fault kind, workload), on the GridMix synthesis and the deterministic
/// trace replay — balanced accuracy and fingerpointing latency per analysis
/// path, a latency absent when the culprit was never fingerpointed.
fn scenarios_section() -> Section {
    eprintln!("[perfsuite] widened fault matrix scenarios ...");
    let trace = include_str!("../../../../tests/fixtures/sample_trace.csv");
    let trace = hadoop_sim::Trace::parse_str(trace).expect("sample trace parses");
    let workloads = [
        ("gridmix", Workload::GridMix),
        ("trace", Workload::Trace(std::sync::Arc::new(trace))),
    ];
    let mut s = Section::new("scenarios");
    for (wname, workload) in workloads {
        let cfg = CampaignConfig {
            workload,
            ..serial_cfg()
        };
        let model = experiments::train_model(&cfg);
        for fault in FaultKind::EXTENDED {
            let tr = experiments::run_once(&cfg, &model, Some(fault), cfg.base_seed + 3000);
            let r = experiments::score_run(&tr, fault);
            let fault = fault.name().to_lowercase().replace('-', "_");
            let lat = |l: Option<u64>| l.map_or(f64::NAN, |secs| secs as f64);
            for (col, v) in [
                ("ba_bb", r.ba_black_box),
                ("ba_wb", r.ba_white_box),
                ("ba_all", r.ba_combined),
                ("lat_bb", lat(r.lat_black_box)),
                ("lat_wb", lat(r.lat_white_box)),
                ("lat_all", lat(r.lat_combined)),
            ] {
                s.row(format!("scenario_{fault}_{wname}_{col}"), v);
            }
        }
    }
    s
}

fn training_set(n: usize) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let level = (i % 4) as f64 * 25.0;
            (0..DIM)
                .map(|_| (level + rng.gen::<f64>() * 10.0).max(0.0))
                .collect()
        })
        .collect()
}

/// Times `iters` calls of `f` after a short warmup; returns ns per call.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..100 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The scan row's local baseline: one left-to-right accumulator over a
/// ragged row, early exit checked every 16 components — the hot path before
/// `CentroidBlock` and the 4-lane fold.
fn ragged_dist2_bounded(a: &[f64], b: &[f64], bound: f64) -> f64 {
    let mut acc = 0.0;
    for (ca, cb) in a.chunks(16).zip(b.chunks(16)) {
        for (x, y) in ca.iter().zip(cb) {
            let d = x - y;
            acc += d * d;
        }
        if acc >= bound {
            return acc;
        }
    }
    acc
}

/// The analysis micro-kernels on one 120-dim query against 12 centroids:
/// four ways to classify, then the bounded comparison of the nearest-
/// centroid scan.
fn kernels_section() -> Section {
    eprintln!("[perfsuite] analysis kernels ...");
    let data = training_set(4_000);
    let model = BlackBoxModel::fit(&data, N_STATES, 1);
    let sample = data[17].clone();
    // Ragged copy of the centroid matrix: the storage shape `CentroidBlock`
    // replaced, kept as the baseline side of both comparisons below.
    let ragged: Vec<Vec<f64>> = model.centroids.to_rows();
    // What the optimized paths replaced — the full distance recomputed for
    // both sides of every `min_by` comparison — so the rows show a speedup.
    let naive_dist2 =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
    let mut s = Section::new("kernels");
    let naive_ns = time_ns(20_000, || {
        let x = asdf_modules::training::scale_log(black_box(&sample), &model.stddev);
        let best = ragged
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                naive_dist2(&x, a)
                    .partial_cmp(&naive_dist2(&x, b))
                    .expect("finite")
            })
            .map(|(i, _)| i);
        black_box(best);
    });
    s.row("classify_1nn_naive_ns", naive_ns);
    let model_ns = time_ns(20_000, || {
        black_box(model.classify(black_box(&sample)));
    });
    s.row("classify_1nn_model_ns", model_ns);
    let mut ctx = model.clone().into_classifier();
    let ctx_ns = time_ns(20_000, || {
        black_box(ctx.classify(black_box(&sample)));
    });
    s.row("classify_1nn_context_ns", ctx_ns);
    let mut ranked = Vec::new();
    let ctx_k3_ns = time_ns(20_000, || {
        ctx.classify_k_into(black_box(&sample), 3, &mut ranked);
        black_box(ranked.last());
    });
    s.row("classify_k3_context_ns", ctx_k3_ns);

    // The pre-`CentroidBlock` hot path (early-exit `ragged_dist2_bounded`
    // over `Vec<Vec<f64>>` rows) against the fused 4-lane `argmin_dist2`
    // over the contiguous block, on the same pre-scaled query. Both sides
    // are single-thread and share the early-exit discipline, so the ratio
    // isolates the lane accumulators plus the contiguous row layout.
    let scaled_q = asdf_modules::training::scale_log(&sample, &model.stddev);
    let padded_q = kernel::PaddedVec::from_slice(&scaled_q);
    let scalar_ns = time_ns(100_000, || {
        let q: &[f64] = black_box(&scaled_q);
        let mut best = (0, f64::INFINITY);
        for (i, c) in ragged.iter().enumerate() {
            let d = ragged_dist2_bounded(q, c, best.1);
            if d < best.1 {
                best = (i, d);
            }
        }
        black_box(best);
    });
    s.row("scan_scalar_ns", scalar_ns);
    let simd_ns = time_ns(100_000, || {
        black_box(kernel::argmin_dist2(
            black_box(padded_q.as_padded()),
            &model.centroids,
        ));
    });
    s.row("scan_simd_ns", simd_ns);
    // Bounded at 1.3x, not the ~3x of a host whose compiler leaves the
    // baseline loop scalar: LLVM vectorizes that fold on wide-SIMD targets,
    // compressing the ratio while both timings improve. The bound guards
    // the explicit kernel against regressing toward parity.
    s.gated_row("scan_speedup", scalar_ns / simd_ns.max(1e-9), 1.3);
    s
}

/// The count of breached bounds: a top-level field of the artifact and a
/// history metric, so `perfwatch` sees a breach as a step like any other.
const GATES_BREACHED: &str = "gates_breached";

/// Both renderings of one run and the breaches found while building them.
struct Rendered {
    /// `BENCH_campaign.json`: `{suite, commit, host, workers, gates,
    /// gates_breached, <section>: {<row>: value}}`.
    artifact: String,
    /// The history record: the run's header with every row as its `metrics`.
    record: HistoryRecord,
    /// One line per breached bound.
    breaches: Vec<String>,
}

/// Renders the one row list into the artifact and the history record.
/// `record` arrives as the run's header (commit, host, workers, digest)
/// with no metrics. Non-finite rows are absent from both.
///
/// # Panics
///
/// When two rows share a key: the history's `metrics` is flat, so the
/// second would silently replace the first.
fn render(sections: &[Section], mut record: HistoryRecord) -> Rendered {
    let mut doc: Vec<(&str, Value)> = Vec::new();
    let mut gates: Vec<(&str, Value)> = Vec::new();
    let mut breaches = Vec::new();
    for Section { name, rows, gate } in sections {
        let mut block = BTreeMap::new();
        for (key, v) in rows.iter().filter(|(_, v)| v.is_finite()) {
            let first = record.metrics.insert(key.clone(), *v).is_none();
            assert!(first, "row `{key}` is recorded twice");
            block.insert(key.clone(), Value::Number(*v));
        }
        doc.push((name, Value::Object(block)));
        if let Some((key, at_least)) = *gate {
            // An absent (non-finite) row compares false: a breach.
            let value = record.metrics.get(key).copied().unwrap_or(f64::NAN);
            let held = value >= at_least;
            if !held {
                breaches.push(format!("{name}: {key} reads {value}, bound {at_least}"));
            }
            let gate = [("at_least", at_least.into()), ("held", Value::Bool(held))];
            gates.push((key, json::object(gate)));
        }
    }
    let breached = breaches.len() as f64;
    record.metrics.insert(GATES_BREACHED.to_owned(), breached);
    let host = [
        ("cores", (record.cores as f64).into()),
        ("simd", record.simd.as_str().into()),
    ];
    doc.extend([
        ("suite", "perfsuite".into()),
        ("commit", record.commit.as_str().into()),
        ("host", json::object(host)),
        ("workers", (record.workers as f64).into()),
        ("gates", json::object(gates)),
        (GATES_BREACHED, breached.into()),
    ]);
    Rendered {
        artifact: json::object(doc).render(Some(2)) + "\n",
        record,
        breaches,
    }
}

fn main() {
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--threads" => {
                let value = args.next().expect("perfsuite: --threads needs a value");
                threads = value.parse().expect("integer");
            }
            other => panic!("perfsuite: unknown flag `{other}`"),
        }
    }

    let sections = [
        campaign_section(threads),
        observability_section(),
        scenarios_section(),
        kernels_section(),
    ];

    // Every run carries its commit, UTC timestamp, host fingerprint and the
    // digest of the full observability snapshot, so the series stays
    // attributable across commits and hosts.
    let ts_epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out = render(
        &sections,
        HistoryRecord {
            schema: history::HISTORY_SCHEMA,
            ts_epoch_secs,
            utc: history::utc_from_epoch(ts_epoch_secs),
            commit: current_commit(),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            simd: kernel::simd_dispatch().to_owned(),
            workers: asdf::campaign::resolve_threads(threads),
            metrics: BTreeMap::new(),
            obs_digest: Some(asdf_obs::snapshot_digest(&asdf_obs::registry().snapshot())),
        },
    );

    // CARGO_MANIFEST_DIR is crates/bench; both files live at the root.
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(artifact, &out.artifact).expect("write BENCH_campaign.json");
    print!("{}", out.artifact);
    eprintln!("[perfsuite] wrote {artifact}");

    // BENCH_HISTORY overrides the destination (CI appends to a cached
    // artifact rather than the working tree).
    let default_hist = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let hist = std::env::var("BENCH_HISTORY").unwrap_or_else(|_| default_hist.to_owned());
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&hist)
        .expect("open BENCH_history.jsonl");
    writeln!(file, "{}", history::render_record(&out.record)).expect("append BENCH_history.jsonl");
    eprintln!("[perfsuite] appended {hist}");

    for breach in &out.breaches {
        eprintln!("[perfsuite] BREACHED (both files written) {breach}");
    }
    if !out.breaches.is_empty() {
        std::process::exit(1);
    }
}

/// The commit to stamp into the run: `BENCH_COMMIT` (explicit override) or
/// `GITHUB_SHA` (CI) if set, else `git rev-parse` — with `+dirty` appended
/// when tracked files other than the suite's own two outputs differ from
/// it, since a row recorded on an uncommitted tree measures that tree, not
/// its parent — else `unknown`: never a failure, benches must run from
/// tarballs too.
fn current_commit() -> String {
    for var in ["BENCH_COMMIT", "GITHUB_SHA"] {
        match std::env::var(var) {
            Ok(v) if !v.trim().is_empty() => return v.trim().to_owned(),
            _ => {}
        }
    }
    let git = |args: &str| {
        std::process::Command::new("git")
            .args(args.split(' '))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    };
    let Some(head) = git("rev-parse --short=12 HEAD").filter(|s| !s.is_empty()) else {
        return "unknown".to_owned();
    };
    const STATUS: &str = "status --porcelain --untracked-files=no -- \
        :(top,exclude)BENCH_campaign.json :(top,exclude)BENCH_history.jsonl";
    match git(STATUS) {
        Some(changes) if !changes.is_empty() => head + "+dirty",
        _ => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(
        name: &'static str,
        rows: &[(&str, f64)],
        gate: Option<(&'static str, f64)>,
    ) -> Section {
        Section {
            name,
            rows: rows.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
            gate,
        }
    }

    fn run() -> HistoryRecord {
        HistoryRecord {
            schema: history::HISTORY_SCHEMA,
            ts_epoch_secs: 1_790_000_000,
            utc: history::utc_from_epoch(1_790_000_000),
            commit: "abc123def456+dirty".to_owned(),
            cores: 2,
            simd: "scalar".to_owned(),
            workers: 2,
            metrics: BTreeMap::new(),
            obs_digest: Some("00ff00ff00ff00ff".to_owned()),
        }
    }

    #[test]
    #[should_panic(expected = "row `alpha_secs` is recorded twice")]
    fn a_row_key_in_two_sections_panics() {
        render(
            &[
                section("alpha", &[("alpha_secs", 1.0)], None),
                section("beta", &[("beta_ns", 2.0), ("alpha_secs", 3.0)], None),
            ],
            run(),
        );
    }

    #[test]
    fn both_renderings_hold_the_same_rows_and_a_nan_row_is_in_neither() {
        let sections = [
            section(
                "alpha",
                &[("alpha_secs", 0.25), ("alpha_lat", f64::NAN)],
                None,
            ),
            section(
                "beta",
                &[("beta_ns", 1234.5), ("beta_speedup", 2.0)],
                Some(("beta_speedup", 1.5)),
            ),
        ];
        let out = render(&sections, run());
        let doc = json::parse(&out.artifact).expect("artifact parses");
        let mut leaves = BTreeMap::new();
        for s in &sections {
            let Some(Value::Object(block)) = doc.get(s.name) else {
                panic!("no `{}` block in {}", s.name, out.artifact);
            };
            leaves.extend(block.iter().map(|(k, v)| (k.clone(), v.as_f64().unwrap())));
        }
        // The history line, read back the way `perfwatch` reads it.
        let line = history::render_record(&out.record);
        let mut metrics = history::parse_history(&line).unwrap().remove(0).metrics;
        let breached = doc.get(GATES_BREACHED).and_then(Value::as_f64);
        assert_eq!(metrics.remove(GATES_BREACHED), breached);
        assert_eq!(breached, Some(0.0));
        assert_eq!(metrics, leaves);
        assert_eq!(leaves.len(), 3);
        assert!(!out.artifact.contains("alpha_lat") && !line.contains("alpha_lat"));
        assert!(out.breaches.is_empty());
        // The header is the run's.
        let host = doc.get("host").unwrap();
        assert_eq!(host.get("cores").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            doc.get("commit").and_then(Value::as_str),
            Some("abc123def456+dirty")
        );
    }

    #[test]
    fn a_breach_is_in_both_renderings_by_the_time_it_is_reported() {
        let sections = [
            section(
                "alpha",
                &[("alpha_speedup", 1.2)],
                Some(("alpha_speedup", 1.3)),
            ),
            section(
                "beta",
                &[("beta_speedup", 2.0)],
                Some(("beta_speedup", 1.5)),
            ),
            // A bounded row that is absent cannot have held.
            section(
                "gamma",
                &[("gamma_speedup", f64::NAN)],
                Some(("gamma_speedup", 1.0)),
            ),
        ];
        // `render` neither prints nor exits: the breaches come back beside
        // the finished artifact and record, and `main` writes both first.
        let out = render(&sections, run());
        let doc = json::parse(&out.artifact).expect("artifact parses");
        let held = |row: &str| {
            doc.get("gates")
                .unwrap()
                .get(row)
                .unwrap()
                .get("held")
                .cloned()
        };
        assert_eq!(held("alpha_speedup"), Some(Value::Bool(false)));
        assert_eq!(held("beta_speedup"), Some(Value::Bool(true)));
        assert_eq!(held("gamma_speedup"), Some(Value::Bool(false)));
        assert_eq!(doc.get(GATES_BREACHED).and_then(Value::as_f64), Some(2.0));
        assert_eq!(out.record.metrics[GATES_BREACHED], 2.0);
        assert_eq!(out.breaches.len(), 2);
        assert!(out.breaches[0].contains("alpha_speedup reads 1.2"));
        assert!(out.breaches[1].contains("gamma_speedup"));
    }
}
