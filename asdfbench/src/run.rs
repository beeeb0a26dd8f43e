//! One run of one workload: passes until `--seconds` are used, every output
//! check, and the result in the benchmark contract's shape.
//!
//! Wall and CPU time per monitored second are totals over all the passes of
//! the run, not medians of passes: on `fleet5000_rank_mt` a pass lands in one
//! of a few widely spaced speeds (26 to 70 ms here, a futex convoy on the one
//! `Mutex<Cluster>` that forms or does not), and the median of three or four
//! draws from such a mixture jumps between its modes where their mean moves
//! a little. On the other workloads the two read the same. Set-up time, peak
//! RSS and verdict latency have many samples and no modes: medians.
//!
//! With `--trace 0` only untraced passes run and the end-to-end metrics are
//! reported. With `--trace 1` untraced and traced passes alternate: the
//! traced ones give the per-layer budget and the trace file, the untraced
//! ones the verdict latencies and the wall time the tracing overhead is
//! measured against.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use asdf_modules::training::BlackBoxModel;

use crate::dag_run::{self, DagPass};
use crate::isolated;
use crate::metrics::{
    fill, Metric, END_TO_END, END_TO_END_WHERE_OBSERVABLE, NOT_OBSERVABLE, PER_LAYER,
};
use crate::serve_run::{self, ServePass};
use crate::stats::{mean, median, median_index, percentile, quartiles, tail_percentile};
use crate::trace::{render_chrome_trace, Budget};
use crate::workloads::{self, DagSpec, Kind, ServeSpec, Workload};
use crate::{json, workloads::train};

/// `setup_s` is the median of at least this many set-ups, time permitting.
const SETUP_SAMPLES: usize = 15;
/// ... and of at least this many even when the time is used up.
const MIN_SETUP_SAMPLES: usize = 5;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub workload: String,
    pub correct: bool,
    /// Verdict rows expected (frames, for `serve2_flood`), all passes.
    pub attempted: u64,
    /// Rows missing or extra, frames shed, module errors.
    pub failed: u64,
    /// `END_TO_END` with `--trace 0`, `PER_LAYER` with `--trace 1`.
    pub metrics: Vec<Metric>,
    /// `END_TO_END_WHERE_OBSERVABLE`, from the untraced passes.
    pub extra: Vec<Metric>,
    pub checks: Vec<Check>,
    /// FNV-1a of every verdict envelope of a pass (all passes agree).
    pub digest: u64,
    pub passes: usize,
    /// Every verdict-tick wall time of the untraced passes.
    pub verdict_ms: Vec<f64>,
    pub trace_file: Option<PathBuf>,
    /// The human-readable part of the output.
    pub report: String,
}

impl RunOutcome {
    /// The last line of a run's output, as the benchmark contract wants it.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            json::metrics(&self.metrics)
        )
    }

    /// The line before it: what the suite needs beyond the contract.
    pub fn detail_line(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json::string(c.name),
                    c.ok,
                    json::string(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"digest\":\"{:016x}\",\"passes\":{},\"checks\":[{}],\"extra\":{},\"verdict_ms\":{},\"trace_file\":{}}}",
            json::string(&self.workload),
            self.digest,
            self.passes,
            checks.join(","),
            json::metrics(&self.extra),
            json::millis(&self.verdict_ms),
            self.trace_file
                .as_ref()
                .map_or("null".to_owned(), |p| json::string(&p.display().to_string()))
        )
    }
}

/// The model a child process trained, and how long the fit took. Training
/// in a child keeps its 45 000-sample working set out of this process's
/// peak RSS, which would otherwise hide the small workloads' own.
pub fn train_in_child(seed: u64, smoke: bool) -> Result<(Arc<BlackBoxModel>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("train").arg("--seed").arg(seed.to_string());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the trainer: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "trainer failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("trainer output: {e}"))?;
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .ok_or(format!("trainer output lacks `{key}`"))
    };
    let fit_s: f64 = field("fit_s")?.parse().map_err(|e| format!("fit_s: {e}"))?;
    let model = BlackBoxModel::from_params(field("centroids")?, field("stddev")?)
        .map_err(|e| format!("trained model does not parse: {}", e.0))?;
    Ok((Arc::new(model), fit_s))
}

/// The `train` subcommand: what [`train_in_child`] reads.
pub fn train_and_print(seed: u64, smoke: bool) {
    let start = Instant::now();
    let model = train(seed, smoke);
    println!("fit_s {}", start.elapsed().as_secs_f64());
    println!("centroids {}", model.centroids_param());
    println!("stddev {}", model.stddev_param());
}

/// Runs the workload named in `args`; trains the model first if needed.
pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    let workload = workloads::find(&args.workload, args.smoke)
        .ok_or(format!("unknown workload `{}`", args.workload))?;
    let needs_model = match &workload.kind {
        Kind::Dag(spec) => spec.needs_model(),
        Kind::Serve(_) => true,
    };
    let trained = if needs_model {
        Some(train_in_child(args.seed, args.smoke)?)
    } else {
        None
    };
    run_workload(args, &workload, trained)
}

/// [`run`] with the model in hand.
pub fn run_workload(
    args: &RunArgs,
    workload: &Workload,
    trained: Option<(Arc<BlackBoxModel>, f64)>,
) -> Result<RunOutcome, String> {
    let fit_s = trained.as_ref().map_or(NOT_OBSERVABLE, |(_, s)| *s);
    let model = trained.map(|(m, _)| m);
    let mut outcome = match &workload.kind {
        Kind::Dag(spec) => run_dag(args, workload.name, spec, model.as_ref(), fit_s)?,
        Kind::Serve(spec) => run_serve(
            args,
            spec,
            model.as_ref().ok_or("serve needs a trained model")?,
            fit_s,
        ),
    };
    outcome.correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let mut head = format!(
        "asdfbench {} seed={} seconds={} trace={} passes={} nproc={} simd={}\n",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.passes,
        nproc(),
        asdf_modules::kernel::simd_dispatch(),
    );
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        let _ = writeln!(head, "  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(wall) = outcome
        .metrics
        .iter()
        .find(|m| m.name == "wall_ms_per_monitored_s")
    {
        let _ = writeln!(head, "  headroom: {:.1}x real time", 1000.0 / wall.value);
    }
    let _ = writeln!(
        head,
        "  operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for c in &outcome.checks {
        let _ = writeln!(
            head,
            "  check {:<28} {}  {}",
            c.name,
            if c.ok { "ok    " } else { "FAILED" },
            c.detail
        );
    }
    outcome.report = head + &outcome.report;
    Ok(outcome)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Involuntary context switches of the main thread and minor faults of the
/// process so far, from `/proc/self`.
fn proc_counters() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Field 10 (`minflt`), counted from after the `(comm)` field.
    let faults = stat
        .rfind(')')
        .and_then(|at| stat[at + 1..].split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0.0);
    (switches, faults)
}

/// Whether one more pass, as long as the mean of the `done` so far, would
/// still end within the run's seconds.
fn another_pass_fits(clock: Instant, done: usize, seconds: f64) -> bool {
    clock.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64 <= seconds
}

struct TimedPass {
    pass: DagPass,
    ctx_switches: f64,
    minor_faults: f64,
}

fn run_dag(
    args: &RunArgs,
    name: &str,
    spec: &DagSpec,
    model: Option<&Arc<BlackBoxModel>>,
    fit_s: f64,
) -> Result<RunOutcome, String> {
    let mut checks = Vec::new();
    let mut report = String::new();

    // A sharded workload must reproduce the serial engine's verdicts bit
    // for bit; the serial reference runs first, outside the measurement.
    let reference = if spec.engine_threads > 1 || spec.sim_shards > 1 {
        let serial = DagSpec {
            engine_threads: 1,
            sim_shards: 1,
            ..spec.clone()
        };
        Some(
            dag_run::run_pass(&serial, args.seed, model, false)?
                .diagnosis
                .digest,
        )
    } else {
        None
    };

    let clock = Instant::now();
    let mut untraced: Vec<TimedPass> = Vec::new();
    let mut traced: Vec<TimedPass> = Vec::new();
    loop {
        let with_trace = args.trace && untraced.len() > traced.len();
        let before = proc_counters();
        let pass = dag_run::run_pass(spec, args.seed, model, with_trace)?;
        let after = proc_counters();
        let timed = TimedPass {
            pass,
            ctx_switches: after.0 - before.0,
            minor_faults: after.1 - before.1,
        };
        if with_trace {
            traced.push(timed);
        } else {
            untraced.push(timed);
        }
        let done = untraced.len() + traced.len();
        if (!args.trace || !traced.is_empty()) && !another_pass_fits(clock, done, args.seconds) {
            break;
        }
    }
    let mut setup_s: Vec<f64> = untraced.iter().map(|p| p.pass.setup.total_s).collect();
    while setup_s.len() < MIN_SETUP_SAMPLES
        || (setup_s.len() < SETUP_SAMPLES && clock.elapsed().as_secs_f64() < args.seconds)
    {
        setup_s.push(dag_run::set_up_only(spec, args.seed, model)?.total_s);
    }

    let all = || untraced.iter().chain(&traced).map(|p| &p.pass);
    let first = &untraced[0].pass.diagnosis;
    let errors: Vec<&String> = all().flat_map(|p| &p.errors).collect();
    checks.push(check(
        "no_module_errors",
        errors.is_empty(),
        errors.first().map_or(String::new(), |e| (*e).clone()),
    ));
    let rows_off: u64 = all().map(|p| p.diagnosis.rows_missing_or_extra).sum();
    checks.push(check(
        "verdict_rows",
        rows_off == 0,
        format!(
            "{} nodes x {} windows x {} paths per pass",
            spec.nodes,
            spec.windows(),
            spec.taps().len()
        ),
    ));
    checks.push(check(
        "culprit_fingered",
        first.detect_latency_s.is_some(),
        format!(
            "DiskHog on node {} from t={}: {}",
            spec.fault_node,
            spec.fault_at,
            first
                .detect_latency_s
                .map_or("never fingered".to_owned(), |s| format!(
                    "fingered after {s} s"
                ))
        ),
    ));
    checks.push(check(
        "passes_identical",
        all().all(|p| p.diagnosis == *first),
        format!("digest {:016x}", first.digest),
    ));
    if let Some(reference) = reference {
        checks.push(check(
            "sharded_equals_serial",
            reference == first.digest,
            format!("serial reference digest {reference:016x}"),
        ));
    }

    let monitored = spec.monitored_s as f64;
    let per_pass =
        |f: fn(&DagPass) -> f64| -> Vec<f64> { untraced.iter().map(|p| f(&p.pass)).collect() };
    let wall_ms = per_pass(|p| p.wall_s * 1e3);
    let verdict_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.pass.verdict_ms.iter().copied())
        .collect();
    let extra = fill(
        END_TO_END_WHERE_OBSERVABLE,
        &[
            ("verdict_ms_p50", median(&verdict_ms)),
            (
                "detect_latency_s",
                first.detect_latency_s.map_or(NOT_OBSERVABLE, |s| s as f64),
            ),
            (
                "balanced_accuracy_pct",
                first.balanced_accuracy_pct.unwrap_or(NOT_OBSERVABLE),
            ),
        ],
    );

    let mut trace_file = None;
    let metrics = if args.trace {
        let traced_wall: Vec<f64> = traced.iter().map(|p| p.pass.wall_s * 1e3).collect();
        let chosen = &traced[median_index(&traced_wall)];
        let trace = chosen.pass.trace.as_ref().expect("traced pass has a trace");
        let budget = Budget::of(trace, spec.engine_threads);
        let _ = writeln!(report, "  layer budget of the median traced pass:");
        report.push_str(&budget.table());

        let mut bypassed: Vec<&str> = Vec::new();
        if !spec.black_box {
            bypassed.extend(["knn", "analysis_bb"]);
        }
        if !spec.white_box {
            bypassed.extend(["hadoop_log", "mavgvec", "analysis_wb"]);
        }
        if spec.racks <= 1 {
            bypassed.push("rack_agg");
        }
        if !spec.metric_rank {
            bypassed.push("metric_rank");
        }
        let leaked: Vec<&str> = bypassed
            .iter()
            .copied()
            .filter(|t| budget.calls_of(t) > 0.0)
            .collect();
        checks.push(check(
            "bypassed_layers_idle",
            leaked.is_empty(),
            format!("busy = 0 expected on: {}", bypassed.join(", ")),
        ));

        let run_id = format!("{name}-seed{}", args.seed);
        let text = render_chrome_trace(&run_id, trace, spec.engine_threads);
        let valid = asdf_obs::export::validate_chrome_trace(&text);
        let path = args.out_dir.join(format!("{name}.trace.json"));
        let written =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, &text));
        checks.push(check(
            "trace_valid",
            valid.is_ok() && written.is_ok(),
            match (&valid, &written) {
                (Ok(c), Ok(())) => format!("{} spans in {}", c.n_events, path.display()),
                (Err(e), _) => e.clone(),
                (_, Err(e)) => format!("cannot write {}: {e}", path.display()),
            },
        ));
        trace_file = written.is_ok().then_some(path);

        let setup = &chosen.pass.setup;
        let tick_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.pass.tick_ms.iter().copied())
            .collect();
        let tail_pct = tail_percentile(spec.windows() as usize);
        let mut values: Vec<(&str, f64)> = vec![
            ("verdict_ms_tail", percentile(&verdict_ms, tail_pct)),
            ("verdict_tail_pct", tail_pct),
            ("verdict_samples", verdict_ms.len() as f64),
            ("asdf.pipeline.config_gen_ms", setup.config_gen_s * 1e3),
            ("asdf_core.dag.build_ms", setup.dag_build_s * 1e3),
            (
                "asdf_core.dag.module_init_ms",
                setup.module_init_s.unwrap_or(0.0) * 1e3,
            ),
            ("asdf_core.engine.new_ms", setup.engine_new_s * 1e3),
            ("asdf_core.dag.instances", setup.instances as f64),
            ("asdf_core.engine.self_ms", budget.self_ms),
            ("asdf_core.engine.verdict_self_ms", budget.verdict_self_ms),
            (
                "asdf_core.engine.envelopes_routed",
                chosen.pass.envelopes_routed as f64 / monitored,
            ),
            ("asdf_core.engine.tick_ms_p50", median(&tick_ms)),
            (
                "asdf_core.engine.tick_ms_max",
                tick_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("asdf_modules.training.fit_s", fit_s),
            ("proc.ctx_switches_invol", chosen.ctx_switches),
            ("proc.minor_faults", chosen.minor_faults),
            (
                "trace_overhead_pct",
                // Each traced pass against the untraced pass just before it.
                100.0
                    * (median(
                        &traced_wall
                            .iter()
                            .zip(&wall_ms)
                            .map(|(traced, untraced)| traced / untraced)
                            .collect::<Vec<f64>>(),
                    ) - 1.0),
            ),
        ];
        values.extend(isolated::measure(spec.nodes, spec.sim_shards, args.seed).values());
        values.extend(extra.iter().map(|m| (m.name, m.value)));
        for def in PER_LAYER {
            let Some(rest) = def.name.strip_prefix("asdf_modules.") else {
                continue;
            };
            let value = match rest.rsplit_once('.') {
                Some((module, "busy_ms")) => budget.busy_of(module),
                Some((module, "calls")) => budget.calls_of(module),
                Some((module, "verdict_ms")) => budget.verdict_of(module),
                _ => continue,
            };
            values.push((def.name, value));
        }
        fill(PER_LAYER, &values)
    } else {
        let (q1, q3) = quartiles(&setup_s);
        let _ = writeln!(
            report,
            "  setup_s over {} set-ups: quartiles {q1:.4} .. {q3:.4}; \
             verdict_ms_p50 over {} verdict ticks",
            setup_s.len(),
            verdict_ms.len()
        );
        let per_s: Vec<String> = wall_ms
            .iter()
            .map(|w| format!("{:.4}", w / monitored))
            .collect();
        let _ = writeln!(
            report,
            "  wall ms per monitored s, by pass: {}",
            per_s.join(" ")
        );
        fill(
            END_TO_END,
            &[
                ("setup_s", median(&setup_s)),
                ("wall_ms_per_monitored_s", mean(&wall_ms) / monitored),
                (
                    "cpu_ms_per_monitored_s",
                    mean(&per_pass(|p| p.cpu_s * 1e3)) / monitored,
                ),
                ("peak_rss_mb", median(&per_pass(|p| p.rss_peak_mb))),
            ],
        )
    };

    Ok(RunOutcome {
        workload: name.to_owned(),
        correct: false,
        attempted: all().map(|p| p.diagnosis.rows_expected).sum(),
        failed: rows_off + errors.len() as u64,
        metrics,
        extra,
        checks,
        digest: first.digest,
        passes: untraced.len() + traced.len(),
        verdict_ms,
        trace_file,
        report,
    })
}

fn run_serve(
    args: &RunArgs,
    spec: &ServeSpec,
    model: &Arc<BlackBoxModel>,
    fit_s: f64,
) -> RunOutcome {
    // How much memory a flood takes is a race between feeders and engine
    // (40 to 160 MB from one pass to the next), so `peak_rss_mb` comes from
    // one paced pass the engine sustains, run first, on a fresh heap.
    let paced = serve_run::run_pass(spec, args.seed, model, false);
    let clock = Instant::now();
    let mut passes: Vec<ServePass> = Vec::new();
    loop {
        passes.push(serve_run::run_pass(spec, args.seed, model, true));
        if !another_pass_fits(clock, passes.len(), args.seconds) {
            break;
        }
    }
    let first = &passes[0];
    let errors: Vec<&String> = passes
        .iter()
        .chain([&paced])
        .flat_map(|p| &p.errors)
        .collect();
    let shed: u64 = passes.iter().chain([&paced]).map(|p| p.shed).sum();
    // The paced pass is not the workload: its failures count, its frames
    // do not, so that operations per pass is the same from run to run.
    let attempted = spec.frames(spec.steps) * passes.len() as u64;
    let bb_rows =
        |steps: u64| spec.tenants as u64 * spec.slaves as u64 * (steps / spec.window as u64);
    let bb_rows_expected = bb_rows(spec.steps);
    let rows_off: u64 = passes
        .iter()
        .map(|p| p.bb_rows.abs_diff(bb_rows_expected))
        .sum::<u64>()
        + paced.bb_rows.abs_diff(bb_rows(spec.paced_steps));
    let checks = vec![
        check(
            "no_engine_errors",
            errors.is_empty(),
            errors.first().map_or(String::new(), |e| (*e).clone()),
        ),
        check(
            "nothing_shed",
            shed == 0,
            format!("{shed} of {attempted} frames shed"),
        ),
        check(
            "bb_verdict_rows",
            rows_off == 0,
            format!("{bb_rows_expected} black-box rows per pass"),
        ),
        check(
            "passes_identical",
            passes.iter().all(|p| p.digest == first.digest),
            format!("digest {:016x}", first.digest),
        ),
    ];

    let monitored = (spec.tenants as u64 * spec.steps) as f64;
    let per_pass = |f: fn(&ServePass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let metrics = if args.trace {
        let walls = per_pass(|p| p.wall_s);
        let chosen = &passes[median_index(&walls)];
        // The daemon's engine cannot be wrapped from outside, so there is
        // no module budget here: only its phases, and the probes.
        let mut values = vec![
            ("asdf_modules.training.fit_s", fit_s),
            ("asdf.serve.join_ms", chosen.join_s * 1e3),
            ("asdf.serve.feed_s", chosen.feed_s),
            ("asdf.serve.drain_s", chosen.drain_s),
            ("asdf.serve.flush_s", chosen.flush_s),
            ("asdf.serve.delivered", chosen.delivered as f64),
            ("asdf.serve.shed_frames", chosen.shed as f64),
            (
                "asdf_core.online.lag_watermark_ticks",
                chosen.lag_watermark_ticks as f64,
            ),
            ("proc.threads_peak", chosen.threads_peak as f64),
            (
                "asdf.serve.rss_peak_mb",
                median(&per_pass(|p| p.rss_peak_mb)),
            ),
            (
                "asdf.serve.feeder_only_s",
                serve_run::feeder_only_s(spec, args.seed),
            ),
        ];
        values.extend(isolated::measure(spec.slaves, 1, args.seed).values());
        fill(PER_LAYER, &values)
    } else {
        fill(
            END_TO_END,
            &[
                ("setup_s", median(&per_pass(|p| p.join_s))),
                (
                    "wall_ms_per_monitored_s",
                    mean(&per_pass(|p| p.wall_s * 1e3)) / monitored,
                ),
                (
                    "cpu_ms_per_monitored_s",
                    mean(&per_pass(|p| p.cpu_s * 1e3)) / monitored,
                ),
                ("peak_rss_mb", paced.rss_peak_mb),
            ],
        )
    };
    RunOutcome {
        workload: args.workload.clone(),
        correct: false,
        attempted,
        failed: shed + rows_off + errors.len() as u64,
        metrics,
        extra: fill(END_TO_END_WHERE_OBSERVABLE, &[]),
        checks,
        digest: first.digest,
        passes: passes.len(),
        verdict_ms: Vec::new(),
        trace_file: None,
        report: String::new(),
    }
}
