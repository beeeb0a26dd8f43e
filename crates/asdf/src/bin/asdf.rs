//! `asdf` — the operator CLI of the reproduction.
//!
//! Subcommands:
//!
//! * `demo [--fault NAME] [--slaves N] [--secs S] [--seed X]` — train,
//!   inject, fingerpoint; prints the per-window score timeline and the
//!   alarm verdicts for every node.
//! * `dump-config [--slaves N]` — print the generated fingerpointing
//!   pipeline in the paper's configuration dialect (ready to edit).
//! * `run-config <FILE> [--slaves N] [--secs S] [--fault NAME]` — execute
//!   a user-supplied configuration file against a simulated cluster and
//!   print everything the `print` sinks render. Without `--slaves` the
//!   cluster is as large as the collectors' `nodes = lo..hi` ranges reach;
//!   a `--fault` landing on a node no collector polls is a usage error.
//! * `fig6` / `fig7` / `ablate` — reproduce Figure 6(a)/(b), Figure
//!   7(a)/(b), or the window / consecutive / n_states ablation, each with
//!   the paper's qualitative claims checked on the spot. Defaults are the
//!   campaign scale EXPERIMENTS.md records (20 slaves, 1800 s runs, three
//!   runs, seed 1), overridable with the campaign flags below. With
//!   `--trace-out PATH`, every module run, RPC poll, and campaign job is
//!   captured as a span and written as Chrome `trace_event` JSON —
//!   loadable in `chrome://tracing` or Perfetto. Each campaign subcommand
//!   ends with the instrumentation summary table on stderr.
//! * `table3 [--secs S]` / `table4 [--secs S]` — measure collection
//!   overhead (Table 3) or RPC bandwidth (Table 4) over `S` monitored
//!   seconds (default 600). Their meters read per-process counters and
//!   account exact bytes, so they take no thread count.
//! * `serve [--tenants N] [--flood F] [--slaves N] [--secs S] [--seed X]
//!   [--tick-ms MS] [--speed F] [--queue-cap N] [--window W]
//!   [--threshold T] [--k K]` — the long-lived multi-tenant diagnosis
//!   daemon: trains a workload model, then serves `N` monitored clusters
//!   concurrently (`F` of them flooding at max rate), each streaming one
//!   frame per stream per second with every node's row in it, until every
//!   tenant finishes its `--secs` collection steps (waiting at most twice
//!   their paced streaming time, `--tick-ms / --speed` a step, plus a
//!   minute); prints the per-tenant soak report (alarms, shed frames,
//!   scheduler-lag watermark). `--queue-cap` bounds each tenant's ingress
//!   queue in node-samples (default 4096; a frame of `k` nodes weighs `k`).
//! * `perfwatch [--history PATH] [--report PATH] [--json PATH]` — the
//!   perf-regression watchdog: loads the BENCH history (default
//!   `BENCH_history.jsonl`), runs E-Divisive change-point detection per
//!   metric at the detector's one fixed setting (the report
//!   `asdf::perfwatch::analyze` returns), and prints a markdown report
//!   (optionally written to `--report` and, as JSON, to `--json`).
//!   Advisory: always exits 0 unless the history itself is unreadable.
//!
//! Campaign flags: `--slaves N --secs S --seed X --runs R --window W
//! --threshold T --k K --threads N --racks R --workload gridmix|trace:PATH
//! --metric-rank --trace-out PATH`. `--threads` fans independent runs
//! across campaign workers (results are identical at any setting); each
//! run ticks its DAG on one serial engine. `--racks R` collects and
//! analyses the nodes in `R` racks (also identical at any setting).
//! `--workload trace:PATH` replays a cluster-trace CSV (see
//! `hadoop_sim::trace` for the schema) instead of synthesizing GridMix;
//! `--metric-rank` adds the Orion+-style per-metric deviation ranking
//! stage.
//!
//! A subcommand reads only the flags listed for it; any other flag, a
//! missing or malformed value, a `--slaves` below 3 (the fewest nodes a
//! peer comparison compares), or a stray argument prints the usage and
//! exits 2.
//!
//! Fault names: CPUHog, DiskHog, HADOOP-1036, HADOOP-1152, HADOOP-2080,
//! PacketLoss, Straggler, MemLeak, FlakyLink, GrayFailure.

use asdf::experiments::{self, AblationKnob, CampaignConfig};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf::report;
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_modules::collectors::parse_node_range;
use asdf_modules::judge;
use asdf_modules::rack::MIN_PEERS;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

fn usage() -> ! {
    eprintln!(
        "usage: asdf <demo|dump-config|run-config|fig6|fig7|ablate|table3|table4|serve|perfwatch> \
         [options]\n\
         \n\
         asdf demo        [--fault NAME] [--slaves N] [--secs S] [--seed X]\n\
         asdf dump-config [--slaves N]\n\
         asdf run-config FILE [--slaves N] [--secs S] [--fault NAME] [--seed X]\n\
         asdf fig6|fig7|ablate [--slaves N] [--secs S] [--seed X] [--runs R]\n\
         \x20                     [--window W] [--threshold T] [--k K] [--threads N]\n\
         \x20                     [--trace-out PATH] [--workload gridmix|trace:PATH]\n\
         \x20                     [--metric-rank] [--racks R]\n\
         asdf table3|table4 [--secs S]\n\
         asdf serve       [--tenants N] [--flood F] [--slaves N] [--secs S]\n\
         \x20                [--seed X] [--tick-ms MS] [--speed F] [--queue-cap N]\n\
         \x20                [--window W] [--threshold T] [--k K]\n\
         asdf perfwatch   [--history PATH] [--report PATH] [--json PATH]\n\
         \n\
         a flag the subcommand does not list is an error (exit 2);\n\
         campaign subcommands default to the paper-scale campaign (20 slaves,\n\
         1800 s runs, 3 runs) and table3/table4 to 600 s; --trace-out writes a\n\
         Chrome trace_event JSON (chrome://tracing / Perfetto); perfwatch\n\
         analyzes BENCH_history.jsonl for perf regressions (advisory);\n\
         --workload trace:PATH replays a cluster-trace CSV instead of GridMix;\n\
         --racks collects and analyses the nodes in R racks, one row per rack\n\
         per second (0/1 = one collector for the cluster; both bit-identical);\n\
         serve --queue-cap bounds each tenant's ingress queue in node-samples\n\
         (default 4096; a frame, one stream-second of k nodes, weighs k)\n\
         \n\
         faults: CPUHog DiskHog HADOOP-1036 HADOOP-1152 HADOOP-2080 PacketLoss\n\
         \x20       Straggler MemLeak FlakyLink GrayFailure"
    );
    std::process::exit(2);
}

/// The analysis window, in seconds, where `--window` does not set it.
const DEFAULT_WINDOW: usize = 60;

/// Monitored seconds of the `table3` / `table4` measurements.
const TABLE_SECS: u64 = 600;

/// The flags each subcommand reads, or `None` for an unknown subcommand.
/// Any other flag is a usage error, so none is silently ignored.
fn flags_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "demo" => &["--fault", "--slaves", "--secs", "--seed"],
        "dump-config" => &["--slaves"],
        "run-config" => &["--slaves", "--secs", "--fault", "--seed"],
        "fig7" | "fig6" | "ablate" => &[
            "--slaves",
            "--secs",
            "--seed",
            "--runs",
            "--window",
            "--threshold",
            "--k",
            "--threads",
            "--workload",
            "--metric-rank",
            "--racks",
            "--trace-out",
        ],
        "table3" | "table4" => &["--secs"],
        "serve" => &[
            "--tenants",
            "--flood",
            "--slaves",
            "--secs",
            "--seed",
            "--tick-ms",
            "--speed",
            "--queue-cap",
            "--window",
            "--threshold",
            "--k",
        ],
        "perfwatch" => &["--history", "--report", "--json"],
        _ => return None,
    })
}

fn parse_fault(name: &str) -> Result<FaultKind, String> {
    FaultKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown fault `{name}`"))
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("flag {flag}: cannot parse `{value}`"))
}

/// Parses `--slaves`: every subcommand that takes it compares peers.
fn parse_slaves(value: &str) -> Result<usize, String> {
    let n = parse_value("--slaves", value)?;
    if n < MIN_PEERS {
        return Err(format!(
            "flag --slaves: peer comparison needs at least {MIN_PEERS} slaves, got {n}"
        ));
    }
    Ok(n)
}

/// Parses `--threshold` or `--k` and checks it as the analyses do.
fn parse_threshold(flag: &str, value: &str) -> Result<f64, String> {
    judge::check_threshold(parse_value(flag, value)?)
        .map_err(|why| format!("flag {flag}: {why}, got `{value}`"))
}

/// Parses `--speed`: the pacing multiplier, checked as the engine checks
/// it before any work is done.
fn parse_speed(value: &str) -> Result<f64, String> {
    let speed: f64 = parse_value("--speed", value)?;
    if speed > 0.0 && speed.is_finite() {
        Ok(speed)
    } else {
        Err(format!(
            "flag --speed: must be a positive finite number, got `{value}`"
        ))
    }
}

/// Parses `--window`, `--secs`, `--runs` or `--tenants`: a window holds at
/// least one sample, and a measurement covers at least one second, one run
/// and one tenant.
fn parse_positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    let n = parse_value(flag, value)?;
    if n == T::default() {
        return Err(format!("flag {flag}: must be positive, got 0"));
    }
    Ok(n)
}

struct Opts {
    fault: Option<FaultKind>,
    slaves: Option<usize>,
    secs: Option<u64>,
    seed: u64,
    file: Option<String>,
    runs: Option<usize>,
    window: Option<usize>,
    threshold: Option<f64>,
    k: Option<f64>,
    threads: usize,
    workload: Option<String>,
    metric_rank: bool,
    racks: usize,
    trace_out: Option<String>,
    history: Option<String>,
    report_out: Option<String>,
    json_out: Option<String>,
    tenants: usize,
    flood: usize,
    tick_ms: u64,
    speed: f64,
    queue_cap: Option<usize>,
}

/// Parses the arguments after the subcommand `cmd`.
///
/// # Errors
///
/// Returns what is wrong with them: an unknown subcommand, a flag `cmd`
/// does not read, a missing or malformed value, or a stray argument (only
/// `run-config` takes one, its `FILE`).
fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let accepted = flags_of(cmd).ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
    let mut o = Opts {
        fault: None,
        slaves: None,
        secs: None,
        seed: 1,
        file: None,
        runs: None,
        window: None,
        threshold: None,
        k: None,
        threads: 0,
        workload: None,
        metric_rank: false,
        racks: 0,
        trace_out: None,
        history: None,
        report_out: None,
        json_out: None,
        tenants: 4,
        flood: 0,
        tick_ms: 1000,
        speed: 1.0,
        queue_cap: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            if cmd == "run-config" && o.file.is_none() {
                o.file = Some(flag.clone());
                continue;
            }
            return Err(format!("unexpected argument `{flag}`"));
        }
        if !accepted.contains(&flag.as_str()) {
            return Err(format!("`asdf {cmd}` takes no flag {flag}"));
        }
        if flag == "--metric-rank" {
            o.metric_rank = true;
            continue;
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--fault" => o.fault = Some(parse_fault(v)?),
            "--slaves" => o.slaves = Some(parse_slaves(v)?),
            "--secs" => o.secs = Some(parse_positive(flag, v)?),
            "--seed" => o.seed = parse_value(flag, v)?,
            "--runs" => o.runs = Some(parse_positive(flag, v)?),
            "--window" => o.window = Some(parse_positive(flag, v)?),
            "--threshold" => o.threshold = Some(parse_threshold(flag, v)?),
            "--k" => o.k = Some(parse_threshold(flag, v)?),
            "--threads" => o.threads = parse_value(flag, v)?,
            "--workload" => o.workload = Some(v.clone()),
            "--racks" => o.racks = parse_value(flag, v)?,
            "--trace-out" => o.trace_out = Some(v.clone()),
            "--history" => o.history = Some(v.clone()),
            "--report" => o.report_out = Some(v.clone()),
            "--json" => o.json_out = Some(v.clone()),
            "--tenants" => o.tenants = parse_positive(flag, v)?,
            "--flood" => o.flood = parse_value(flag, v)?,
            "--tick-ms" => o.tick_ms = parse_value(flag, v)?,
            "--speed" => o.speed = parse_speed(v)?,
            "--queue-cap" => o.queue_cap = Some(parse_value(flag, v)?),
            other => unreachable!("{other} is listed in flags_of but not parsed"),
        }
    }
    // A run shorter than the window it is judged in measures no window.
    let window = match cmd {
        "fig6" | "fig7" | "serve" => o.window.unwrap_or(DEFAULT_WINDOW),
        "demo" => DEFAULT_WINDOW,
        // The ablation sweeps windows up to 120 s.
        "ablate" => o.window.unwrap_or(DEFAULT_WINDOW).max(120),
        _ => return Ok(o),
    };
    if let Some(secs) = o.secs.filter(|&s| s < window as u64) {
        return Err(format!(
            "flag --secs: {secs} s is shorter than the {window}-s analysis window"
        ));
    }
    Ok(o)
}

impl Opts {
    /// The campaign configuration for the `fig7`/`fig6`/`ablate`
    /// subcommands: the paper-scale campaign by default, with every knob
    /// overridable.
    fn campaign(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig {
            base_seed: self.seed,
            threads: self.threads,
            racks: self.racks,
            workload: self.parse_workload(),
            metric_rank: self.metric_rank,
            ..CampaignConfig::default()
        };
        if let Some(n) = self.slaves {
            cfg.slaves = n;
        }
        if let Some(s) = self.secs {
            cfg.run_secs = s;
        }
        if let Some(r) = self.runs {
            cfg.fault_runs = r;
            cfg.fault_free_runs = r;
        }
        if let Some(w) = self.window {
            cfg.window = w;
        }
        if let Some(t) = self.threshold {
            cfg.bb_threshold = t;
        }
        if let Some(k) = self.k {
            cfg.wb_k = k;
        }
        // Keep the fault node and injection point inside the run.
        cfg.fault_node = cfg.fault_node.min(cfg.slaves.saturating_sub(1));
        cfg.injection_at = cfg.injection_at.min(cfg.run_secs / 3);
        cfg
    }

    /// Resolves `--workload` (`gridmix`, the default, or `trace:PATH`).
    fn parse_workload(&self) -> experiments::Workload {
        match self.workload.as_deref() {
            None | Some("gridmix") => experiments::Workload::GridMix,
            Some(spec) => match spec.strip_prefix("trace:") {
                Some(path) => {
                    let trace =
                        hadoop_sim::Trace::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                            eprintln!("{e}");
                            std::process::exit(1);
                        });
                    experiments::Workload::Trace(std::sync::Arc::new(trace))
                }
                None => {
                    eprintln!("unknown workload `{spec}` (expected gridmix or trace:PATH)");
                    usage()
                }
            },
        }
    }
}

/// Renders a score series as a sparkline.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(1e-9, f64::max);
    values
        .iter()
        .map(|&v| BARS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}

fn cmd_demo(o: Opts) {
    let fault = o.fault.unwrap_or(FaultKind::Hadoop1036);
    let slaves = o.slaves.unwrap_or(10);
    let secs = o.secs.unwrap_or(1200);
    let cfg = CampaignConfig {
        slaves,
        run_secs: secs,
        injection_at: secs / 4,
        fault_node: slaves / 2,
        base_seed: o.seed,
        consecutive: 2,
        ..CampaignConfig::smoke()
    };
    println!(
        "training workload model ({} nodes, {} s fault-free)...",
        cfg.slaves, cfg.training_secs
    );
    let model = experiments::train_model(&cfg);
    println!(
        "injecting {fault} on node {} at t={} s; monitoring {} s...\n",
        cfg.fault_node, cfg.injection_at, cfg.run_secs
    );
    let tr = experiments::run_once(&cfg, &model, Some(fault), cfg.base_seed + 42);

    println!(
        "black-box L1 distance per node (one column per {}-s window):",
        cfg.window
    );
    for node in 0..cfg.slaves {
        let series: Vec<f64> = tr.bb.scores.iter().map(|row| row[node]).collect();
        let alarms = tr.bb.alarms.iter().filter(|row| row[node]).count();
        println!(
            "  node {node:>2} {} {}{}",
            sparkline(&series),
            if node == cfg.fault_node {
                "<- culprit"
            } else {
                ""
            },
            if alarms > 0 {
                format!(" [{alarms} alarm windows]")
            } else {
                String::new()
            }
        );
    }
    println!("\nwhite-box critical-k per node:");
    for node in 0..cfg.slaves {
        let series: Vec<f64> = tr
            .wb
            .scores
            .iter()
            .map(|row| {
                if row[node].is_finite() {
                    row[node]
                } else {
                    20.0
                }
            })
            .collect();
        let alarms = tr.wb.alarms.iter().filter(|row| row[node]).count();
        println!(
            "  node {node:>2} {} {}{}",
            sparkline(&series),
            if node == cfg.fault_node {
                "<- culprit"
            } else {
                ""
            },
            if alarms > 0 {
                format!(" [{alarms} alarm windows]")
            } else {
                String::new()
            }
        );
    }
    let r = experiments::score_run(&tr, fault);
    println!(
        "\nverdict: balanced accuracy bb {:.1}% / wb {:.1}% / combined {:.1}%;  latency {}",
        r.ba_black_box,
        r.ba_white_box,
        r.ba_combined,
        r.lat_combined
            .map(|s| format!("{s} s"))
            .unwrap_or_else(|| "not detected".into())
    );
}

fn cmd_dump_config(o: Opts) {
    let slaves = o.slaves.unwrap_or(10);
    let cfg = CampaignConfig {
        slaves,
        ..CampaignConfig::smoke()
    };
    let model = experiments::train_model(&cfg);
    let builder = AsdfBuilder::new(AsdfOptions::default()).with_model(model);
    print!("{}", builder.config(slaves).render());
}

/// The node ranges `config`'s collectors poll: every `nodes = lo..hi`
/// (the analyses name their nodes, `nodes = slave00,…`). A malformed range
/// is left out: the DAG build rejects it, naming the key.
fn collector_ranges(config: &Config) -> Vec<std::ops::Range<usize>> {
    config
        .instances()
        .iter()
        .filter_map(|i| parse_node_range(i.param("nodes")?))
        .collect()
}

fn cmd_run_config(o: Opts) {
    let path = o.file.clone().unwrap_or_else(|| usage());
    let secs = o.secs.unwrap_or(1200);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let config: Config = text.parse().unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(1);
    });
    // Without `--slaves`, simulate every node the collectors poll.
    let polled = collector_ranges(&config);
    let slaves = o.slaves.unwrap_or_else(|| {
        polled
            .iter()
            .map(|r| r.end)
            .max()
            .map_or(10, |hi| hi.max(MIN_PEERS))
    });
    let faults = o
        .fault
        .map(|kind| {
            let node = slaves / 2;
            if !polled.iter().any(|r| r.contains(&node)) {
                eprintln!(
                    "asdf: flag --fault: it lands on slave{node:02} of {slaves}, \
                     which no collector in `{path}` polls"
                );
                usage();
            }
            vec![FaultSpec {
                node,
                kind,
                start_at: secs / 4,
            }]
        })
        .unwrap_or_default();
    let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(slaves, o.seed), faults));
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle);
    let dag = Dag::build(&registry, &config).unwrap_or_else(|e| {
        eprintln!("DAG error: {e}");
        std::process::exit(1);
    });

    // Tap every print sink so its rendered lines reach stdout.
    let sink_ids: Vec<String> = config
        .instances()
        .iter()
        .filter(|i| i.module_type == "print")
        .map(|i| i.id.clone())
        .collect();
    let mut engine = TickEngine::new(dag);
    let taps: Vec<_> = sink_ids
        .iter()
        .filter_map(|id| engine.tap(id).map(|t| (id.clone(), t)))
        .collect();
    eprintln!("running `{path}` for {secs} s over {slaves} simulated nodes...");
    if let Err(e) = engine.run_for(TickDuration::from_secs(secs)) {
        eprintln!("runtime error: {e}");
        std::process::exit(1);
    }
    let mut buf = Vec::new();
    for (id, tap) in taps {
        buf.clear();
        tap.drain_into(&mut buf);
        for env in &buf {
            if let Some(line) = env.sample.value.as_text() {
                println!("{id}: {line}");
            }
        }
    }
}

fn cmd_fig7(cfg: &CampaignConfig) {
    eprintln!(
        "[fig7] training on {} nodes x {} s ({} workload), then {} faults x {} run(s) of {} s on {} worker(s) ...",
        cfg.slaves,
        cfg.training_secs,
        cfg.workload.name(),
        FaultKind::ALL.len(),
        cfg.fault_runs,
        cfg.run_secs,
        asdf::campaign::resolve_threads(cfg.threads)
    );
    let model = experiments::train_model(cfg);
    let rows = experiments::fig7(cfg, &model);
    println!("{}", report::render_fig7(&rows));

    // The paper's qualitative claims, checked on the spot over the faults
    // it evaluated.
    let bb = report::paper_mean(&rows, |r| r.ba_black_box);
    let wb = report::paper_mean(&rows, |r| r.ba_white_box);
    let all = report::paper_mean(&rows, |r| r.ba_combined);
    println!("shape checks, paper's six faults (paper: bb 71%, wb 78%, combined 80%):");
    println!("  mean balanced accuracy: bb {bb:.1}%  wb {wb:.1}%  combined {all:.1}%");
    println!(
        "  white box >= black box overall: {}",
        if wb >= bb - 1.0 { "yes" } else { "NO" }
    );
    println!(
        "  combining helps or ties:        {}",
        if all + 1.0 >= bb.max(wb) { "yes" } else { "NO" }
    );
    let wb_beats_bb_on_hangs = rows
        .iter()
        .filter(|r| FaultKind::PAPER.contains(&r.fault) && r.fault.is_dormant())
        .all(|r| r.ba_white_box > r.ba_black_box);
    println!(
        "  wb beats bb on reduce hangs (HADOOP-1152/2080): {}",
        if wb_beats_bb_on_hangs { "yes" } else { "NO" }
    );
}

fn cmd_fig6(cfg: &CampaignConfig) {
    eprintln!(
        "[fig6] training on {} nodes x {} s, then {} fault-free run(s) of {} s ...",
        cfg.slaves, cfg.training_secs, cfg.fault_free_runs, cfg.run_secs
    );
    let model = experiments::train_model(cfg);
    let thresholds: Vec<f64> = (0..=14).map(|i| i as f64 * 5.0).collect();
    let sweep_a = experiments::fig6a(cfg, &model, &thresholds);
    println!(
        "{}",
        report::render_sweep(
            "Figure 6(a): black-box false-positive rate vs L1 threshold",
            "threshold",
            &sweep_a
        )
    );
    let ks: Vec<f64> = (0..=10).map(|i| i as f64 * 0.5).collect();
    let sweep_b = experiments::fig6b(cfg, &model, &ks);
    println!(
        "{}",
        report::render_sweep(
            "Figure 6(b): white-box false-positive rate vs k",
            "k",
            &sweep_b
        )
    );

    // The paper's qualitative claims, checked on the spot.
    let fp_at = |rows: &[(f64, f64)], x: f64| {
        rows.iter()
            .find(|(v, _)| (*v - x).abs() < 1e-9)
            .map(|(_, fp)| *fp)
            .unwrap_or(f64::NAN)
    };
    println!("shape checks:");
    println!(
        "  bb FP falls steeply then flattens: fp(0)={:.1}%  fp(40)={:.2}%  fp(70)={:.2}%",
        fp_at(&sweep_a, 0.0),
        fp_at(&sweep_a, 40.0),
        fp_at(&sweep_a, 70.0)
    );
    println!(
        "  wb FP low and flat beyond k=3:     fp(k=0)={:.2}%  fp(k=3)={:.2}%  fp(k=5)={:.2}%",
        fp_at(&sweep_b, 0.0),
        fp_at(&sweep_b, 3.0),
        fp_at(&sweep_b, 5.0)
    );
}

/// The ablation: each design knob swept on HADOOP-1036 (the
/// strongest-manifesting fault, so the knob effect dominates run noise)
/// plus a fault-free control run per value.
fn cmd_ablate(cfg: &CampaignConfig) {
    let fault = FaultKind::Hadoop1036;
    eprintln!(
        "[ablate] {} nodes, {} s runs, fault {fault}; sweeping window / consecutive / n_states ...",
        cfg.slaves, cfg.run_secs
    );
    let sweeps = [
        (
            AblationKnob::Window,
            [15.0, 30.0, 60.0, 120.0],
            "window size (paper: 60)",
            "expected trade-off: small windows detect faster but with noisier histograms\n\
             (higher FP); large windows smooth noise but stretch the latency floor.\n",
        ),
        (
            AblationKnob::Consecutive,
            [1.0, 2.0, 3.0, 4.0],
            "consecutive-window confirmation (paper: 3)",
            "expected trade-off: each extra confirmation window adds ~windowSize seconds\n\
             of latency and suppresses one-window false positives.\n",
        ),
        (
            AblationKnob::NStates,
            [4.0, 8.0, 12.0, 24.0],
            "black-box workload states / k-means k (reproduction default: 12)",
            "expected trade-off: too few states quantize faulty and healthy behaviour into\n\
             the same cell; too many states fragment healthy behaviour and add FP noise.",
        ),
    ];
    for (knob, values, title, trade_off) in sweeps {
        println!("=== {title} ===");
        let rows = experiments::ablate(cfg, knob, &values, fault);
        println!("{}", report::render_ablation(&rows));
        println!("{trade_off}");
    }
}

fn cmd_table3(secs: u64) {
    use asdf_rpc::meter::{process_peak_rss_mb, process_rss_mb};
    eprintln!("[table3] metering collectors over {secs} monitored seconds ...");
    let rows = experiments::table3(secs);
    println!("{}", report::render_table3(&rows));
    println!("shape check (paper: every collection component << 1% CPU per node):");
    for r in &rows {
        println!(
            "  {:<32} {:.4}% CPU -> {}",
            r.process,
            r.cpu_percent,
            if r.cpu_percent < 1.0 {
                "negligible"
            } else {
                "HIGH"
            }
        );
    }
    let total: f64 = rows.iter().map(|r| r.cpu_percent).sum();
    println!("  total monitoring overhead: {total:.3}% CPU per monitored node");

    // Whole-process footprint, same /proc meters the rows are built from.
    if let (Some(rss), Some(peak)) = (process_rss_mb(), process_peak_rss_mb()) {
        println!("  harness process RSS: {rss:.1} MB (peak {peak:.1} MB)");
    }
}

fn cmd_table4(secs: u64) {
    eprintln!("[table4] accounting RPC bytes over {secs} collection iterations ...");
    let rows = experiments::table4(secs);
    println!("{}", report::render_table4(&rows));

    println!("shape checks:");
    let (sadc, dn, tt, sum) = (&rows[0], &rows[1], &rows[2], &rows[3]);
    println!(
        "  sadc dominates per-iteration bandwidth: {} ({:.2} vs {:.2}/{:.2} kB/s)",
        if sadc.per_iter_kb > dn.per_iter_kb && sadc.per_iter_kb > tt.per_iter_kb {
            "yes"
        } else {
            "NO"
        },
        sadc.per_iter_kb,
        dn.per_iter_kb,
        tt.per_iter_kb
    );
    println!(
        "  single-node monitoring cost is negligible: {:.2} kB/s total, {:.2} kB static",
        sum.per_iter_kb, sum.static_kb
    );
    println!(
        "  100-node aggregate would be ~{:.1} kB/s (paper: \"on the order of 1 MB/s even \
         when monitoring hundreds of nodes\")",
        sum.per_iter_kb * 100.0
    );
}

/// How long `serve` waits for a tenant to go idle: twice the time its
/// `steps` take to stream at `tick_ms / speed` each, plus a minute.
fn idle_timeout(steps: u64, tick_ms: u64, speed: f64) -> std::time::Duration {
    let streaming_s = steps as f64 * tick_ms as f64 / 1000.0 / speed;
    std::time::Duration::try_from_secs_f64(2.0 * streaming_s + 60.0)
        .unwrap_or(std::time::Duration::MAX)
}

fn cmd_serve(o: Opts) {
    use asdf::serve::{ServeDaemon, ServeOptions, TenantSpec};
    use asdf_rpc::wire::Handshake;
    use std::time::Duration;

    let slaves = o.slaves.unwrap_or(4);
    let steps = o.secs.unwrap_or(240);
    let flood = o.flood.min(o.tenants);
    let window = o.window.unwrap_or(DEFAULT_WINDOW);
    let train_cfg = CampaignConfig {
        slaves,
        base_seed: o.seed,
        ..CampaignConfig::smoke()
    };
    eprintln!(
        "[serve] training workload model ({} nodes x {} s fault-free)...",
        train_cfg.slaves, train_cfg.training_secs
    );
    let model = experiments::train_model(&train_cfg);
    let opts = ServeOptions {
        slaves,
        wall_per_tick: Duration::from_millis(o.tick_ms),
        speed: o.speed,
        window,
        slide: window,
        threshold: o.threshold.unwrap_or(judge::BB_THRESHOLD),
        wb_k: o.k.unwrap_or(judge::WB_K),
        ..ServeOptions::default()
    };
    let opts = match o.queue_cap {
        Some(cap) => ServeOptions {
            queue_capacity: cap,
            ..opts
        },
        None => opts,
    };
    let mut daemon = ServeDaemon::new(model, opts);
    eprintln!(
        "[serve] serving {} tenant(s) ({flood} flooding) x {steps} step(s) at {}x pacing, \
         {} ms/tick",
        o.tenants, o.speed, o.tick_ms
    );
    let mut names = Vec::new();
    for i in 0..o.tenants {
        let name = format!("tenant{i:02}");
        let seed = o.seed + i as u64;
        let spec = if i < flood {
            TenantSpec::flooding(seed, steps)
        } else {
            TenantSpec::paced(seed, steps)
        };
        if let Err(e) = daemon.join_tenant(Handshake::new(&name).encode(), spec) {
            eprintln!("cannot join {name}: {e}");
            std::process::exit(1);
        }
        names.push(name);
    }
    let timeout = idle_timeout(steps, o.tick_ms, o.speed);
    for name in &names {
        if !daemon.wait_idle(name, timeout) {
            eprintln!("warning: [serve] tenant {name} did not go idle; flushing anyway");
        }
    }
    let reports = daemon.shutdown().unwrap_or_else(|e| {
        eprintln!("serve shutdown failed: {e}");
        std::process::exit(1);
    });
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>6} {:>10} {:>9}",
        "tenant", "bb", "wb_tt", "wb_st", "shed", "delivered", "lag_max"
    );
    for r in &reports {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>6} {:>10} {:>9}",
            r.tenant,
            r.bb_alarms.len(),
            r.wb_tt_alarms.len(),
            r.wb_st_alarms.len(),
            r.shed,
            r.delivered,
            r.lag_watermark
        );
    }
}

fn cmd_perfwatch(o: Opts) {
    use asdf::perfwatch;
    let path = o.history.as_deref().unwrap_or("BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let report = perfwatch::analyze(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let markdown = perfwatch::report::render_markdown(&report);
    match o.report_out.as_deref() {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &markdown) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("report -> {out}");
        }
        None => print!("{markdown}"),
    }
    if let Some(out) = o.json_out.as_deref() {
        if let Err(e) = std::fs::write(out, perfwatch::report::render_json(&report)) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("json -> {out}");
    }
    // Advisory by design: findings are evidence for humans, not a gate,
    // so a clean run exits 0 whatever the detector concluded.
}

/// Runs a campaign subcommand under the observability exporters: optional
/// Chrome-trace capture around `body`, then the instrumentation summary
/// table on stderr.
fn with_exporters(trace_out: Option<&str>, body: impl FnOnce()) {
    if trace_out.is_some() {
        asdf_obs::start_tracing(asdf_obs::DEFAULT_TRACE_CAPACITY);
    }
    body();
    if let Some(path) = trace_out {
        let (events, dropped) = asdf_obs::stop_tracing();
        let text = asdf_obs::export::render_chrome_trace(&events);
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        match asdf_obs::export::validate_chrome_trace(&text) {
            Ok(check) => eprintln!(
                "trace: {} events / {} threads / {} span names -> {path}{}",
                check.n_events,
                check.n_threads,
                check.n_names,
                if dropped > 0 {
                    format!(" ({dropped} dropped at capacity)")
                } else {
                    String::new()
                }
            ),
            Err(e) => {
                eprintln!("internal error: exported trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }
    eprint!(
        "{}",
        asdf_obs::export::render_summary(&asdf_obs::registry().snapshot())
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse_opts(cmd, &args[1..]).unwrap_or_else(|e| {
        eprintln!("asdf: {e}");
        usage()
    });
    match cmd.as_str() {
        "demo" => cmd_demo(opts),
        "dump-config" => cmd_dump_config(opts),
        "run-config" => cmd_run_config(opts),
        "serve" => cmd_serve(opts),
        "perfwatch" => cmd_perfwatch(opts),
        "table3" => cmd_table3(opts.secs.unwrap_or(TABLE_SECS)),
        "table4" => cmd_table4(opts.secs.unwrap_or(TABLE_SECS)),
        "fig7" | "fig6" | "ablate" => {
            let run: fn(&CampaignConfig) = match cmd.as_str() {
                "fig7" => cmd_fig7,
                "fig6" => cmd_fig6,
                _ => cmd_ablate,
            };
            let cfg = opts.campaign();
            with_exporters(opts.trace_out.as_deref(), || run(&cfg));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, flags: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        parse_opts(cmd, &args)
    }

    #[test]
    fn defaults_are_paper_scale() {
        let cfg = parse("fig7", &[]).unwrap().campaign();
        let paper = CampaignConfig::default();
        assert_eq!((cfg.slaves, cfg.run_secs), (paper.slaves, paper.run_secs));
        assert_eq!((cfg.fault_runs, cfg.fault_free_runs), (3, 3));
        assert_eq!(cfg.base_seed, 1);
        assert_eq!(cfg.window, 60);
        assert_eq!(cfg.consecutive, 3);
        assert!((cfg.wb_k - 3.0).abs() < 1e-12);
        assert_eq!(cfg.threads, 0, "default = all available parallelism");
    }

    #[test]
    fn flags_override_defaults() {
        let cfg = parse("fig6", &["--slaves", "8", "--threads", "3", "--runs", "2"])
            .unwrap()
            .campaign();
        assert_eq!(cfg.slaves, 8);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.fault_runs, 2);
        assert_eq!(cfg.fault_free_runs, 2);
        // The fault node stays inside the smaller cluster.
        assert!(cfg.fault_node < 8);
    }

    #[test]
    fn measurement_flags_parse() {
        assert_eq!(parse("table4", &["--secs", "30"]).unwrap().secs, Some(30));
        assert_eq!(parse("table3", &[]).unwrap().secs, None);
    }

    #[test]
    fn measurement_binaries_take_no_thread_count() {
        for cmd in ["table3", "table4"] {
            let err = parse(cmd, &["--threads", "2"]).err().expect("rejected");
            assert!(err.contains("takes no flag --threads"), "{err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse("fig7", &["--bogus"]).is_err());
        // A flag another subcommand reads is no more welcome.
        assert!(parse("demo", &["--threshold", "30"]).is_err());
        assert!(parse("serve", &["--racks", "4"]).is_err());
        assert!(parse("dump-config", &["--secs", "30"]).is_err());
        // So are a stray argument, a missing value and a malformed one.
        assert!(parse("fig6", &["extra"]).is_err());
        assert!(parse("fig6", &["--slaves"]).is_err());
        assert!(parse("fig6", &["--slaves", "many"]).is_err());
        assert!(parse("demo", &["--fault", "NoSuchFault"]).is_err());
        assert!(parse("frobnicate", &[]).is_err());
        // Only run-config takes a positional FILE, and only one.
        assert_eq!(
            parse("run-config", &["pipeline.conf"])
                .unwrap()
                .file
                .as_deref(),
            Some("pipeline.conf")
        );
        assert!(parse("run-config", &["a.conf", "b.conf"]).is_err());
    }

    #[test]
    fn a_paced_tenant_waits_twice_its_stream_time_plus_a_minute() {
        // 240 one-second steps stream for 960 s at a quarter speed, 240 s
        // in real time and 60 s at four times.
        for (speed, streaming_s) in [(0.25, 960), (1.0, 240), (4.0, 60)] {
            let want = std::time::Duration::from_secs(2 * streaming_s + 60);
            assert_eq!(idle_timeout(240, 1000, speed), want, "speed {speed}");
        }
    }

    #[test]
    fn every_listed_flag_parses() {
        for cmd in [
            "demo",
            "dump-config",
            "run-config",
            "fig6",
            "table3",
            "serve",
            "perfwatch",
        ] {
            for &flag in flags_of(cmd).unwrap() {
                let args: &[&str] = match flag {
                    "--metric-rank" => &[flag],
                    "--fault" => &[flag, "HADOOP-1036"],
                    "--workload" => &[flag, "gridmix"],
                    "--slaves" => &[flag, "3"],
                    // At least the longest window a subcommand judges in.
                    "--secs" => &[flag, "120"],
                    _ => &[flag, "1"],
                };
                assert!(parse(cmd, args).is_ok(), "asdf {cmd} {args:?}");
            }
        }
    }
}
