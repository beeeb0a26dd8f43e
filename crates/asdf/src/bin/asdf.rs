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
//!   print everything the `print` sinks render.
//! * `fig7` / `fig6` / `ablate` — run the corresponding evaluation
//!   campaign at smoke scale (overridable with the campaign flags below).
//!   With `--trace-out PATH`, every module run, RPC poll, and campaign job
//!   is captured as a span and written as Chrome `trace_event` JSON —
//!   loadable in `chrome://tracing` or Perfetto. Each campaign subcommand
//!   ends with the instrumentation summary table on stderr.
//! * `serve [--tenants N] [--flood F] [--slaves N] [--secs S] [--seed X]
//!   [--tick-ms MS] [--speed F] [--queue-cap N] [--window W]
//!   [--threshold T] [--k K] [--batch-size B]` — the long-lived
//!   multi-tenant diagnosis daemon: trains a workload model, then serves
//!   `N` monitored clusters concurrently (`F` of them flooding at max
//!   rate), each streaming one frame per stream per second with every
//!   node's row in it, until every tenant finishes its `--secs` collection
//!   steps; prints the per-tenant soak report (alarms, shed frames,
//!   scheduler-lag watermark). `--queue-cap` bounds each tenant's ingress
//!   queue in node-samples (default 4096; a frame of `k` nodes weighs `k`).
//! * `perfwatch [--history PATH] [--report PATH] [--json PATH]
//!   [--permutations N] [--pvalue P] [--min-segment N]` — the
//!   perf-regression watchdog: loads the BENCH history (default
//!   `BENCH_history.jsonl`), runs E-Divisive change-point detection per
//!   metric, and prints a markdown report (optionally written to
//!   `--report` and, as JSON, to `--json`). Advisory: always exits 0
//!   unless the history itself is unreadable.
//!
//! Campaign flags: `--slaves N --secs S --seed X --runs R --window W
//! --threshold T --k K --threads N --engine-threads N --batch-size B
//! --workload gridmix|trace:PATH --metric-rank --trace-out PATH`.
//! `--threads` fans independent runs across campaign workers;
//! `--engine-threads` shards each tick *within* a run across engine
//! workers; `--batch-size` sets how many envelopes accumulate per edge
//! before a lane hand-off (results are identical at any setting of any of
//! the three). `--workload trace:PATH` replays a cluster-trace CSV (see
//! `hadoop_sim::trace` for the schema) instead of synthesizing GridMix;
//! `--metric-rank` adds the Orion+-style per-metric deviation ranking
//! stage.
//!
//! Fault names: CPUHog, DiskHog, HADOOP-1036, HADOOP-1152, HADOOP-2080,
//! PacketLoss, Straggler, MemLeak, FlakyLink, GrayFailure.

use asdf::experiments::{self, CampaignConfig};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

fn usage() -> ! {
    eprintln!(
        "usage: asdf <demo|dump-config|run-config|fig7|fig6|ablate|serve> [options]\n\
         \n\
         asdf demo        [--fault NAME] [--slaves N] [--secs S] [--seed X]\n\
         asdf dump-config [--slaves N]\n\
         asdf run-config FILE [--slaves N] [--secs S] [--fault NAME] [--seed X]\n\
         asdf fig7|fig6|ablate [--slaves N] [--secs S] [--seed X] [--runs R]\n\
         \x20                     [--window W] [--threshold T] [--k K] [--threads N]\n\
         \x20                     [--engine-threads N] [--batch-size B] [--trace-out PATH]\n\
         \x20                     [--workload gridmix|trace:PATH] [--metric-rank]\n\
         \x20                     [--sim-shards N] [--racks R]\n\
         asdf serve       [--tenants N] [--flood F] [--slaves N] [--secs S]\n\
         \x20                [--seed X] [--tick-ms MS] [--speed F] [--queue-cap N]\n\
         \x20                [--window W] [--threshold T] [--k K] [--batch-size B]\n\
         asdf perfwatch   [--history PATH] [--report PATH] [--json PATH]\n\
         \x20                [--permutations N] [--pvalue P] [--min-segment N]\n\
         \x20                [--seed X]\n\
         \n\
         campaign subcommands default to smoke scale; --trace-out writes a\n\
         Chrome trace_event JSON (chrome://tracing / Perfetto); perfwatch\n\
         analyzes BENCH_history.jsonl for perf regressions (advisory);\n\
         --workload trace:PATH replays a cluster-trace CSV instead of GridMix;\n\
         --sim-shards parallelizes each simulated cluster's tick loop and\n\
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

fn parse_fault(name: &str) -> FaultKind {
    FaultKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown fault `{name}`");
            usage()
        })
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
    engine_threads: usize,
    batch_size: Option<usize>,
    workload: Option<String>,
    metric_rank: bool,
    sim_shards: usize,
    racks: usize,
    trace_out: Option<String>,
    history: Option<String>,
    report_out: Option<String>,
    json_out: Option<String>,
    permutations: Option<usize>,
    pvalue: Option<f64>,
    min_segment: Option<usize>,
    tenants: usize,
    flood: usize,
    tick_ms: u64,
    speed: f64,
    queue_cap: Option<usize>,
}

fn parse_opts(args: &[String]) -> Opts {
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
        engine_threads: 1,
        batch_size: None,
        workload: None,
        metric_rank: false,
        sim_shards: 1,
        racks: 0,
        trace_out: None,
        history: None,
        report_out: None,
        json_out: None,
        permutations: None,
        pvalue: None,
        min_segment: None,
        tenants: 4,
        flood: 0,
        tick_ms: 1000,
        speed: 1.0,
        queue_cap: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |what: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("flag {what} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--fault" => o.fault = Some(parse_fault(val("--fault"))),
            "--slaves" => o.slaves = Some(val("--slaves").parse().unwrap_or_else(|_| usage())),
            "--secs" => o.secs = Some(val("--secs").parse().unwrap_or_else(|_| usage())),
            "--seed" => o.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--runs" => o.runs = Some(val("--runs").parse().unwrap_or_else(|_| usage())),
            "--window" => o.window = Some(val("--window").parse().unwrap_or_else(|_| usage())),
            "--threshold" => {
                o.threshold = Some(val("--threshold").parse().unwrap_or_else(|_| usage()));
            }
            "--k" => o.k = Some(val("--k").parse().unwrap_or_else(|_| usage())),
            "--threads" => o.threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--engine-threads" => {
                o.engine_threads = val("--engine-threads").parse().unwrap_or_else(|_| usage());
            }
            "--batch-size" => {
                o.batch_size = Some(val("--batch-size").parse().unwrap_or_else(|_| usage()));
            }
            "--workload" => o.workload = Some(val("--workload").clone()),
            "--metric-rank" => o.metric_rank = true,
            "--sim-shards" => {
                o.sim_shards = val("--sim-shards").parse().unwrap_or_else(|_| usage());
            }
            "--racks" => o.racks = val("--racks").parse().unwrap_or_else(|_| usage()),
            "--trace-out" => o.trace_out = Some(val("--trace-out").clone()),
            "--history" => o.history = Some(val("--history").clone()),
            "--report" => o.report_out = Some(val("--report").clone()),
            "--json" => o.json_out = Some(val("--json").clone()),
            "--permutations" => {
                o.permutations = Some(val("--permutations").parse().unwrap_or_else(|_| usage()));
            }
            "--pvalue" => o.pvalue = Some(val("--pvalue").parse().unwrap_or_else(|_| usage())),
            "--min-segment" => {
                o.min_segment = Some(val("--min-segment").parse().unwrap_or_else(|_| usage()));
            }
            "--tenants" => o.tenants = val("--tenants").parse().unwrap_or_else(|_| usage()),
            "--flood" => o.flood = val("--flood").parse().unwrap_or_else(|_| usage()),
            "--tick-ms" => o.tick_ms = val("--tick-ms").parse().unwrap_or_else(|_| usage()),
            "--speed" => o.speed = val("--speed").parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => {
                o.queue_cap = Some(val("--queue-cap").parse().unwrap_or_else(|_| usage()));
            }
            other if !other.starts_with("--") && o.file.is_none() => {
                o.file = Some(other.to_owned());
            }
            _ => usage(),
        }
    }
    o
}

impl Opts {
    /// The campaign configuration for the `fig7`/`fig6`/`ablate`
    /// subcommands: smoke scale by default (this is an interactive CLI,
    /// not the harness), with every knob overridable.
    fn campaign(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::smoke();
        cfg.base_seed = self.seed;
        cfg.threads = self.threads;
        cfg.engine_threads = self.engine_threads;
        cfg.sim_shards = self.sim_shards;
        cfg.racks = self.racks;
        if let Some(b) = self.batch_size {
            cfg.batch_size = b;
        }
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
        cfg.workload = self.parse_workload();
        cfg.metric_rank = self.metric_rank;
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

fn cmd_run_config(o: Opts) {
    let path = o.file.clone().unwrap_or_else(|| usage());
    let slaves = o.slaves.unwrap_or(10);
    let secs = o.secs.unwrap_or(1200);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let config: Config = text.parse().unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(1);
    });
    let faults = o
        .fault
        .map(|kind| {
            vec![FaultSpec {
                node: slaves / 2,
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
    println!("{}", asdf::report::render_fig7(&rows));
}

fn cmd_fig6(cfg: &CampaignConfig) {
    eprintln!(
        "[fig6] training on {} nodes x {} s, then {} fault-free run(s) of {} s ...",
        cfg.slaves, cfg.training_secs, cfg.fault_free_runs, cfg.run_secs
    );
    let model = experiments::train_model(cfg);
    let thresholds: Vec<f64> = (0..=14).map(|i| i as f64 * 5.0).collect();
    println!(
        "{}",
        asdf::report::render_sweep(
            "Figure 6(a): black-box false-positive rate vs L1 threshold",
            "threshold",
            &experiments::fig6a(cfg, &model, &thresholds)
        )
    );
    let ks: Vec<f64> = (0..=10).map(|i| i as f64 * 0.5).collect();
    println!(
        "{}",
        asdf::report::render_sweep(
            "Figure 6(b): white-box false-positive rate vs k",
            "k",
            &experiments::fig6b(cfg, &model, &ks)
        )
    );
}

fn cmd_ablate(cfg: &CampaignConfig) {
    use asdf::experiments::AblationKnob;
    let fault = FaultKind::Hadoop1036;
    eprintln!(
        "[ablate] {} nodes, {} s runs, fault {fault}; sweeping window / consecutive ...",
        cfg.slaves, cfg.run_secs
    );
    for (knob, values) in [
        (AblationKnob::Window, &[30.0, 60.0, 120.0][..]),
        (AblationKnob::Consecutive, &[1.0, 2.0, 3.0][..]),
    ] {
        println!("=== {} ===", knob.name());
        for r in experiments::ablate(cfg, knob, values, fault) {
            let lat = r
                .latency
                .map(|s| format!("{s}s"))
                .unwrap_or_else(|| "--".to_owned());
            println!(
                "{:>12} | BA {:>5.1}% | latency {:>6} | FP {:>5.2}%",
                r.value, r.ba_combined, lat, r.fp_rate
            );
        }
    }
}

fn cmd_serve(o: Opts) {
    use asdf::serve::{ServeDaemon, ServeOptions, TenantSpec};
    use asdf_rpc::wire::Handshake;
    use std::time::Duration;

    let slaves = o.slaves.unwrap_or(4);
    let steps = o.secs.unwrap_or(240);
    let flood = o.flood.min(o.tenants);
    let window = o.window.unwrap_or(60);
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
        threshold: o.threshold.unwrap_or(60.0),
        wb_k: o.k.unwrap_or(3.0),
        batch_size: o.batch_size.unwrap_or(64),
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
    for name in &names {
        if !daemon.wait_idle(name, Duration::from_secs(steps * o.tick_ms / 500 + 60)) {
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
    use asdf::perfwatch::{self, AnalyzeOptions};
    let path = o.history.as_deref().unwrap_or("BENCH_history.jsonl");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut opts = AnalyzeOptions::default();
    if let Some(p) = o.permutations {
        opts.detector.permutations = p;
    }
    if let Some(p) = o.pvalue {
        opts.detector.p_threshold = p;
    }
    if let Some(m) = o.min_segment {
        opts.detector.min_segment = m;
    }
    opts.detector.seed = o.seed;
    let report = perfwatch::analyze(&text, &opts).unwrap_or_else(|e| {
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
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "demo" => cmd_demo(opts),
        "dump-config" => cmd_dump_config(opts),
        "run-config" => cmd_run_config(opts),
        "serve" => cmd_serve(opts),
        "perfwatch" => cmd_perfwatch(opts),
        "fig7" | "fig6" | "ablate" => {
            let cfg = opts.campaign();
            let trace_out = opts.trace_out.clone();
            let run: Box<dyn FnOnce()> = match cmd.as_str() {
                "fig7" => Box::new(move || cmd_fig7(&cfg)),
                "fig6" => Box::new(move || cmd_fig6(&cfg)),
                _ => Box::new(move || cmd_ablate(&cfg)),
            };
            with_exporters(trace_out.as_deref(), run);
        }
        _ => usage(),
    }
}
