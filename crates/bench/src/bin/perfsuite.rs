//! One-shot performance suite: times the smoke evaluation campaign end to
//! end (serial vs. the worker pool) plus the hot analysis and parsing
//! kernels, and writes machine-readable results to `BENCH_campaign.json`
//! at the repository root.
//!
//! Usage: `cargo run -p bench --bin perfsuite --release [-- --threads N]`
//!
//! Unlike `asdfbench` (alternating pairs with quartiles, minutes-long),
//! this suite is a quick regression tripwire: one warm run per
//! measurement, wall-clock seconds, a single JSON artifact that diffs
//! cleanly across commits.
//!
//! A breached performance gate does not stop the run: it is recorded as
//! `false` in the artifact (and counted into the history row's
//! `gates_breached`), every later section is still measured, both files are
//! written, and only then does the suite exit non-zero, listing every
//! breach. Correctness checks (determinism, stream equality) still panic on
//! the spot — a run that computed the wrong thing has nothing worth keeping.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use asdf::experiments::{self, CampaignConfig, Workload};
use asdf::perfwatch::history;
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_modules::kernel;
use asdf_modules::training::BlackBoxModel;
use hadoop_logs::LogParser;
use hadoop_sim::faults::FaultKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 120;
const N_STATES: usize = 12;

/// Columnar-lane workload shape: one collector-scale burst of `BATCH_BURST`
/// rows x `BATCH_DIM` columns per tick, `BATCH_TICKS` ticks per run.
/// 120 columns is the real `sadc` snapshot width (64 CPU + 18 I/O + 2x19
/// network fields), so each row is byte-for-byte the shape the campaign's
/// hottest edges carry.
const BATCH_DIM: usize = DIM;
const BATCH_BURST: usize = 256;
const BATCH_TICKS: u64 = 400;

/// Bursty row producer for the batching sweep: each tick emits
/// `BATCH_BURST` deterministic sadc-shaped rows through `emit_row`, the
/// same columnar entry point the collectors use.
struct RowSource {
    out: Option<PortId>,
    count: u64,
    row: Vec<f64>,
}

impl Module for RowSource {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.out = Some(ctx.declare_output("out"));
        self.row = vec![0.0; BATCH_DIM];
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for _ in 0..BATCH_BURST {
            // Deterministic drift: one field moves per sample, like a
            // mostly-steady sadc snapshot. Generation stays a few ns/row
            // so the sweep times the engine and the analysis modules, not
            // the synthetic load.
            self.count += 1;
            let j = (self.count % BATCH_DIM as u64) as usize;
            self.row[j] = (self.count.wrapping_mul(31) % 997) as f64 * 0.25;
            ctx.emit_row(self.out.unwrap(), &self.row);
        }
        Ok(())
    }
}

/// Terminal consumer of the classifier stream (keeps the `knn` output edge
/// live without accumulating envelopes).
struct DiscardSink;

impl Module for DiscardSink {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        ctx.set_input_trigger(1);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        ctx.discard_pending();
        Ok(())
    }
}

fn batch_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    asdf_modules::register_analysis_modules(&mut reg);
    reg.register("rowsrc", || {
        Box::new(RowSource {
            out: None,
            count: 0,
            row: Vec::new(),
        })
    });
    reg.register("rowsink", || Box::new(DiscardSink));
    reg
}

/// Campaign-shaped classifier model at collector width for the batching
/// sweep (same 120-dim synthetic distribution the kernel section times).
fn batch_model() -> BlackBoxModel {
    BlackBoxModel::fit(&training_set(1_000), N_STATES, 1)
}

/// One timed run of the row workload on the tick engine at the given batch
/// size; returns (envelopes/sec through the source edge, envelopes routed).
///
/// The routed count is batch-invariant — rows count as one envelope each
/// whether they travel materialized or as shared blocks — so callers
/// cross-check it between batch sizes as a cheap workload-identity assert
/// (the differential suite owns the bitwise stream comparison).
fn batched_rows_per_sec(cfg_text: &str, batch: usize) -> (f64, u64) {
    let cfg: Config = cfg_text.parse().expect("row workload config parses");
    let dag = Dag::build(&batch_registry(), &cfg).expect("row workload builds");
    let mut engine = TickEngine::new(dag);
    engine.set_batch_size(batch);
    let start = Instant::now();
    engine
        .run_for(TickDuration::from_secs(BATCH_TICKS))
        .expect("row workload runs");
    let secs = start.elapsed().as_secs_f64();
    let routed = engine.envelopes_routed();
    assert!(routed > 0, "row workload routed nothing");
    let rows = BATCH_BURST as u64 * BATCH_TICKS;
    (rows as f64 / secs.max(1e-9), routed)
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

/// Times one smoke campaign (train + fig6a sweep + fig7) and returns its
/// results so the caller can check pool runs against the serial run.
fn campaign(cfg: &CampaignConfig) -> (f64, Vec<(f64, f64)>, Vec<experiments::FaultResult>) {
    let start = Instant::now();
    let model = experiments::train_model(cfg);
    let sweep = experiments::fig6a(cfg, &model, &[0.0, 25.0, 50.0]);
    let rows = experiments::fig7(cfg, &model);
    (start.elapsed().as_secs_f64(), sweep, rows)
}

fn synthetic_log_lines(n_tasks: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(n_tasks * 2);
    for i in 0..n_tasks {
        lines.push(format!(
            "2008-04-15 14:23:15,324 INFO org.apache.hadoop.mapred.TaskTracker: \
             LaunchTaskAction: task_0001_m_{i:06}_0"
        ));
        lines.push(format!(
            "2008-04-15 14:23:55,101 INFO org.apache.hadoop.mapred.TaskTracker: \
             Task task_0001_m_{i:06}_0 is done."
        ));
    }
    lines
}

fn main() {
    let (_, threads) = bench::secs_and_threads_from_iter("perfsuite", 0, std::env::args().skip(1));
    // One line per breached gate, reported after the artifacts are written.
    let mut breaches: Vec<String> = Vec::new();

    // --- Campaign wall-clock: serial vs worker pool -----------------------
    let serial_cfg = CampaignConfig {
        threads: 1,
        ..CampaignConfig::smoke()
    };
    let pool_cfg = CampaignConfig {
        threads,
        ..CampaignConfig::smoke()
    };
    let workers = asdf::campaign::resolve_threads(pool_cfg.threads);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("[perfsuite] smoke campaign, serial ...");
    let (serial_secs, serial_sweep, serial_rows) = campaign(&serial_cfg);
    eprintln!("[perfsuite] smoke campaign, {workers} worker(s) ...");
    let (mut pool_secs, pool_sweep, pool_rows) = campaign(&pool_cfg);
    let deterministic = serial_rows == pool_rows && serial_sweep == pool_sweep;
    assert!(deterministic, "worker pool changed campaign results");
    // Pool-speedup expectation: the campaign fans independent runs across
    // the worker pool, so on a multi-core host the pooled run must beat
    // serial. Skipped (values still recorded) on 1 core, where workers
    // only add scheduling overhead. One re-measure of the pooled side
    // before failing — background load inflates it, a regression persists.
    const POOL_GATE: f64 = 1.2;
    let pool_gate_skipped = cores == 1;
    if !pool_gate_skipped && serial_secs / pool_secs.max(1e-9) < POOL_GATE {
        eprintln!(
            "[perfsuite] measured {:.3}x pool speedup, re-measuring to rule out noise ...",
            serial_secs / pool_secs.max(1e-9)
        );
        let (retry_secs, retry_sweep, retry_rows) = campaign(&pool_cfg);
        assert!(
            serial_rows == retry_rows && serial_sweep == retry_sweep,
            "worker pool changed campaign results on re-measure"
        );
        pool_secs = pool_secs.min(retry_secs);
    }
    let pool_speedup = serial_secs / pool_secs.max(1e-9);
    let pool_gate = pool_gate_skipped || pool_speedup >= POOL_GATE;
    if pool_gate_skipped {
        eprintln!(
            "[perfsuite] 1 core available — {POOL_GATE}x pool speedup expectation \
             skipped, values recorded"
        );
    }
    if !pool_gate {
        breaches.push(format!(
            "campaign pool speedup {pool_speedup:.3}x below the {POOL_GATE}x expectation \
             with {workers} workers on {cores} cores"
        ));
    }

    // --- Instrumentation self-overhead ------------------------------------
    // ASDF-on-ASDF: the observability layer must cost <1% of campaign
    // wall-clock. Paired on/off runs with a median-of-deltas estimator
    // isolate the instrumentation from scheduler noise; the gate is
    // checked here so a regression fails the suite, not just skews a
    // number. An apparent breach is re-measured (up to twice, keeping the
    // smallest estimate — noise only ever inflates the delta) before
    // failing: a background-load burst can fake >1%, but a real regression
    // shows up in every measurement.
    eprintln!("[perfsuite] instrumentation self-overhead ...");
    let mut ovh = experiments::self_overhead(&serial_cfg, 30);
    for _ in 0..2 {
        if ovh.overhead_pct() < 1.0 {
            break;
        }
        eprintln!(
            "[perfsuite] measured {:.3}%, re-measuring to rule out a noise burst ...",
            ovh.overhead_pct()
        );
        let retry = experiments::self_overhead(&serial_cfg, 30);
        if retry.overhead_pct() < ovh.overhead_pct() {
            ovh = retry;
        }
    }
    let overhead_pct = ovh.overhead_pct();
    // Two gates, reported separately so the JSON never conflates them: the
    // <1% soft gate is the paper-style recorded target, the <5% hard gate
    // is what this suite actually enforces (see the check below).
    let within_soft_gate = overhead_pct < 1.0;
    let within_hard_gate = overhead_pct < 5.0;
    eprintln!(
        "[perfsuite] obs on {:.4}s / off {:.4}s -> {overhead_pct:.3}% overhead \
         (soft <1% target: {}; hard <5% gate: {})",
        ovh.on_secs,
        ovh.off_secs,
        if within_soft_gate { "met" } else { "missed" },
        if within_hard_gate {
            "pass"
        } else {
            "FAIL (enforced)"
        }
    );
    // <1% is the recorded target; the hard gate sits at 5% because the
    // estimator carries a launch-to-launch systematic bias of up to ~3% on
    // a 1-core virtualized box (allocation layout shifts which atomics
    // share cache lines; stable within a process, random across launches
    // — the same binary measures anywhere from 0% to ~3% across runs).
    // A real instrumentation regression lands well past 5%.
    if !within_hard_gate {
        breaches.push(format!(
            "instrumentation self-overhead {overhead_pct:.3}% breaches the 5% hard gate \
             (on {:.4}s vs off {:.4}s; recorded target <1%)",
            ovh.on_secs, ovh.off_secs
        ));
    }

    // --- Sharded tick engine: thread sweep --------------------------------
    // One evaluation run at the fig7 cluster size for each engine worker
    // count in {1, 2, 4} (1 is the serial path). Streams must be identical
    // at every count (the differential suite's invariant, re-checked here
    // on the timed runs). Two gates, by core count:
    //   * 1 core: the sharded engine's coordination overhead must stay
    //     within 1.3x of serial (uncontended locks + lazy worker wake).
    //     The bound was 1.15x before batched columnar lanes sped the
    //     serial denominator up ~25%; the same absolute coordination
    //     cost now reads as a higher ratio, so the gate is recalibrated
    //     (absolute sharded wall-clock improved as well);
    //   * >= 4 cores: 4 engine workers must deliver >= 1.5x speedup.
    eprintln!("[perfsuite] sharded engine, threads {{1, 2, 4}} ...");
    const ENGINE_THREADS: [usize; 3] = [1, 2, 4];
    let engine_model = experiments::train_model(&serial_cfg);
    let engine_run = |threads: usize| {
        let cfg = CampaignConfig {
            engine_threads: threads,
            ..serial_cfg.clone()
        };
        let start = Instant::now();
        let tr = experiments::run_once(
            &cfg,
            &engine_model,
            Some(hadoop_sim::faults::FaultKind::Hadoop1036),
            cfg.base_seed + 77,
        );
        (start.elapsed().as_secs_f64(), tr)
    };
    // Warm caches with one untimed run so the sweep is comparable.
    engine_run(1);
    let measure_sweep = || -> [f64; 3] {
        let (serial_secs, serial_tr) = engine_run(ENGINE_THREADS[0]);
        let mut secs = [serial_secs, 0.0, 0.0];
        for (slot, &threads) in ENGINE_THREADS.iter().enumerate().skip(1) {
            let (s, tr) = engine_run(threads);
            assert!(
                serial_tr.bb == tr.bb && serial_tr.wb == tr.wb,
                "sharded engine changed analysis traces at {threads} threads"
            );
            secs[slot] = s;
        }
        secs
    };
    let mut engine_secs = measure_sweep();
    let overhead = |secs: &[f64; 3]| secs[2] / secs[0].max(1e-9);
    // Up to two re-measures before failing the 1-core gate, keeping the
    // per-thread minima: background load only ever adds time, so the
    // minimum is the best estimator of true cost, while a real regression
    // inflates the 4-thread column in every re-measure.
    for _ in 0..2 {
        if cores > 1 || overhead(&engine_secs) <= 1.3 {
            break;
        }
        eprintln!(
            "[perfsuite] measured {:.3}x 1-core overhead, re-measuring to rule out noise ...",
            overhead(&engine_secs)
        );
        for (best, s) in engine_secs.iter_mut().zip(measure_sweep()) {
            *best = best.min(s);
        }
    }
    let engine_speedup = engine_secs[0] / engine_secs[2].max(1e-9);
    let engine_overhead = overhead(&engine_secs);
    eprintln!(
        "[perfsuite] engine: serial {:.3}s, 2 threads {:.3}s, 4 threads {:.3}s \
         -> {engine_speedup:.3}x on {cores} core(s)",
        engine_secs[0], engine_secs[1], engine_secs[2]
    );
    let one_core_gate = cores > 1 || engine_overhead <= 1.3;
    if !one_core_gate {
        breaches.push(format!(
            "1-core sharded overhead {engine_overhead:.3}x breaches the 1.3x gate \
             (serial {:.3}s vs 4 threads {:.3}s)",
            engine_secs[0], engine_secs[2]
        ));
    }
    if cores >= 4 {
        if engine_speedup < 1.5 {
            breaches.push(format!(
                "sharded engine speedup {engine_speedup:.3}x below the 1.5x gate \
                 at 4 threads on {cores} cores"
            ));
        }
    } else {
        eprintln!(
            "[perfsuite] {cores} core(s) available — speedup recorded, \
             1.5x gate applies at >= 4 cores only"
        );
    }

    // --- Batched columnar lanes: envelopes/sec sweep ----------------------
    // The campaign's analysis chain at collector scale: bursts of 256
    // sadc-width rows (120 columns) per tick, emitted through `emit_row`,
    // feeding `mavgvec` windows whose means feed the `knn` classifier. At
    // batch size 1 every row materializes into its own envelope and walks
    // the per-sample path — one 120-f64 allocation, one queue op, and one
    // module dispatch per sample; at larger batch sizes whole row blocks
    // travel each lane as one shared allocation and both consumers buffer
    // or scan them columnar. The differential suite proves the two paths
    // bitwise identical; this section times them. Gate: batch 64 must
    // deliver >= 1.5x per-sample throughput. The bound was 2x while a lane
    // was a 16-slot ring: a 256-row burst at batch 1 overflowed it by 240
    // heap nodes per tick, which the batched path never paid. Lanes are a
    // locked `Vec` now, the per-sample *denominator* got faster (2.75 ->
    // ~3.1 M env/s) with batch 64 level at 5.6-5.7 M, so the same batched
    // throughput reads as ~1.8x — the situation that moved the one-core
    // bound above from 1.15x to 1.3x. 1.5x still fails if batching stops
    // paying for itself; both absolute rates are recorded beside the ratio.
    eprintln!("[perfsuite] batched columnar lanes, batch {{1, 16, 64, 256}} ...");
    const BATCHES: [usize; 4] = [1, 16, 64, 256];
    const BATCH_GATE: f64 = 1.5;
    let row_model = batch_model();
    let row_cfg = format!(
        "[rowsrc]\nid = src\n\n\
         [mavgvec]\nid = avg\nwindow = 60\nemit = mean\ninput[input] = src.out\n\n\
         [knn]\nid = nn\ncentroids = {}\nstddev = {}\ninput[input] = avg.mean\n\n\
         [rowsink]\nid = sink\ninput[input] = nn.output0\n",
        row_model.centroids_param(),
        row_model.stddev_param()
    );
    let (_, routed_expect) = batched_rows_per_sec(&row_cfg, 64); // warm
    let mut batch_rates = [0f64; 4];
    // Interleaved best-of rounds: background load only ever subtracts
    // throughput, so the per-batch maximum over rounds is the best
    // estimator of true cost on a noisy box.
    let sweep_round = |best: &mut [f64; 4]| {
        for (slot, &batch) in BATCHES.iter().enumerate() {
            let (rate, routed) = batched_rows_per_sec(&row_cfg, batch);
            assert_eq!(
                routed, routed_expect,
                "batch size {batch} changed the routed-envelope count"
            );
            best[slot] = best[slot].max(rate);
        }
    };
    for _ in 0..4 {
        sweep_round(&mut batch_rates);
    }
    // Up to two extra rounds before failing the gate: a load burst can
    // fake a miss, but a real regression survives every re-measure.
    for _ in 0..2 {
        if batch_rates[2] / batch_rates[0].max(1e-9) >= BATCH_GATE {
            break;
        }
        eprintln!(
            "[perfsuite] measured {:.3}x batch-64 speedup, re-measuring to rule out noise ...",
            batch_rates[2] / batch_rates[0].max(1e-9)
        );
        sweep_round(&mut batch_rates);
    }
    let batch_speedup = batch_rates[2] / batch_rates[0].max(1e-9);
    let batch_gate = batch_speedup >= BATCH_GATE;
    eprintln!(
        "[perfsuite] batching: b1 {:.2}M/s, b16 {:.2}M/s, b64 {:.2}M/s, b256 {:.2}M/s \
         -> {batch_speedup:.3}x at batch 64",
        batch_rates[0] / 1e6,
        batch_rates[1] / 1e6,
        batch_rates[2] / 1e6,
        batch_rates[3] / 1e6
    );
    if !batch_gate {
        breaches.push(format!(
            "batched columnar throughput {batch_speedup:.3}x below the {BATCH_GATE}x gate at \
             batch 64 (per-sample {:.0} env/s vs batched {:.0} env/s)",
            batch_rates[0], batch_rates[2]
        ));
    }

    // --- Multi-tenant serve soak ------------------------------------------
    // The `asdf serve` acceptance gate: 8 concurrent tenants at 1x pacing
    // (seven paced, one flooding behind a deliberately tiny queue) share
    // one daemon process. Three properties are enforced, not just
    // recorded:
    //   * every healthy tenant's scheduler-lag watermark stays <= 2 ticks
    //     (per-tenant engines own their lag — nobody inherits the
    //     flooder's backlog);
    //   * the flooding tenant sheds (shed-oldest backpressure engages)
    //     while no healthy tenant sheds a single frame;
    //   * process RSS stays under a fixed ceiling — a long-lived daemon
    //     must not grow with offered load.
    eprintln!("[perfsuite] multi-tenant serve soak, 8 tenants ...");
    const SERVE_TENANTS: u64 = 7;
    const SERVE_STEPS: u64 = 120;
    const SERVE_TICK_MS: u64 = 20;
    const SERVE_LAG_GATE_TICKS: i64 = 2;
    const SERVE_RSS_CEILING_MB: f64 = 2048.0;
    let serve_opts = asdf::ServeOptions {
        wall_per_tick: std::time::Duration::from_millis(SERVE_TICK_MS),
        speed: 1.0,
        window: 20,
        slide: 20,
        white_box: false,
        ..asdf::ServeOptions::default()
    };
    let serve_soak = || -> (i64, u64, f64) {
        let mut daemon = asdf::ServeDaemon::new(engine_model.clone(), serve_opts.clone());
        for seed in 1..=SERVE_TENANTS {
            daemon
                .join_tenant(
                    asdf_rpc::Handshake::new(format!("soak{seed:02}")).encode(),
                    asdf::TenantSpec::paced(seed, SERVE_STEPS),
                )
                .expect("soak tenant joins");
        }
        daemon
            .join_tenant(
                asdf_rpc::Handshake::new("flood").encode(),
                asdf::TenantSpec {
                    queue_capacity: Some(32),
                    ..asdf::TenantSpec::flooding(99, SERVE_STEPS * 4)
                },
            )
            .expect("flooding tenant joins");
        for tenant in daemon.tenants() {
            assert!(
                daemon.wait_idle(&tenant, std::time::Duration::from_secs(120)),
                "serve tenant `{tenant}` did not finish streaming"
            );
        }
        // Sample RSS while all 8 engines and their queues are still live;
        // after shutdown the number would flatter the daemon.
        let rss_mb = asdf_rpc::meter::process_rss_mb().unwrap_or(0.0);
        let reports = daemon.shutdown().expect("serve soak shuts down cleanly");
        let mut lag_max = 0i64;
        let mut flood_shed = 0u64;
        for report in &reports {
            if report.tenant == "flood" {
                flood_shed = report.shed;
                continue;
            }
            assert_eq!(
                report.shed, 0,
                "healthy tenant {} shed frames during the soak",
                report.tenant
            );
            // 120 steps / slide 20 = 6 evaluations x 4 nodes x (alarm +
            // dist): graceful shutdown must flush the exact count.
            assert_eq!(
                report.bb_alarms.len(),
                (SERVE_STEPS / 20 * 4 * 2) as usize,
                "healthy tenant {} lost envelopes",
                report.tenant
            );
            lag_max = lag_max.max(report.lag_watermark);
        }
        assert!(
            flood_shed > 0,
            "flooding tenant behind a 32-frame queue must shed"
        );
        (lag_max, flood_shed, rss_mb)
    };
    let (mut serve_lag, mut serve_flood_shed, mut serve_rss) = serve_soak();
    // Up to two re-measures before failing the lag gate, keeping the run
    // with the smallest watermark: a scheduler-noise burst inflates one
    // run, a real pacing regression inflates every run.
    for _ in 0..2 {
        if serve_lag <= SERVE_LAG_GATE_TICKS {
            break;
        }
        eprintln!(
            "[perfsuite] measured lag watermark {serve_lag} ticks, \
             re-measuring to rule out noise ..."
        );
        let (lag, shed, rss) = serve_soak();
        if lag < serve_lag {
            (serve_lag, serve_flood_shed, serve_rss) = (lag, shed, rss);
        }
    }
    let serve_lag_gate = serve_lag <= SERVE_LAG_GATE_TICKS;
    let serve_rss_gate = serve_rss < SERVE_RSS_CEILING_MB;
    eprintln!(
        "[perfsuite] serve: lag watermark {serve_lag} tick(s), flood shed \
         {serve_flood_shed}, rss {serve_rss:.1} MB"
    );
    if !serve_lag_gate {
        breaches.push(format!(
            "serve soak lag watermark {serve_lag} ticks breaches the \
             {SERVE_LAG_GATE_TICKS}-tick gate ({SERVE_TENANTS} paced tenants + \
             1 flooder at {SERVE_TICK_MS} ms/tick)"
        ));
    }
    if !serve_rss_gate {
        breaches.push(format!(
            "serve soak RSS {serve_rss:.1} MB breaches the \
             {SERVE_RSS_CEILING_MB} MB ceiling"
        ));
    }

    // --- Widened fault matrix: per-scenario accuracy ----------------------
    // One evaluation run per (new fault kind, workload) at the smoke
    // campaign scale: balanced-accuracy and fingerpointing-latency rows
    // covering the widened matrix on both the GridMix synthesis and the
    // deterministic trace replay. Not gated — the rows are the artifact,
    // and `asdf perfwatch` tracks their drift across commits.
    eprintln!("[perfsuite] widened fault matrix scenarios ...");
    let trace = std::sync::Arc::new(
        hadoop_sim::Trace::parse_str(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/sample_trace.csv"
        )))
        .expect("sample trace parses"),
    );
    let scenario_workloads: [(&str, Workload); 2] = [
        ("gridmix", Workload::GridMix),
        ("trace", Workload::Trace(trace)),
    ];
    let mut scenario_rows: Vec<(&str, experiments::FaultResult)> = Vec::new();
    for (wname, workload) in &scenario_workloads {
        let cfg = CampaignConfig {
            workload: workload.clone(),
            ..serial_cfg.clone()
        };
        let scen_model = experiments::train_model(&cfg);
        for fault in FaultKind::EXTENDED {
            let tr = experiments::run_once(&cfg, &scen_model, Some(fault), cfg.base_seed + 3000);
            let row = experiments::score_run(&tr, fault);
            eprintln!(
                "[perfsuite]   {} on {wname}: ba_all {:.1}%, latency {:?}",
                fault.name(),
                row.ba_combined,
                row.lat_combined
            );
            scenario_rows.push((wname, row));
        }
    }

    // --- Fleet-scale simulation and diagnosis -----------------------------
    // The sharded simulator and the rack tree-reduce make fleet sizes
    // tractable: per size, raw sim ticks/sec serial vs sharded (the
    // sharded run's frames are cross-checked against the serial run's —
    // the differential suite owns the full bitwise sweep), then the
    // end-to-end diagnosis latency of a ranking-only deployment (sim +
    // collectors + per-rack tree-reduce + rack-mode metric_rank) through
    // its first full evaluation window. Gate: at 500 nodes the sharded
    // sim must deliver >= 2x serial ticks/sec — enforced on multi-core
    // hosts, skipped (values still recorded) on 1 core where no shard
    // count can speed anything up.
    eprintln!("[perfsuite] fleet-scale simulation, {{50, 500, 5000}} nodes ...");
    const FLEET_SIZES: [(usize, u64); 3] = [(50, 3000), (500, 600), (5000, 40)];
    const FLEET_WINDOW: usize = 60;
    const FLEET_GATE_NODES: usize = 500;
    const FLEET_SIM_GATE: f64 = 2.0;
    let fleet_sim = |nodes: usize, ticks: u64| -> (f64, f64) {
        let run = |shards: usize| {
            let mut cc = hadoop_sim::ClusterConfig::new(nodes, 42);
            cc.sim_shards = shards;
            let mut cluster = hadoop_sim::Cluster::new(cc, Vec::new());
            let start = Instant::now();
            cluster.advance(ticks);
            let secs = start.elapsed().as_secs_f64();
            let frame = cluster.latest_frame(nodes - 1).cloned();
            (ticks as f64 / secs.max(1e-9), frame)
        };
        let (serial_tps, serial_frame) = run(1);
        let (sharded_tps, sharded_frame) = run(0);
        assert_eq!(
            serial_frame, sharded_frame,
            "sharded simulation diverged at {nodes} nodes"
        );
        (serial_tps, sharded_tps)
    };
    let fleet_diagnose = |nodes: usize| -> (f64, usize, usize) {
        let racks = nodes.div_ceil(20);
        let mut cc = hadoop_sim::ClusterConfig::new(nodes, 42);
        cc.sim_shards = 0;
        let cluster = hadoop_sim::Cluster::new(cc, Vec::new());
        let start = Instant::now();
        let mut dep = asdf::pipeline::AsdfBuilder::new(asdf::pipeline::AsdfOptions {
            black_box: false,
            white_box: false,
            metric_rank: true,
            window: FLEET_WINDOW,
            slide: FLEET_WINDOW,
            racks,
            engine_threads: 0,
            ..asdf::pipeline::AsdfOptions::default()
        })
        .deploy(cluster)
        .expect("fleet deployment builds");
        dep.run_for(FLEET_WINDOW as u64);
        let rankings = dep.tap("mr").expect("mr tap").drain().len();
        let secs = start.elapsed().as_secs_f64();
        assert!(
            rankings >= nodes,
            "fleet diagnosis must rank every node at {nodes} nodes \
             (got {rankings} rankings)"
        );
        (secs, rankings, racks)
    };
    // (nodes, racks, serial ticks/s, sharded ticks/s, diag latency secs).
    let mut fleet_rows: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    for (nodes, ticks) in FLEET_SIZES {
        let (mut serial_tps, mut sharded_tps) = fleet_sim(nodes, ticks);
        // Up to two re-measures before failing the 500-node gate, keeping
        // the per-side maxima: background load only ever subtracts
        // throughput, while a real regression depresses the sharded side
        // in every round.
        for _ in 0..2 {
            if nodes != FLEET_GATE_NODES
                || cores == 1
                || sharded_tps / serial_tps.max(1e-9) >= FLEET_SIM_GATE
            {
                break;
            }
            eprintln!(
                "[perfsuite] measured {:.3}x fleet sim speedup, re-measuring to \
                 rule out noise ...",
                sharded_tps / serial_tps.max(1e-9)
            );
            let (s, p) = fleet_sim(nodes, ticks);
            serial_tps = serial_tps.max(s);
            sharded_tps = sharded_tps.max(p);
        }
        let (diag_secs, rankings, racks) = fleet_diagnose(nodes);
        eprintln!(
            "[perfsuite]   {nodes} nodes: sim {serial_tps:.0} -> {sharded_tps:.0} ticks/s \
             ({:.3}x), diagnosis {diag_secs:.3}s ({racks} racks, {rankings} rankings)",
            sharded_tps / serial_tps.max(1e-9)
        );
        fleet_rows.push((nodes, racks, serial_tps, sharded_tps, diag_secs));
    }
    let fleet_speedup = fleet_rows
        .iter()
        .find(|r| r.0 == FLEET_GATE_NODES)
        .map(|r| r.3 / r.2.max(1e-9))
        .expect("gate size measured");
    let fleet_gate_skipped = cores == 1;
    let fleet_gate = fleet_gate_skipped || fleet_speedup >= FLEET_SIM_GATE;
    if fleet_gate_skipped {
        eprintln!(
            "[perfsuite] 1 core available — {FLEET_SIM_GATE}x fleet sim gate skipped, \
             values recorded"
        );
    }
    if !fleet_gate {
        breaches.push(format!(
            "sharded fleet sim speedup {fleet_speedup:.3}x below the {FLEET_SIM_GATE}x gate \
             at {FLEET_GATE_NODES} nodes on {cores} cores"
        ));
    }

    // --- Analysis kernels -------------------------------------------------
    eprintln!("[perfsuite] analysis kernels ...");
    let data = training_set(4_000);
    let model = BlackBoxModel::fit(&data, N_STATES, 1);
    let sample = data[17].clone();
    // Ragged copy of the centroid matrix: the storage shape the
    // `CentroidBlock` redesign replaced, kept as the baseline side of the
    // scalar-vs-SIMD comparison below.
    let ragged: Vec<Vec<f64>> = model.centroids.to_rows();
    // Reference implementation (what the optimized paths replaced): full
    // distance recomputed for both sides of every `min_by` comparison.
    // Kept here so the JSON shows the kernel speedup, not just a number.
    let naive_dist2 =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
    // The scan row's baseline: one left-to-right accumulator over a ragged
    // row, early exit checked every 16 components — the hot path before
    // `CentroidBlock` and the 4-lane fold.
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
    let naive_ns = time_ns(20_000, || {
        let x = asdf_modules::training::scale_log(std::hint::black_box(&sample), &model.stddev);
        let best = ragged
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                naive_dist2(&x, a)
                    .partial_cmp(&naive_dist2(&x, b))
                    .expect("finite")
            })
            .map(|(i, _)| i);
        std::hint::black_box(best);
    });
    let model_ns = time_ns(20_000, || {
        std::hint::black_box(model.classify(std::hint::black_box(&sample)));
    });
    let mut ctx = model.clone().into_classifier();
    let ctx_ns = time_ns(20_000, || {
        std::hint::black_box(ctx.classify(std::hint::black_box(&sample)));
    });
    let mut ranked = Vec::new();
    let ctx_k3_ns = time_ns(20_000, || {
        ctx.classify_k_into(std::hint::black_box(&sample), 3, &mut ranked);
        std::hint::black_box(ranked.last());
    });

    // --- Scalar vs SIMD nearest-centroid scan -----------------------------
    // The gated comparison: the pre-`CentroidBlock` hot path (early-exit
    // left-to-right `ragged_dist2_bounded` over `Vec<Vec<f64>>` rows)
    // against the fused 4-lane `argmin_dist2` over the contiguous block,
    // on the same pre-scaled 120-dim query. Both sides are single-thread
    // and share the early-exit discipline, so the ratio isolates the lane
    // accumulators plus the contiguous row layout.
    eprintln!("[perfsuite] scalar vs SIMD {DIM}-dim centroid scan ...");
    let scaled_q = asdf_modules::training::scale_log(&sample, &model.stddev);
    let padded_q = kernel::PaddedVec::from_slice(&scaled_q);
    let measure_scan = || {
        let scalar_ns = time_ns(100_000, || {
            let q: &[f64] = std::hint::black_box(&scaled_q);
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (i, c) in ragged.iter().enumerate() {
                let d = ragged_dist2_bounded(q, c, best_d);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            std::hint::black_box(best);
        });
        let simd_ns = time_ns(100_000, || {
            let best =
                kernel::argmin_dist2(std::hint::black_box(padded_q.as_padded()), &model.centroids);
            std::hint::black_box(best);
        });
        (scalar_ns, simd_ns)
    };
    // Gate at 1.3x, not the ~3x seen on a host whose compiler leaves the
    // reference loop scalar: LLVM auto-vectorizes the "scalar" fold on
    // wide-SIMD targets, compressing the ratio to ~1.6-1.8x while both
    // absolute timings improve. The gate protects against the explicit
    // kernel regressing toward parity, not a host-specific ratio.
    const SCAN_GATE: f64 = 1.3;
    let (mut scan_scalar_ns, mut scan_simd_ns) = measure_scan();
    let mut scan_speedup = scan_scalar_ns / scan_simd_ns.max(1e-9);
    if scan_speedup < SCAN_GATE {
        // Re-measure once before failing: a background-load burst can fake
        // a miss, but a real regression shows up in both measurements.
        eprintln!("[perfsuite] measured {scan_speedup:.3}x, re-measuring to rule out noise ...");
        let (s, v) = measure_scan();
        if s / v.max(1e-9) > scan_speedup {
            (scan_scalar_ns, scan_simd_ns) = (s, v);
            scan_speedup = s / v.max(1e-9);
        }
    }
    let scan_gate = scan_speedup >= SCAN_GATE;
    eprintln!(
        "[perfsuite] scan: scalar {scan_scalar_ns:.1}ns, simd {scan_simd_ns:.1}ns \
         -> {scan_speedup:.3}x"
    );
    if !scan_gate {
        breaches.push(format!(
            "SIMD centroid scan speedup {scan_speedup:.3}x below the {SCAN_GATE}x gate \
             ({DIM}-dim, {N_STATES} centroids: scalar {scan_scalar_ns:.1}ns vs \
             simd {scan_simd_ns:.1}ns)"
        ));
    }

    // --- Log-parser kernel ------------------------------------------------
    eprintln!("[perfsuite] log parser ...");
    let lines = synthetic_log_lines(50_000);
    let mut parser = LogParser::new();
    let start = Instant::now();
    for line in &lines {
        parser.feed_line(line);
    }
    let parse_secs = start.elapsed().as_secs_f64();
    let lines_per_sec = lines.len() as f64 / parse_secs;
    assert_eq!(parser.live_instances(), 0, "all tasks should have finished");

    // --- Report -----------------------------------------------------------
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"suite\": \"perfsuite\",").unwrap();
    writeln!(json, "  \"workers\": {workers},").unwrap();
    writeln!(json, "  \"campaign\": {{").unwrap();
    writeln!(json, "    \"cores\": {cores},").unwrap();
    writeln!(json, "    \"serial_secs\": {serial_secs:.3},").unwrap();
    writeln!(json, "    \"pool_secs\": {pool_secs:.3},").unwrap();
    writeln!(json, "    \"speedup\": {pool_speedup:.3},").unwrap();
    writeln!(json, "    \"pool_gate_1_2x\": {pool_gate},").unwrap();
    writeln!(
        json,
        "    \"pool_gate_skipped_1core\": {pool_gate_skipped},"
    )
    .unwrap();
    writeln!(json, "    \"deterministic\": {deterministic}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"observability\": {{").unwrap();
    writeln!(json, "    \"obs_on_secs\": {:.4},", ovh.on_secs).unwrap();
    writeln!(json, "    \"obs_off_secs\": {:.4},", ovh.off_secs).unwrap();
    writeln!(json, "    \"overhead_pct\": {overhead_pct:.3},").unwrap();
    writeln!(json, "    \"within_soft_gate_1pct\": {within_soft_gate},").unwrap();
    writeln!(json, "    \"within_hard_gate_5pct\": {within_hard_gate}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"engine\": {{").unwrap();
    writeln!(json, "    \"cores\": {cores},").unwrap();
    writeln!(json, "    \"slaves\": {},", serial_cfg.slaves).unwrap();
    writeln!(json, "    \"run_secs\": {},", serial_cfg.run_secs).unwrap();
    writeln!(json, "    \"serial_secs\": {:.3},", engine_secs[0]).unwrap();
    writeln!(json, "    \"sharded_secs_t2\": {:.3},", engine_secs[1]).unwrap();
    writeln!(json, "    \"sharded_secs_t4\": {:.3},", engine_secs[2]).unwrap();
    writeln!(json, "    \"speedup_t4\": {engine_speedup:.3},").unwrap();
    writeln!(json, "    \"overhead_1core\": {engine_overhead:.3},").unwrap();
    writeln!(json, "    \"one_core_gate_1_3x\": {one_core_gate},").unwrap();
    writeln!(json, "    \"deterministic\": true").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"batching\": {{").unwrap();
    writeln!(json, "    \"dim\": {BATCH_DIM},").unwrap();
    writeln!(json, "    \"burst\": {BATCH_BURST},").unwrap();
    writeln!(json, "    \"ticks\": {BATCH_TICKS},").unwrap();
    writeln!(json, "    \"envelopes_per_sec_b1\": {:.0},", batch_rates[0]).unwrap();
    writeln!(
        json,
        "    \"envelopes_per_sec_b16\": {:.0},",
        batch_rates[1]
    )
    .unwrap();
    writeln!(
        json,
        "    \"envelopes_per_sec_b64\": {:.0},",
        batch_rates[2]
    )
    .unwrap();
    writeln!(
        json,
        "    \"envelopes_per_sec_b256\": {:.0},",
        batch_rates[3]
    )
    .unwrap();
    writeln!(json, "    \"speedup_b64\": {batch_speedup:.3},").unwrap();
    writeln!(json, "    \"gate_1_5x\": {batch_gate}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"serve\": {{").unwrap();
    writeln!(json, "    \"tenants\": {},", SERVE_TENANTS + 1).unwrap();
    writeln!(json, "    \"steps\": {SERVE_STEPS},").unwrap();
    writeln!(json, "    \"wall_per_tick_ms\": {SERVE_TICK_MS},").unwrap();
    writeln!(json, "    \"lag_watermark_ticks\": {serve_lag},").unwrap();
    writeln!(json, "    \"lag_gate_2ticks\": {serve_lag_gate},").unwrap();
    writeln!(json, "    \"flood_shed_frames\": {serve_flood_shed},").unwrap();
    writeln!(json, "    \"rss_mb\": {serve_rss:.1},").unwrap();
    writeln!(json, "    \"rss_ceiling_mb\": {SERVE_RSS_CEILING_MB:.0},").unwrap();
    writeln!(json, "    \"rss_gate\": {serve_rss_gate}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"scenarios\": [").unwrap();
    for (i, (wname, r)) in scenario_rows.iter().enumerate() {
        let lat = |l: Option<u64>| l.map_or("null".to_owned(), |v| v.to_string());
        writeln!(
            json,
            "    {{\"fault\": \"{}\", \"workload\": \"{wname}\", \
             \"ba_bb\": {:.3}, \"ba_wb\": {:.3}, \"ba_all\": {:.3}, \
             \"lat_bb\": {}, \"lat_wb\": {}, \"lat_all\": {}}}{}",
            r.fault.name(),
            r.ba_black_box,
            r.ba_white_box,
            r.ba_combined,
            lat(r.lat_black_box),
            lat(r.lat_white_box),
            lat(r.lat_combined),
            if i + 1 < scenario_rows.len() { "," } else { "" },
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"fleet\": {{").unwrap();
    writeln!(json, "    \"window_secs\": {FLEET_WINDOW},").unwrap();
    writeln!(json, "    \"sim_gate_nodes\": {FLEET_GATE_NODES},").unwrap();
    writeln!(json, "    \"sim_speedup_gate_nodes\": {fleet_speedup:.3},").unwrap();
    writeln!(json, "    \"sim_gate_2x\": {fleet_gate},").unwrap();
    writeln!(
        json,
        "    \"sim_gate_skipped_1core\": {fleet_gate_skipped},"
    )
    .unwrap();
    writeln!(json, "    \"sizes\": [").unwrap();
    for (i, (nodes, racks, serial_tps, sharded_tps, diag_secs)) in fleet_rows.iter().enumerate() {
        writeln!(
            json,
            "      {{\"nodes\": {nodes}, \"racks\": {racks}, \
             \"sim_ticks_per_sec_serial\": {serial_tps:.1}, \
             \"sim_ticks_per_sec_sharded\": {sharded_tps:.1}, \
             \"sim_speedup\": {:.3}, \
             \"diag_latency_secs\": {diag_secs:.3}}}{}",
            sharded_tps / serial_tps.max(1e-9),
            if i + 1 < fleet_rows.len() { "," } else { "" },
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"kernels\": {{").unwrap();
    writeln!(json, "    \"dim\": {DIM},").unwrap();
    writeln!(json, "    \"n_states\": {N_STATES},").unwrap();
    writeln!(json, "    \"scan_scalar_ns\": {scan_scalar_ns:.1},").unwrap();
    writeln!(json, "    \"scan_simd_ns\": {scan_simd_ns:.1},").unwrap();
    writeln!(json, "    \"scan_speedup\": {scan_speedup:.3},").unwrap();
    writeln!(json, "    \"scan_gate_1_3x\": {scan_gate},").unwrap();
    writeln!(json, "    \"classify_1nn_naive_ns\": {naive_ns:.1},").unwrap();
    writeln!(json, "    \"classify_1nn_model_ns\": {model_ns:.1},").unwrap();
    writeln!(json, "    \"classify_1nn_context_ns\": {ctx_ns:.1},").unwrap();
    writeln!(json, "    \"classify_k3_context_ns\": {ctx_k3_ns:.1},").unwrap();
    writeln!(json, "    \"parser_lines_per_sec\": {lines_per_sec:.0}").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    // CARGO_MANIFEST_DIR is crates/bench; the artifact lives at the root.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(out, &json).expect("write BENCH_campaign.json");
    println!("{json}");
    eprintln!("[perfsuite] wrote {out}");

    // Append one schema-versioned record to the BENCH time series: the
    // input `asdf perfwatch` watches for regressions. Every run carries
    // its commit, UTC timestamp, host fingerprint, and the digest of the
    // full observability snapshot alongside every section metric, so the
    // series stays attributable across commits and hosts (the campaign
    // artifact above is overwritten every run; the history only grows).
    let ts_epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let metrics: std::collections::BTreeMap<String, f64> = [
        ("campaign_serial_secs", round3(serial_secs)),
        ("campaign_pool_secs", round3(pool_secs)),
        (
            "campaign_speedup",
            round3(serial_secs / pool_secs.max(1e-9)),
        ),
        ("obs_overhead_pct", round3(overhead_pct)),
        ("engine_serial_secs", round3(engine_secs[0])),
        ("engine_sharded_secs_t2", round3(engine_secs[1])),
        ("engine_sharded_secs_t4", round3(engine_secs[2])),
        ("engine_speedup_t4", round3(engine_speedup)),
        ("engine_overhead_1core", round3(engine_overhead)),
        ("envelopes_per_sec_b1", batch_rates[0].round()),
        ("envelopes_per_sec_b16", batch_rates[1].round()),
        ("envelopes_per_sec_b64", batch_rates[2].round()),
        ("envelopes_per_sec_b256", batch_rates[3].round()),
        ("batch_speedup_b64", round3(batch_speedup)),
        ("serve_lag_watermark_ticks", serve_lag as f64),
        ("serve_flood_shed_frames", serve_flood_shed as f64),
        ("serve_rss_mb", round3(serve_rss)),
        ("scan_scalar_ns", round3(scan_scalar_ns)),
        ("scan_simd_ns", round3(scan_simd_ns)),
        ("scan_speedup", round3(scan_speedup)),
        ("classify_1nn_naive_ns", round3(naive_ns)),
        ("classify_1nn_model_ns", round3(model_ns)),
        ("classify_1nn_context_ns", round3(ctx_ns)),
        ("classify_k3_context_ns", round3(ctx_k3_ns)),
        ("parser_lines_per_sec", lines_per_sec.round()),
        ("gates_breached", breaches.len() as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .chain(
        fleet_rows
            .iter()
            .flat_map(|&(nodes, _, serial_tps, sharded_tps, diag_secs)| {
                [
                    (format!("fleet_sim_tps_serial_n{nodes}"), round3(serial_tps)),
                    (
                        format!("fleet_sim_tps_sharded_n{nodes}"),
                        round3(sharded_tps),
                    ),
                    (
                        format!("fleet_diag_latency_secs_n{nodes}"),
                        round3(diag_secs),
                    ),
                ]
            })
            .chain([("fleet_sim_speedup_n500".to_owned(), round3(fleet_speedup))]),
    )
    .chain(scenario_rows.iter().map(|(wname, r)| {
        (
            format!(
                "scenario_{}_{wname}_ba_all",
                r.fault.name().to_lowercase().replace('-', "_")
            ),
            round3(r.ba_combined),
        )
    }))
    .collect();
    let record = history::HistoryRecord {
        schema: history::HISTORY_SCHEMA,
        ts_epoch_secs: ts_epoch,
        utc: history::utc_from_epoch(ts_epoch),
        commit: current_commit(),
        cores,
        simd: kernel::simd_dispatch().to_owned(),
        workers,
        metrics,
        obs_digest: Some(asdf_obs::snapshot_digest(&asdf_obs::registry().snapshot())),
    };
    // BENCH_HISTORY overrides the destination (CI appends to a cached
    // artifact rather than the working tree).
    let default_hist = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let hist = std::env::var("BENCH_HISTORY").unwrap_or_else(|_| default_hist.to_owned());
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&hist)
        .expect("open BENCH_history.jsonl");
    writeln!(file, "{}", history::render_record(&record)).expect("append BENCH_history.jsonl");
    eprintln!("[perfsuite] appended {hist}");

    if !breaches.is_empty() {
        eprintln!(
            "[perfsuite] FAILED: {} gate(s) breached (both artifacts written):",
            breaches.len()
        );
        for b in &breaches {
            eprintln!("[perfsuite]   - {b}");
        }
        std::process::exit(1);
    }
}

/// Three-decimal rounding for history metrics, mirroring the `{:.3}`
/// precision the campaign artifact records.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The commit hash to stamp into the history record: `BENCH_COMMIT`
/// (explicit override) or `GITHUB_SHA` (CI) if set, else `git rev-parse`,
/// else `unknown` — never a failure, benches must run from tarballs too.
fn current_commit() -> String {
    for var in ["BENCH_COMMIT", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            if !v.trim().is_empty() {
                return v.trim().to_owned();
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
