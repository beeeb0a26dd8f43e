//! The test harness behind `stream_equivalence` and `golden_figures`.
//!
//! Three layers of helpers:
//!
//! * **synthetic DAGs** — order-sensitive [`Module`] implementations
//!   (`pulse`, `mix`) plus a seeded random layered-DAG generator, so pinned
//!   digests hold the engine to its streams over arbitrary shapes.
//!   The `mix` module folds everything it receives through a
//!   non-commutative hash of (slot, value, timestamp, source instance):
//!   *any* reordering, duplication, or loss anywhere upstream changes
//!   every downstream value.
//! * **pipeline capture** — deploy the paper's full fingerpointing DAG and
//!   return every analysis tap's raw envelope stream.
//! * **stable JSON** — render fig6/fig7 campaign summaries with explicit,
//!   locale-free formatting so golden fixtures compare byte-for-byte.

use std::sync::Arc;

use asdf::experiments::{self, CampaignConfig, FaultResult, Workload};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::{TapHandle, TickEngine};
use asdf_core::error::ModuleError;
use asdf_core::module::{Envelope, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_core::value::Value;
use asdf_modules::training::BlackBoxModel;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::FaultKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Periodic source: every `period` seconds emits `burst` consecutive
/// counter values, so one run hands its consumers several envelopes.
struct Pulse {
    port: Option<PortId>,
    count: i64,
    burst: i64,
}

impl Module for Pulse {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output("out"));
        self.burst = ctx.parse_param_or("burst", 1)?;
        let period = ctx.parse_param_or("period", 1u64)?;
        ctx.request_periodic(TickDuration::from_secs(period));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for _ in 0..self.burst {
            self.count += 1;
            ctx.emit(self.port.unwrap(), self.count);
        }
        Ok(())
    }
}

/// Order-sensitive fan-in: folds every received envelope into a running
/// non-commutative hash and emits the fold after each triggered run.
struct Mix {
    port: Option<PortId>,
    state: i64,
}

impl Module for Mix {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output("out"));
        let trigger = ctx.parse_param_or("trigger", 1usize)?;
        ctx.set_input_trigger(trigger);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for (slot, env) in ctx.take_all() {
            // Multiply-then-add: position-dependent, so swapping any two
            // envelopes changes the fold.
            self.state = self
                .state
                .wrapping_mul(0x0100_0000_01b3)
                .wrapping_add(slot as i64)
                .wrapping_add(env.sample.value.as_int().unwrap_or(0))
                .wrapping_add(env.sample.timestamp.as_secs() as i64);
            for b in env.source.instance.bytes() {
                self.state = self.state.wrapping_mul(131).wrapping_add(i64::from(b));
            }
        }
        ctx.emit(self.port.unwrap(), self.state);
        Ok(())
    }
}

/// Registry holding the synthetic harness modules.
pub fn synthetic_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    reg.register("pulse", || {
        Box::new(Pulse {
            port: None,
            count: 0,
            burst: 1,
        })
    });
    reg.register("mix", || {
        Box::new(Mix {
            port: None,
            state: 0,
        })
    });
    reg
}

/// Generates a random layered DAG over the synthetic modules, in the
/// engine's config dialect. Same seed, same text.
///
/// Shape: 1–3 `pulse` roots (random periods and burst sizes), then 1–3
/// further layers of 1–3 `mix` nodes, each wired to 1–3 distinct nodes
/// from any earlier layer with a random input trigger. Everything about
/// the result — fan-out, fan-in width, trigger batching, multi-envelope
/// runs — varies with the seed.
pub fn random_dag_config(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = String::new();
    // Node ids by layer, flattened as the candidate-upstream pool.
    let mut pool: Vec<String> = Vec::new();
    let n_roots = rng.gen_range(1..=3);
    for r in 0..n_roots {
        let id = format!("p{r}");
        text.push_str(&format!(
            "[pulse]\nid = {id}\nperiod = {}\nburst = {}\n\n",
            rng.gen_range(1..=3u64),
            rng.gen_range(1..=3u64),
        ));
        pool.push(id);
    }
    let layers = rng.gen_range(1..=3);
    let mut next = 0usize;
    for _ in 0..layers {
        let width = rng.gen_range(1..=3);
        let mut added = Vec::new();
        for _ in 0..width {
            let id = format!("m{next}");
            next += 1;
            let n_inputs = rng.gen_range(1..=pool.len().min(3));
            // Sample distinct upstreams (slots must be uniquely named,
            // and re-reading one upstream adds nothing).
            let mut ups = pool.clone();
            let mut line = format!(
                "[mix]\nid = {id}\ntrigger = {}\n",
                rng.gen_range(1..=4usize)
            );
            for slot in 0..n_inputs {
                let pick = rng.gen_range(0..ups.len());
                let up = ups.swap_remove(pick);
                line.push_str(&format!("input[i{slot}] = {up}.out\n"));
            }
            line.push('\n');
            text.push_str(&line);
            added.push(id);
        }
        pool.extend(added);
    }
    text
}

/// A broadcast-heavy synthetic DAG: one `pulse` root fanning out to
/// `consumers` independent `mix` nodes (each on its own edge), with
/// seed-varied period/burst/trigger parameters. This is the shape that
/// maximizes single-producer fan-out — every emission is routed once per
/// consumer — and the worst case for envelope-snapshot broadcasting.
pub fn broadcast_config(consumers: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = format!(
        "[pulse]\nid = root\nperiod = {}\nburst = {}\n\n",
        rng.gen_range(1..=2u64),
        rng.gen_range(1..=3u64),
    );
    for c in 0..consumers {
        text.push_str(&format!(
            "[mix]\nid = fan{c}\ntrigger = {}\ninput[i] = root.out\n\n",
            rng.gen_range(1..=3usize),
        ));
    }
    text
}

/// Every instance id declared in `config_text`, in declaration order.
pub fn instance_ids(config_text: &str) -> Vec<String> {
    let cfg: Config = config_text.parse().expect("harness config parses");
    cfg.instances().iter().map(|i| i.id.clone()).collect()
}

/// Runs a synthetic config for `ticks` seconds with every instance tapped;
/// returns the per-instance envelope streams in declaration order.
pub fn run_synthetic(config_text: &str, ticks: u64) -> Vec<Vec<Envelope>> {
    let cfg: Config = config_text.parse().expect("harness config parses");
    let dag = Dag::build(&synthetic_registry(), &cfg).expect("harness DAG builds");
    let mut engine = TickEngine::new(dag);
    let taps: Vec<TapHandle> = instance_ids(config_text)
        .iter()
        .map(|id| engine.tap(id).expect("every declared instance exists"))
        .collect();
    engine
        .run_for(TickDuration::from_secs(ticks))
        .expect("synthetic DAGs never fail");
    taps.iter().map(TapHandle::drain).collect()
}

/// A campaign configuration small enough for differential and golden
/// tests (5 slaves, 8 minutes), still large enough that both analysis
/// paths produce multiple windows and real alarms.
pub fn small_campaign() -> CampaignConfig {
    CampaignConfig {
        slaves: 5,
        run_secs: 480,
        injection_at: 150,
        fault_node: 2,
        window: 30,
        training_secs: 300,
        fault_free_runs: 1,
        fault_runs: 1,
        consecutive: 2,
        bb_threshold: 50.0,
        base_seed: 11,
        ..CampaignConfig::default()
    }
}

/// The analysis-tap ids of a two-path deployment.
pub const ANALYSIS_TAPS: [&str; 3] = ["bb", "wb_tt", "wb_dn"];

/// Deploys the full fingerpointing pipeline over a fresh simulated
/// cluster and returns each analysis tap's raw envelope stream — what the
/// equivalence suite pins and compares bitwise.
///
/// Honors the campaign's workload (GridMix or trace replay) and, when
/// [`CampaignConfig::metric_rank`] is set, appends the `mr` tap's stream
/// after the three analysis taps.
pub fn pipeline_streams(
    cfg: &CampaignConfig,
    model: &Arc<BlackBoxModel>,
    fault: Option<FaultKind>,
    seed: u64,
) -> Vec<Vec<Envelope>> {
    let faults = fault
        .map(|kind| {
            vec![hadoop_sim::faults::FaultSpec {
                node: cfg.fault_node,
                kind,
                start_at: cfg.injection_at,
            }]
        })
        .unwrap_or_default();
    let mut cc = ClusterConfig::new(cfg.slaves, seed);
    if let Workload::Trace(trace) = &cfg.workload {
        cc.trace = Some(Arc::clone(trace));
    }
    let cluster = Cluster::new(cc, faults);
    let mut dep = AsdfBuilder::new(AsdfOptions {
        window: cfg.window,
        slide: cfg.window,
        bb_threshold: cfg.bb_threshold,
        wb_k: cfg.wb_k,
        consecutive: cfg.consecutive,
        metric_rank: cfg.metric_rank,
        racks: cfg.racks,
        ..AsdfOptions::default()
    })
    .with_model(Arc::clone(model))
    .deploy(cluster)
    .expect("harness pipeline deploys");
    dep.run_for(cfg.run_secs);
    let mut taps: Vec<&str> = ANALYSIS_TAPS.to_vec();
    if cfg.metric_rank {
        taps.push("mr");
    }
    taps.iter()
        .map(|id| dep.tap(id).expect("tapped stage built").drain())
        .collect()
}

/// FNV-1a (64 bit) over every field of `streams`, stream by stream: each
/// stream's length, then per envelope its instance, port and origin, its
/// timestamp, and its value's type and bits. A pinned constant of this
/// fold holds a stream to the bit without a second engine to compare with.
pub fn fnv1a(streams: &[Vec<Envelope>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for stream in streams {
        eat(&(stream.len() as u64).to_le_bytes());
        for env in stream {
            for s in [&env.source.instance, &env.source.name, &env.source.origin] {
                eat(s.as_bytes());
                eat(&[0]);
            }
            eat(&env.sample.timestamp.as_secs().to_le_bytes());
            match &env.sample.value {
                Value::Float(x) => {
                    eat(b"f");
                    eat(&x.to_bits().to_le_bytes());
                }
                Value::Int(x) => {
                    eat(b"i");
                    eat(&x.to_le_bytes());
                }
                Value::Bool(x) => eat(if *x { b"T" } else { b"F" }),
                Value::Text(s) => {
                    eat(b"t");
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Vector(v) => {
                    eat(b"v");
                    eat(&(v.len() as u64).to_le_bytes());
                    v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes()));
                }
            }
        }
    }
    h
}

/// Loads the checked-in sample job trace
/// (`tests/fixtures/sample_trace.csv`) behind an [`Arc`] for sharing
/// across runs.
pub fn sample_trace() -> Arc<hadoop_sim::Trace> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("sample_trace.csv");
    Arc::new(hadoop_sim::Trace::load(&path).expect("sample trace parses"))
}

/// The qualified metric names matching the flattened `sadc` vector, by
/// rendering one frame of a throwaway single-node cluster (the frame
/// layout is fixed, so any frame yields the canonical names).
pub fn metric_names() -> Vec<String> {
    let mut cluster = Cluster::new(ClusterConfig::new(1, 1), Vec::new());
    cluster.tick();
    cluster
        .latest_frame(0)
        .expect("one tick renders a frame")
        .flat_names()
}

/// Renders one fault-scenario run — its accuracy row plus the faulty
/// node's top-ranked metrics — as deterministic JSON for golden
/// fixtures.
pub fn render_scenario_json(r: &FaultResult, top_metrics: &[(String, f64)]) -> String {
    let lat = |l: Option<u64>| l.map_or("null".to_owned(), |v| v.to_string());
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"fault\": \"{}\",\n  \"ba_bb\": {:?},\n  \"ba_wb\": {:?},\n  \"ba_all\": {:?},\n  \
         \"lat_bb\": {},\n  \"lat_wb\": {},\n  \"lat_all\": {},\n  \"top_metrics\": [\n",
        r.fault.name(),
        r.ba_black_box,
        r.ba_white_box,
        r.ba_combined,
        lat(r.lat_black_box),
        lat(r.lat_white_box),
        lat(r.lat_combined),
    ));
    for (i, (name, score)) in top_metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"metric\": \"{name}\", \"dev\": {score:?}}}{}\n",
            if i + 1 < top_metrics.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders fig7 rows as deterministic JSON (f64s via Rust's shortest
/// round-trip formatting; key order fixed).
pub fn render_fig7_json(rows: &[FaultResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let lat = |l: Option<u64>| l.map_or("null".to_owned(), |v| v.to_string());
        out.push_str(&format!(
            "  {{\"fault\": \"{}\", \"ba_bb\": {:?}, \"ba_wb\": {:?}, \"ba_all\": {:?}, \
             \"lat_bb\": {}, \"lat_wb\": {}, \"lat_all\": {}}}{}\n",
            r.fault.name(),
            r.ba_black_box,
            r.ba_white_box,
            r.ba_combined,
            lat(r.lat_black_box),
            lat(r.lat_white_box),
            lat(r.lat_combined),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders fig6 sweep pairs as deterministic JSON.
pub fn render_sweep_json(xlabel: &str, sweep: &[(f64, f64)]) -> String {
    let mut out = String::from("[\n");
    for (i, (x, fp)) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"{xlabel}\": {x:?}, \"fp_pct\": {fp:?}}}{}\n",
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Compares `rendered` against the checked-in fixture at
/// `tests/fixtures/<name>`, or rewrites the fixture when the
/// `UPDATE_FIXTURES` environment variable is set.
///
/// # Panics
///
/// Panics (failing the calling test) on any drift, with both versions in
/// the message.
pub fn assert_matches_fixture(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&path, rendered).expect("fixture is writable");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_FIXTURES=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        want, rendered,
        "campaign summary drifted from fixture {name}; if the change is \
         intended, regenerate with UPDATE_FIXTURES=1"
    );
}

/// Trains the small-campaign model once per process and shares it.
pub fn small_model(cfg: &CampaignConfig) -> Arc<BlackBoxModel> {
    experiments::train_model(cfg)
}
