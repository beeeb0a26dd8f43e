//! One pass of a DAG workload: set up, tick through the monitored seconds,
//! collect the verdicts, and check them.
//!
//! The system is driven only through public functions
//! (`AsdfBuilder::config_with_names`, `Dag::build`, `TickEngine`), exactly as
//! `AsdfBuilder::deploy` drives them, so that set-up can be split into its
//! layers and every module type can be wrapped by [`crate::timed`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asdf::eval::{AnalysisTrace, GroundTruth};
use asdf::experiments::{score_run, RunTraces};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::dag::Dag;
use asdf_core::engine::{TapHandle, TickEngine};
use asdf_core::module::Envelope;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_core::value::Value;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::ClusterHandle;
use asdf_rpc::meter::{process_rss_mb, CpuMeter};
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

use crate::timed::{timed_registry, LayerSnapshot, LayerStats};
use crate::workloads::DagSpec;

/// Envelopes per lane hand-off; the repository's default everywhere.
const BATCH_SIZE: usize = 64;

/// RSS grows with the taps, so it peaks on verdict ticks; reading
/// `/proc/self/statm` after each of `paper50_slide5`'s 709 would show in its
/// wall time, one reading per 20 ms does not.
const RSS_SAMPLE_GAP: Duration = Duration::from_millis(20);

/// Where set-up time went, `Cluster::new` through a tick-ready engine.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub config_gen_s: f64,
    pub dag_build_s: f64,
    pub engine_new_s: f64,
    /// Time inside `Module::init`, traced passes only.
    pub module_init_s: Option<f64>,
    pub instances: usize,
}

/// One engine step of a traced pass: one tick on a serial engine, one
/// `run_for` block on a sharded one.
#[derive(Debug, Clone)]
pub struct StepSpan {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub ticks: u64,
    pub verdict: bool,
    pub layers: LayerSnapshot,
}

/// What a traced pass recorded, all offsets from the start of set-up.
#[derive(Debug, Clone)]
pub struct PassTrace {
    pub types: Vec<String>,
    /// `(name, start_ns, dur_ns)` of the set-up layers.
    pub setup_spans: Vec<(&'static str, u64, u64)>,
    pub setup_ns: u64,
    pub steps: Vec<StepSpan>,
}

/// What the diagnosis concluded, extracted from the taps after timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnosis {
    /// FNV-1a over every tap envelope, taps in a fixed order.
    pub digest: u64,
    /// Verdict rows (node-windows, per path) expected and seen.
    pub rows_expected: u64,
    pub rows_missing_or_extra: u64,
    /// Monitored seconds from injection to the culprit being fingered.
    pub detect_latency_s: Option<u64>,
    /// `score_run`'s combined balanced accuracy; rank-only paths have none.
    pub balanced_accuracy_pct: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct DagPass {
    pub setup: SetupTimes,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Highest RSS seen in the pass, sampled after verdict ticks (at most
    /// every [`RSS_SAMPLE_GAP`]) and when the last tick has returned.
    pub rss_peak_mb: f64,
    /// Wall of every monitored second (a sharded block counts its mean).
    pub tick_ms: Vec<f64>,
    /// Wall of every verdict tick: one after which a tap had grown.
    pub verdict_ms: Vec<f64>,
    pub envelopes_routed: u64,
    pub diagnosis: Diagnosis,
    /// Module failures, and verdicts that surfaced outside a verdict tick.
    pub errors: Vec<String>,
    pub trace: Option<PassTrace>,
}

/// The deployment options `spec` stands for.
pub fn options(spec: &DagSpec) -> AsdfOptions {
    AsdfOptions {
        window: spec.window,
        slide: spec.slide,
        // The paper's 60 at its window of 60: half the largest L1 distance
        // two state histograms of one window can have.
        bb_threshold: spec.window as f64,
        black_box: spec.black_box,
        white_box: spec.white_box,
        metric_rank: spec.metric_rank,
        racks: spec.racks,
        engine_threads: spec.engine_threads,
        batch_size: BATCH_SIZE,
        ..AsdfOptions::default()
    }
}

/// The monitored cluster of `spec`: its nodes, its shards, its one fault.
pub fn cluster(spec: &DagSpec, seed: u64) -> Cluster {
    let mut cc = ClusterConfig::new(spec.nodes, seed);
    cc.sim_shards = spec.sim_shards;
    let fault = FaultSpec {
        node: spec.fault_node,
        kind: FaultKind::DiskHog,
        start_at: spec.fault_at,
    };
    Cluster::new(cc, vec![fault])
}

struct Ready {
    engine: TickEngine,
    taps: Vec<(&'static str, TapHandle)>,
    setup: SetupTimes,
    stats: Option<Arc<LayerStats>>,
    setup_spans: Vec<(&'static str, u64, u64)>,
}

/// `Cluster::new` through a tick-ready engine. With `traced`, every module
/// type is registered behind the `Timed` decorator.
fn set_up(
    spec: &DagSpec,
    seed: u64,
    model: Option<&Arc<BlackBoxModel>>,
    traced: bool,
    epoch: Instant,
) -> Result<Ready, String> {
    let cluster = cluster(spec, seed);
    let names: Vec<String> = (0..spec.nodes)
        .map(|i| cluster.slave_name(i).to_owned())
        .collect();
    let handle = ClusterHandle::new(cluster);
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle);
    let (registry, stats) = if traced {
        let (registry, stats) = timed_registry(registry);
        (registry, Some(stats))
    } else {
        (registry, None)
    };
    let mut builder = AsdfBuilder::new(options(spec));
    if let Some(model) = model.filter(|_| spec.needs_model()) {
        builder = builder.with_model(Arc::clone(model));
    }

    let mut setup_spans = Vec::new();
    let mut layer = |name, start: Instant| {
        let dur = start.elapsed();
        setup_spans.push((
            name,
            start.duration_since(epoch).as_nanos() as u64,
            dur.as_nanos() as u64,
        ));
        dur.as_secs_f64()
    };
    let start = Instant::now();
    let config = builder.config_with_names(&names);
    let config_gen_s = layer("config_gen", start);
    let start = Instant::now();
    let dag = Dag::build(&registry, &config).map_err(|e| format!("DAG build failed: {e}"))?;
    let dag_build_s = layer("dag_build", start);
    let start = Instant::now();
    let mut engine = TickEngine::with_threads(dag, spec.engine_threads);
    engine.set_batch_size(BATCH_SIZE);
    let mut taps = Vec::new();
    for (id, _) in spec.taps() {
        let tap = engine.tap(id).ok_or(format!("no `{id}` instance to tap"))?;
        taps.push((id, tap));
    }
    let engine_new_s = layer("engine_new", start);

    Ok(Ready {
        engine,
        taps,
        setup: SetupTimes {
            total_s: epoch.elapsed().as_secs_f64(),
            config_gen_s,
            dag_build_s,
            engine_new_s,
            module_init_s: stats.as_ref().map(|s| s.init_ns() as f64 / 1e9),
            instances: config.instances().len(),
        },
        stats,
        setup_spans,
    })
}

/// Only the set-up of a pass, for `setup_s` samples between passes.
pub fn set_up_only(
    spec: &DagSpec,
    seed: u64,
    model: Option<&Arc<BlackBoxModel>>,
) -> Result<SetupTimes, String> {
    set_up(spec, seed, model, false, Instant::now()).map(|ready| ready.setup)
}

/// Runs one whole pass. `traced` wraps the modules and records step spans.
pub fn run_pass(
    spec: &DagSpec,
    seed: u64,
    model: Option<&Arc<BlackBoxModel>>,
    traced: bool,
) -> Result<DagPass, String> {
    let epoch = Instant::now();
    let Ready {
        mut engine,
        taps,
        setup,
        stats,
        setup_spans,
    } = set_up(spec, seed, model, traced, epoch)?;
    let setup_ns = epoch.elapsed().as_nanos() as u64;

    let sharded = spec.engine_threads > 1;
    let slide = spec.slide as u64;
    let tap_total = |taps: &[(&str, TapHandle)]| taps.iter().map(|(_, t)| t.len()).sum::<usize>();
    let mut tick_ms = Vec::with_capacity(spec.monitored_s as usize);
    let mut verdict_ms = Vec::new();
    let mut errors = Vec::new();
    let mut steps = Vec::new();
    let mut seen = 0;
    let mut before = stats.as_ref().map(|s| s.snapshot());
    let mut rss_peak_mb = 0.0f64;
    let mut rss_sampled = Instant::now();

    let meter = CpuMeter::start();
    let mut t = 0;
    while t < spec.monitored_s {
        // `tick()` is always serial; a sharded engine only shards inside
        // `run_for`, whose workers live for one call. So a sharded pass
        // advances in blocks that stop one second short of each slide
        // boundary, then takes the boundary second — the verdict tick —
        // alone, and a serial pass takes every second alone.
        let ticks = if sharded && t % slide < slide - 1 {
            (slide - 1 - t % slide).min(spec.monitored_s - t)
        } else {
            1
        };
        let start = Instant::now();
        let result = if sharded {
            engine.run_for(TickDuration::from_secs(ticks))
        } else {
            engine.tick()
        };
        let dur = start.elapsed();
        if let Err(e) = result {
            errors.push(format!("module error at t={t}: {e}"));
            break;
        }
        let ms = dur.as_secs_f64() * 1e3;
        tick_ms.extend(std::iter::repeat_n(ms / ticks as f64, ticks as usize));
        let total = tap_total(&taps);
        let verdict = total > seen;
        seen = total;
        if verdict && rss_sampled.elapsed() >= RSS_SAMPLE_GAP {
            rss_peak_mb = rss_peak_mb.max(process_rss_mb().unwrap_or(0.0));
            rss_sampled = Instant::now();
        }
        if verdict && ticks == 1 {
            verdict_ms.push(ms);
        } else if verdict {
            errors.push(format!(
                "verdict surfaced inside the {ticks}-second block at t={t}"
            ));
        }
        if let (Some(stats), Some(prev)) = (&stats, &mut before) {
            let now = stats.snapshot();
            steps.push(StepSpan {
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                ticks,
                verdict,
                layers: now.since(prev),
            });
            *prev = now;
        }
        t += ticks;
    }
    let (wall_s, cpu_s) = (meter.elapsed_wall(), meter.elapsed_cpu());
    rss_peak_mb = rss_peak_mb.max(process_rss_mb().unwrap_or(0.0));

    let envelopes_routed = engine.envelopes_routed();
    let drained: Vec<(&str, Vec<Envelope>)> =
        taps.iter().map(|(id, tap)| (*id, tap.drain())).collect();
    Ok(DagPass {
        setup,
        wall_s,
        cpu_s,
        rss_peak_mb,
        tick_ms,
        verdict_ms,
        envelopes_routed,
        diagnosis: diagnose(spec, &drained),
        errors,
        trace: stats.map(|stats| PassTrace {
            types: stats.types().to_vec(),
            setup_spans,
            setup_ns,
            steps,
        }),
    })
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds one envelope in: its port, timestamp and value, bit for bit.
    pub fn envelope(&mut self, env: &Envelope) {
        self.str(&env.source.instance);
        self.str(&env.source.name);
        self.str(&env.source.origin);
        self.u64(env.sample.timestamp.as_secs());
        match &env.sample.value {
            Value::Float(x) => {
                self.bytes(b"f");
                self.u64(x.to_bits());
            }
            Value::Int(x) => {
                self.bytes(b"i");
                self.u64(*x as u64);
            }
            Value::Bool(x) => self.bytes(if *x { b"T" } else { b"F" }),
            Value::Text(s) => {
                self.bytes(b"t");
                self.str(s);
            }
            Value::Vector(v) => {
                self.bytes(b"v");
                self.u64(v.len() as u64);
                for x in v.iter() {
                    self.u64(x.to_bits());
                }
            }
        }
    }
}

fn tap<'a>(taps: &'a [(&str, Vec<Envelope>)], id: &str) -> &'a [Envelope] {
    taps.iter()
        .find(|(tap_id, _)| *tap_id == id)
        .map_or(&[], |(_, envs)| envs)
}

/// Counts, digests and scores the drained taps.
fn diagnose(spec: &DagSpec, taps: &[(&str, Vec<Envelope>)]) -> Diagnosis {
    let mut digest = Fnv::default();
    let mut rows_expected = 0;
    let mut rows_off = 0;
    for (id, per_row) in spec.taps() {
        let envs = tap(taps, id);
        let expected = spec.nodes as u64 * spec.windows();
        rows_expected += expected;
        rows_off += (expected * per_row)
            .abs_diff(envs.len() as u64)
            .div_ceil(per_row);
        envs.iter().for_each(|e| digest.envelope(e));
    }
    let truth = GroundTruth {
        culprit: Some(spec.fault_node),
        injected_at: spec.fault_at,
    };
    let (detect_latency_s, balanced_accuracy_pct) = if spec.black_box && spec.white_box {
        let trace = |id, score| AnalysisTrace::from_envelopes(tap(taps, id), spec.nodes, score);
        let traces = RunTraces {
            bb: trace("bb", "dist"),
            wb: trace("wb_tt", "kcrit").merge_max(&trace("wb_dn", "kcrit")),
            truth,
            metric_ranks: None,
        };
        let scored = score_run(&traces, FaultKind::DiskHog);
        (scored.lat_combined, Some(scored.ba_combined))
    } else {
        (rank_detect_latency(tap(taps, "mr"), truth), None)
    };
    Diagnosis {
        digest: digest.0,
        rows_expected,
        rows_missing_or_extra: rows_off,
        detect_latency_s,
        balanced_accuracy_pct,
    }
}

/// On the rank path a window fingers the node whose top metric deviates
/// most; the latency runs from injection to the first window that fingers
/// the culprit.
fn rank_detect_latency(mr: &[Envelope], truth: GroundTruth) -> Option<u64> {
    let culprit = truth.culprit?;
    // Window end → (highest top score, its node); ties keep the lower node.
    let mut fingered: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for env in mr {
        let node: usize = env.source.name.strip_prefix("rank")?.parse().ok()?;
        let score = *env.sample.value.as_vector()?.get(1)?;
        let best = fingered
            .entry(env.sample.timestamp.as_secs())
            .or_insert((f64::NEG_INFINITY, usize::MAX));
        if score > best.0 || (score == best.0 && node < best.1) {
            *best = (score, node);
        }
    }
    fingered
        .into_iter()
        .find(|(t, (_, node))| *t >= truth.injected_at && *node == culprit)
        .map(|(t, _)| t - truth.injected_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{train, workloads, Kind};

    fn smoke_spec(name: &str) -> DagSpec {
        match workloads(true).into_iter().find(|w| w.name == name) {
            Some(Workload {
                kind: Kind::Dag(spec),
                ..
            }) => spec,
            _ => panic!("no DAG workload `{name}`"),
        }
    }
    use crate::workloads::Workload;

    /// A 6-node DAG with every analysis path, built behind the `Timed`
    /// decorator and driven tick by tick, must leave in its taps exactly
    /// what `AsdfBuilder::deploy` + `run_for` leaves.
    #[test]
    fn timed_decorator_and_tick_driver_are_transparent() {
        let spec = DagSpec {
            nodes: 6,
            fault_node: 3,
            monitored_s: 60,
            ..smoke_spec("paper50_slide5")
        };
        let model = train(5, true);
        let mut deployed = AsdfBuilder::new(options(&spec))
            .with_model(Arc::clone(&model))
            .deploy(cluster(&spec, 5))
            .expect("deploys");
        deployed.run_for(spec.monitored_s);
        let drained: Vec<(&str, Vec<Envelope>)> = spec
            .taps()
            .iter()
            .map(|(id, _)| (*id, deployed.tap(id).expect("tap").drain()))
            .collect();
        let reference = diagnose(&spec, &drained);
        assert!(reference.rows_expected > 0);
        assert_eq!(reference.rows_missing_or_extra, 0);

        for traced in [false, true] {
            let pass = run_pass(&spec, 5, Some(&model), traced).expect("pass runs");
            assert_eq!(pass.errors, Vec::<String>::new());
            assert_eq!(pass.diagnosis, reference, "traced = {traced}");
            assert_eq!(pass.tick_ms.len() as u64, spec.monitored_s);
            assert_eq!(pass.verdict_ms.len() as u64, spec.windows());
            assert_eq!(pass.trace.is_some(), traced);
        }
    }

    /// The block-then-verdict-tick stepping of a sharded engine sees every
    /// verdict on a single tick and ranks exactly as the serial engine.
    #[test]
    fn sharded_stepping_matches_serial() {
        let sharded = smoke_spec("fleet5000_rank_mt");
        assert!(sharded.engine_threads > 1 && sharded.sim_shards > 1);
        let serial = smoke_spec("fleet5000_rank");
        let a = run_pass(&serial, 9, None, false).expect("serial pass");
        let b = run_pass(&sharded, 9, None, true).expect("sharded pass");
        assert_eq!(b.errors, Vec::<String>::new());
        assert_eq!(a.diagnosis, b.diagnosis);
        assert_eq!(b.verdict_ms.len() as u64, sharded.windows());
        assert!(a.diagnosis.detect_latency_s.is_some(), "culprit fingered");
    }

    #[test]
    fn digest_tells_values_and_ports_apart() {
        use asdf_core::module::OutputMeta;
        use asdf_core::time::Timestamp;
        use asdf_core::value::Sample;
        let env = |name: &str, t: u64, value: Value| Envelope {
            source: Arc::new(OutputMeta {
                instance: "mr".into(),
                name: name.into(),
                origin: "slave00".into(),
            }),
            sample: Sample {
                timestamp: Timestamp::from_secs(t),
                value,
            },
        };
        let digest = |envs: &[Envelope]| {
            let mut fnv = Fnv::default();
            envs.iter().for_each(|e| fnv.envelope(e));
            fnv.0
        };
        let base = digest(&[env("rank0", 59, Value::Vector(vec![1.0, 2.0].into()))]);
        assert_eq!(
            base,
            digest(&[env("rank0", 59, Value::Vector(vec![1.0, 2.0].into()))])
        );
        assert_ne!(
            base,
            digest(&[env("rank1", 59, Value::Vector(vec![1.0, 2.0].into()))])
        );
        assert_ne!(
            base,
            digest(&[env("rank0", 60, Value::Vector(vec![1.0, 2.0].into()))])
        );
        assert_ne!(
            base,
            digest(&[env("rank0", 59, Value::Vector(vec![1.0, -2.0].into()))])
        );
        assert_ne!(base, digest(&[env("rank0", 59, Value::Float(1.0))]));
    }
}
