//! The long-lived multi-tenant diagnosis daemon behind `asdf serve`.
//!
//! Batch campaigns build a pipeline, drain it, and exit; the paper's
//! deployment model is the opposite — a control node that keeps running
//! while many monitored clusters stream samples at it. [`ServeDaemon`]
//! reproduces that: each monitored cluster is a **tenant** that joins with
//! a versioned wire [`Handshake`], streams a `sadc` / `hadoop_log` /
//! `strace` frame a second — a **stream-second**, every node's row in a rack
//! collector's layout, whole or absent — over the length-prefixed wire
//! format into a bounded per-tenant ingress queue, and is diagnosed by its
//! own [`OnlineEngine`] (`AsdfBuilder`'s DAG for one rack, seven instances
//! at any size, on the tick engine behind one pacer thread) — all inside
//! one process.
//!
//! The serve model handles the messy parts a batch run never sees:
//!
//! * **Backpressure** — each tenant's ingress queue is bounded in
//!   node-samples; a flooding tenant sheds its *oldest* frames (freshest
//!   data wins, per the paper's online bias; a second lost to every peer at
//!   once) with the drop counted on `rpc.shed_total.<tenant>`. Queues are
//!   per tenant, so one tenant flooding never blocks another.
//! * **Pacing** — tenants replay at `wall_per_tick / speed`; the engine's
//!   pacer tracks its own drift and warns when it has to catch up.
//! * **Join/leave without restart** — tenants are added and removed while
//!   the daemon runs; leaving consumes whatever is still queued through
//!   [`OnlineEngine::flush_and_stop`]'s final tick before reporting.
//! * **Isolation** — analysis state, scheduler metrics
//!   (`online.*.<tenant>`), and queue metrics are all per tenant, so a
//!   healthy tenant's alarm stream is bitwise identical to a solo run of
//!   the same frame sequence.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::pipeline::{push_analyses, AsdfOptions};
use asdf_core::config::{Config, InstanceConfig};
use asdf_core::dag::Dag;
use asdf_core::engine::TapHandle;
use asdf_core::error::{BuildDagError, ModuleError, OnlineStartError, RunEngineError};
use asdf_core::module::{Envelope, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::online::OnlineEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::{TickDuration, Timestamp};
use asdf_core::value::Sample;
use asdf_modules::collectors::poll_frame;
use asdf_modules::rack::RackSummary;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd, StraceRpcd};
use asdf_rpc::wire::{Bytes, FrameReader, Handshake, MessageBuilder, WireError};
use hadoop_sim::cluster::{Cluster, ClusterConfig};

/// Stream tag for black-box `sadc` frames.
pub const STREAM_SADC: u8 = 1;
/// Stream tag for white-box TaskTracker `hadoop_log` frames.
pub const STREAM_LOG: u8 = 2;
/// Stream tag for `strace` syscall-count frames.
pub const STREAM_STRACE: u8 = 3;

/// Tunable knobs of the serve daemon, shared by every tenant.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Slave nodes per monitored cluster (paper-style peer comparison
    /// needs at least 3).
    pub slaves: usize,
    /// Wall time one engine second occupies before the speed multiplier.
    pub wall_per_tick: Duration,
    /// Real-time pacing multiplier (1.0 = real time, 2.0 = twice as fast).
    pub speed: f64,
    /// Default ingress-queue capacity, in node-samples, before shed-oldest:
    /// a tenant queues as many whole frames of `slaves` nodes as fit.
    pub queue_capacity: usize,
    /// Analysis window, in samples.
    pub window: usize,
    /// Samples between window evaluations.
    pub slide: usize,
    /// Black-box L1 alarm threshold.
    pub threshold: f64,
    /// White-box threshold multiplier k.
    pub wb_k: f64,
    /// Consecutive anomalous windows required before an alarm.
    pub consecutive: usize,
    /// Build the white-box paths (`hadoop_log` and `strace` streams feed
    /// `mavgvec → analysis_wb`) in addition to the black-box path.
    pub white_box: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            slaves: 4,
            wall_per_tick: Duration::from_secs(1),
            speed: 1.0,
            queue_capacity: 4096,
            window: 60,
            slide: 60,
            threshold: 60.0,
            wb_k: 3.0,
            consecutive: 3,
            white_box: true,
        }
    }
}

impl ServeOptions {
    /// The analysis half's options, as `AsdfBuilder` would take them.
    fn analyses(&self) -> AsdfOptions {
        AsdfOptions {
            window: self.window,
            slide: self.slide,
            bb_threshold: self.threshold,
            wb_k: self.wb_k,
            consecutive: self.consecutive,
            white_box: self.white_box,
            ..AsdfOptions::default()
        }
    }
}

/// Per-tenant workload description supplied at join time.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Simulation seed of the tenant's monitored cluster.
    pub seed: u64,
    /// Number of one-second collection steps the tenant streams. A fixed
    /// count keeps a tenant's frame sequence reproducible, which is what
    /// makes solo and multi-tenant alarm streams comparable bit for bit.
    pub steps: u64,
    /// Stream at maximum rate instead of pacing — a misbehaving tenant
    /// that must be absorbed by shedding, not by slowing anyone down.
    pub flood: bool,
    /// Overrides [`ServeOptions::queue_capacity`] for this tenant.
    pub queue_capacity: Option<usize>,
}

impl TenantSpec {
    /// A paced, well-behaved tenant streaming `steps` collection steps.
    pub fn paced(seed: u64, steps: u64) -> Self {
        TenantSpec {
            seed,
            steps,
            flood: false,
            queue_capacity: None,
        }
    }

    /// A flooding tenant: same workload, no pacing.
    pub fn flooding(seed: u64, steps: u64) -> Self {
        TenantSpec {
            flood: true,
            ..TenantSpec::paced(seed, steps)
        }
    }
}

/// An error from the serve daemon's tenant lifecycle.
#[derive(Debug)]
pub enum ServeError {
    /// The join handshake was malformed or spoke an unknown wire version.
    Handshake(WireError),
    /// A tenant with this id is already being served.
    DuplicateTenant(String),
    /// No tenant with this id is being served.
    UnknownTenant(String),
    /// Connecting a collector daemon to the tenant's cluster failed.
    Collector(WireError),
    /// The tenant's analysis DAG failed to build.
    Build(BuildDagError),
    /// The tenant's online engine failed to launch.
    Start(OnlineStartError),
    /// The tenant's engine reported a module failure.
    Engine(RunEngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Handshake(e) => write!(f, "tenant handshake rejected: {e}"),
            ServeError::DuplicateTenant(t) => write!(f, "tenant `{t}` already joined"),
            ServeError::UnknownTenant(t) => write!(f, "no such tenant `{t}`"),
            ServeError::Collector(e) => write!(f, "collector connect failed: {e}"),
            ServeError::Build(e) => write!(f, "tenant DAG failed to build: {e}"),
            ServeError::Start(e) => write!(f, "tenant engine failed to start: {e}"),
            ServeError::Engine(e) => write!(f, "tenant engine failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Handshake(e) | ServeError::Collector(e) => Some(e),
            ServeError::Build(e) => Some(e),
            ServeError::Start(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            ServeError::DuplicateTenant(_) | ServeError::UnknownTenant(_) => None,
        }
    }
}

/// A bounded, shed-oldest ingress queue decoupling one tenant's stream
/// from its engine.
///
/// `push` never blocks: at capacity the *oldest* frame is dropped (the
/// freshest observation is the valuable one for online diagnosis) and the
/// drop is counted — locally for test isolation and on the global
/// `rpc.shed_total.<tenant>` counter for operators. A frame the ingest
/// module could not decode is counted the same way, on
/// `rpc.bad_frames_total.<tenant>`.
pub struct IngressQueue {
    inner: Mutex<VecDeque<Bytes>>,
    /// In frames.
    capacity: usize,
    /// Node-samples in each frame, the unit of `rpc.queue_depth.<tenant>`.
    frame_rows: usize,
    shed: AtomicU64,
    shed_counter: Arc<asdf_obs::Counter>,
    bad: AtomicU64,
    bad_counter: Arc<asdf_obs::Counter>,
    depth_gauge: Arc<asdf_obs::Gauge>,
}

impl IngressQueue {
    /// Creates a queue for `tenant` bounded at `rows` node-samples, for
    /// frames of `frame_rows` each: as many whole frames as fit, and at
    /// least the newest one.
    pub fn new(tenant: &str, rows: usize, frame_rows: usize) -> Self {
        let reg = asdf_obs::registry();
        IngressQueue {
            inner: Mutex::new(VecDeque::new()),
            capacity: (rows / frame_rows.max(1)).max(1),
            frame_rows,
            shed: AtomicU64::new(0),
            shed_counter: reg.counter(&format!("rpc.shed_total.{tenant}")),
            bad: AtomicU64::new(0),
            bad_counter: reg.counter(&format!("rpc.bad_frames_total.{tenant}")),
            depth_gauge: reg.gauge(&format!("rpc.queue_depth.{tenant}")),
        }
    }

    /// Enqueues a frame, shedding the oldest one first when full.
    pub fn push(&self, frame: Bytes) {
        let mut q = self.inner.lock().expect("ingress queue lock");
        if q.len() >= self.capacity {
            q.pop_front();
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.shed_counter.inc();
        }
        q.push_back(frame);
        self.depth_gauge.set((q.len() * self.frame_rows) as i64);
    }

    /// Moves every queued frame into `out`, preserving order.
    pub fn drain_into(&self, out: &mut Vec<Bytes>) {
        let mut q = self.inner.lock().expect("ingress queue lock");
        out.extend(q.drain(..));
        self.depth_gauge.set(0);
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ingress queue lock").len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frames (stream-seconds) shed oldest-first since creation.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Frames drained and then skipped as undecodable since creation.
    pub fn bad_frame_count(&self) -> u64 {
        self.bad.load(Ordering::Relaxed)
    }

    fn count_bad_frame(&self) {
        self.bad.fetch_add(1, Ordering::Relaxed);
        self.bad_counter.inc();
    }
}

/// Encodes one frame for the ingress queue: stream tag, the index of the
/// frame's first node, collection timestamp, and the values — a tenant's
/// feeder sends node 0 and the whole stream-second `[n, dim, node₀…, …]`.
pub fn encode_frame(stream: u8, node: u32, timestamp: u64, values: &[f64]) -> Bytes {
    let mut b = MessageBuilder::new();
    b.put_u8(stream)
        .put_u32(node)
        .put_u64(timestamp)
        .put_f64_slice(values);
    b.finish()
}

/// The per-tenant ingest module: drains the tenant's ingress queue once
/// per engine tick and re-emits each frame as one row on its stream's port
/// (origin node 0, like a rack collector's `frame`), stamped with the
/// frame's *collection* timestamp.
///
/// Emitting with the original timestamps (via `emit_sample`) is what makes
/// the downstream analyses a pure function of the frame sequence: `knn`
/// and the aligners key on sample timestamps, so queue batching — which
/// varies with wall-clock scheduling — cannot change any alarm.
struct ServeIngest {
    queue: Arc<IngressQueue>,
    /// The tenant's hostnames, in node order.
    origins: Vec<String>,
    /// The port of each wired stream, a prefix of [`STREAMS`] (a black-box
    /// tenant wires only the first).
    ports: Vec<PortId>,
    /// Each wired stream's row width: the model's for `sadc`, the first
    /// good frame's for the others.
    widths: Vec<Option<usize>>,
    buf: Vec<Bytes>,
    /// Every frame decodes into this one buffer.
    values: Vec<f64>,
}

/// The stream tags and port names; only the first is wired without `white_box`.
const STREAMS: [(u8, &str); 3] = [
    (STREAM_SADC, "sadc"),
    (STREAM_LOG, "tt"),
    (STREAM_STRACE, "st"),
];

impl Module for ServeIngest {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        ctx.expect_input_count(0)?;
        let origin = self.origins.first().cloned().unwrap_or_default();
        for (_, name) in &STREAMS[..self.widths.len()] {
            self.ports
                .push(ctx.declare_output_with_origin(*name, origin.clone()));
        }
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        self.queue.drain_into(&mut self.buf);
        let n = self.origins.len();
        for frame in self.buf.drain(..) {
            let Some((stream, ts)) = decode_frame(&frame, n, &mut self.widths, &mut self.values)
            else {
                // One bad frame says nothing about the frames queued behind
                // it, so it is counted and skipped, not the end of the tenant.
                self.queue.count_bad_frame();
                continue;
            };
            let sample = Sample::new(Timestamp::from_secs(ts), &self.values[..]);
            ctx.emit_sample(self.ports[stream], sample);
        }
        Ok(())
    }
}

/// Decodes a frame into `values`: its index in [`STREAMS`] and timestamp,
/// or `None` unless it is one whole second of all `slaves` nodes from node 0
/// of a wired stream (one `widths` has an entry for) in that stream's
/// width, which an unset entry takes from it.
fn decode_frame(
    frame: &[u8],
    slaves: usize,
    widths: &mut [Option<usize>],
    values: &mut Vec<f64>,
) -> Option<(usize, u64)> {
    let mut r = FrameReader::new(frame).ok()?;
    let tag = r.get_u8().ok()?;
    let wired = &STREAMS[..widths.len()];
    let stream = wired.iter().position(|(t, _)| *t == tag)?;
    let (first, ts) = (r.get_u32().ok()?, r.get_u64().ok()?);
    r.get_f64_slice_into(values).ok()?;
    let (k, dim) = RackSummary::shape(values).ok()?;
    let whole = first == 0 && k == slaves;
    (whole && *widths[stream].get_or_insert(dim) == dim).then_some((stream, ts))
}

/// Everything the daemon tracks for one joined tenant.
struct Tenant {
    engine: OnlineEngine,
    queue: Arc<IngressQueue>,
    feeder: Option<JoinHandle<()>>,
    feeder_stop: Arc<AtomicBool>,
    feeder_done: Arc<AtomicBool>,
}

/// What a tenant leaves behind: its drained alarm streams and the
/// soak-gate numbers.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant id from the join handshake.
    pub tenant: String,
    /// Black-box alarm/distance envelopes drained from the `bb` tap.
    pub bb_alarms: Vec<Envelope>,
    /// White-box (TaskTracker log) envelopes from the `wb_tt` tap.
    pub wb_tt_alarms: Vec<Envelope>,
    /// White-box (strace) envelopes from the `wb_st` tap.
    pub wb_st_alarms: Vec<Envelope>,
    /// Frames (stream-seconds) shed from the tenant's ingress queue.
    pub shed: u64,
    /// Frames that reached the tenant's engine undecodable and were skipped.
    pub bad_frames: u64,
    /// Worst scheduler lag the tenant's engine ever observed, in ticks.
    pub lag_watermark: i64,
    /// Envelopes routed through the tenant's engine — a pure function of
    /// the frame sequence, like the alarm streams.
    pub delivered: u64,
}

/// The multi-tenant online diagnosis daemon.
///
/// One process, N tenants: each joined tenant gets its own simulated
/// cluster feeder, bounded ingress queue, and labeled [`OnlineEngine`].
/// See the module docs for the lifecycle; see `asdf serve` for the CLI.
pub struct ServeDaemon {
    model: Arc<BlackBoxModel>,
    opts: ServeOptions,
    tenants: BTreeMap<String, Tenant>,
}

impl ServeDaemon {
    /// Creates an idle daemon diagnosing against `model`.
    pub fn new(model: Arc<BlackBoxModel>, opts: ServeOptions) -> Self {
        ServeDaemon {
            model,
            opts,
            tenants: BTreeMap::new(),
        }
    }

    /// The daemon's shared options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Currently joined tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Builds one tenant's analysis DAG: [`push_analyses`] over one rack,
    /// the stream ports of a `serve_ingest` reading `queue`.
    fn tenant_dag(&self, queue: &Arc<IngressQueue>, origins: &[String]) -> Result<Dag, ServeError> {
        let mut registry = ModuleRegistry::new();
        asdf_modules::register_analysis_modules(&mut registry);
        let (queue, nodes) = (Arc::clone(queue), origins.to_vec());
        let mut widths = vec![Some(self.model.stddev.len())];
        if self.opts.white_box {
            widths.resize(STREAMS.len(), None);
        }
        registry.register("serve_ingest", move || {
            Box::new(ServeIngest {
                queue: Arc::clone(&queue),
                origins: nodes.clone(),
                ports: Vec::new(),
                widths: widths.clone(),
                buf: Vec::new(),
                values: Vec::new(),
            })
        });
        let stream = |port: &str| vec![("ingest".to_owned(), port.to_owned())];
        let mut cfg = Config::new();
        cfg.push(InstanceConfig::new("serve_ingest", "ingest"))
            .expect("the first instance");
        push_analyses(
            &mut cfg,
            &self.opts.analyses(),
            Some(&self.model),
            origins,
            &stream("sadc"),
            &[("tt", stream("tt")), ("st", stream("st"))],
        );
        Dag::build(&registry, &cfg).map_err(ServeError::Build)
    }

    /// Admits a tenant: validates its wire handshake, builds its analysis
    /// engine, and starts its collector feeder. Runs while other tenants
    /// are being served — no restart involved.
    ///
    /// # Errors
    ///
    /// [`ServeError::Handshake`] for a malformed or version-mismatched
    /// hello, [`ServeError::DuplicateTenant`] if the id is taken, and the
    /// build/start variants if the tenant's engine cannot launch.
    pub fn join_tenant(&mut self, hello: Bytes, spec: TenantSpec) -> Result<String, ServeError> {
        let handshake = Handshake::decode(hello).map_err(ServeError::Handshake)?;
        let tenant = handshake.tenant;
        if self.tenants.contains_key(&tenant) {
            return Err(ServeError::DuplicateTenant(tenant));
        }

        let cluster = Cluster::new(ClusterConfig::new(self.opts.slaves, spec.seed), Vec::new());
        let origins: Vec<String> = (0..self.opts.slaves)
            .map(|i| cluster.slave_name(i).to_owned())
            .collect();
        let handle = ClusterHandle::new(cluster);
        let collectors = connect_collectors(&handle, self.opts.slaves, self.opts.white_box)
            .map_err(ServeError::Collector)?;

        let capacity = spec.queue_capacity.unwrap_or(self.opts.queue_capacity);
        let queue = Arc::new(IngressQueue::new(&tenant, capacity, self.opts.slaves));

        let dag = self.tenant_dag(&queue, &origins)?;
        let mut builder = OnlineEngine::builder(dag)
            .wall_per_tick(self.opts.wall_per_tick)
            .speed(self.opts.speed)
            .label(tenant.clone())
            .tap("bb");
        if self.opts.white_box {
            builder = builder.tap("wb_tt").tap("wb_st");
        }
        let engine = builder.start().map_err(ServeError::Start)?;

        let feeder_stop = Arc::new(AtomicBool::new(false));
        let feeder_done = Arc::new(AtomicBool::new(false));
        let pace = if spec.flood {
            None
        } else {
            Some(self.opts.wall_per_tick.div_f64(self.opts.speed))
        };
        let feeder = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&feeder_stop);
            let done = Arc::clone(&feeder_done);
            let steps = spec.steps;
            std::thread::Builder::new()
                .name(format!("asdf-feed-{tenant}"))
                .spawn(move || {
                    feeder_loop(handle, collectors, queue, stop, steps, pace);
                    done.store(true, Ordering::Relaxed);
                })
                .map_err(|source| {
                    ServeError::Start(OnlineStartError::Spawn {
                        thread: format!("feed-{tenant}"),
                        source,
                    })
                })?
        };

        self.tenants.insert(
            tenant.clone(),
            Tenant {
                engine,
                queue,
                feeder: Some(feeder),
                feeder_stop,
                feeder_done,
            },
        );
        Ok(tenant)
    }

    /// Whether the tenant's feeder has streamed all its steps.
    pub fn tenant_done_streaming(&self, tenant: &str) -> bool {
        self.tenants
            .get(tenant)
            .is_some_and(|t| t.feeder_done.load(Ordering::Relaxed))
    }

    /// Frames currently queued for a tenant.
    pub fn tenant_queue_len(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.queue.len())
    }

    /// Frames shed from a tenant's queue so far.
    pub fn tenant_shed(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.queue.shed_count())
    }

    /// Worst scheduler lag a tenant's engine has observed, in ticks.
    pub fn tenant_lag_watermark(&self, tenant: &str) -> i64 {
        self.tenants
            .get(tenant)
            .map_or(0, |t| t.engine.scheduler_lag_watermark())
    }

    /// Blocks until `tenant` has streamed all its steps and its queue is
    /// drained (or `timeout` passes / its engine fails). Returns whether
    /// the tenant actually went idle. A timeout past what the clock can
    /// represent never passes.
    pub fn wait_idle(&self, tenant: &str, timeout: Duration) -> bool {
        let Some(t) = self.tenants.get(tenant) else {
            return false;
        };
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if t.engine.has_failed() {
                return false;
            }
            if t.feeder_done.load(Ordering::Relaxed) && t.queue.is_empty() {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Removes a tenant: stops its feeder, then stops its engine with one
    /// final tick that consumes every frame still queued, and returns the
    /// tenant's alarms and soak numbers. Other tenants keep running.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for an unknown id, or
    /// [`ServeError::Engine`] if the tenant's engine had failed.
    pub fn leave_tenant(&mut self, tenant: &str) -> Result<TenantReport, ServeError> {
        let mut t = self
            .tenants
            .remove(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_owned()))?;
        t.feeder_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = t.feeder.take() {
            let _ = handle.join();
        }
        // Already-queued frames still belong to the tenant: with the feeder
        // quiet, the flush's final tick has the ingest drain all of them.
        t.engine.flush().map_err(ServeError::Engine)?;
        let drain = |id| t.engine.tap_handle(id).map(TapHandle::drain);
        Ok(TenantReport {
            tenant: tenant.to_owned(),
            bb_alarms: drain("bb").unwrap_or_default(),
            wb_tt_alarms: drain("wb_tt").unwrap_or_default(),
            wb_st_alarms: drain("wb_st").unwrap_or_default(),
            shed: t.queue.shed_count(),
            bad_frames: t.queue.bad_frame_count(),
            lag_watermark: t.engine.scheduler_lag_watermark(),
            delivered: t.engine.envelopes_delivered(),
        })
    }

    /// Graceful shutdown: leaves every tenant (in sorted order), flushing
    /// each engine's in-flight envelopes, and returns all reports.
    ///
    /// # Errors
    ///
    /// The first tenant-engine failure encountered; remaining tenants are
    /// still torn down by drop.
    pub fn shutdown(mut self) -> Result<Vec<TenantReport>, ServeError> {
        let ids = self.tenants();
        let mut reports = Vec::with_capacity(ids.len());
        for id in ids {
            reports.push(self.leave_tenant(&id)?);
        }
        Ok(reports)
    }
}

impl std::fmt::Debug for ServeDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeDaemon")
            .field("tenants", &self.tenants())
            .field("options", &self.opts)
            .finish()
    }
}

/// A stream's tag and its collector daemons, one per slave in node order.
type Stream = (u8, Vec<Box<dyn Collector + Send>>);

/// The `sadc` stream, plus the TaskTracker `hadoop_log` and the `strace`
/// streams when `white_box`, in the order a feeder polls them.
fn connect_collectors(
    h: &ClusterHandle,
    slaves: usize,
    white_box: bool,
) -> Result<Vec<Stream>, WireError> {
    let wired = if white_box { STREAMS.len() } else { 1 };
    let mut streams: Vec<Stream> = STREAMS[..wired].iter().map(|s| (s.0, vec![])).collect();
    for (tag, daemons) in &mut streams {
        for node in 0..slaves {
            let h = h.clone();
            daemons.push(match *tag {
                STREAM_SADC => Box::new(SadcRpcd::connect(h, node)?),
                STREAM_LOG => Box::new(HadoopLogRpcd::connect(h, node, LogDaemon::TaskTracker)?),
                _ => Box::new(StraceRpcd::connect(h, node)?),
            });
        }
    }
    Ok(streams)
}

/// One tenant's collector feeder: ticks the monitored cluster once per
/// step, polls every node's daemons over the accounted wire and queues each
/// stream's second as one frame — paced to `pace` per step (see
/// [`pace_step`]), or flat out when `pace` is `None` (a flooding tenant).
fn feeder_loop(
    handle: ClusterHandle,
    mut streams: Vec<Stream>,
    queue: Arc<IngressQueue>,
    stop: Arc<AtomicBool>,
    steps: u64,
    pace: Option<Duration>,
) {
    let mut deadline = Instant::now() + pace.unwrap_or_default();
    // A daemon's row and a stream's second, reused every step.
    let (mut values, mut frame) = (Vec::new(), Vec::new());
    for _ in 0..steps {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        handle.tick();
        for (tag, daemons) in &mut streams {
            let polled = handle.with(|c| {
                let daemons = daemons.iter_mut().map(|d| &mut **d);
                poll_frame(c, daemons, &mut values, &mut frame)
            });
            match polled {
                Ok(Some(ts)) => queue.push(encode_frame(*tag, 0, ts, &frame)),
                Ok(None) => {}
                Err(e) => {
                    let kind = daemons[0].kind();
                    eprintln!("warning: [serve] {kind} poll failed, tenant stream ends: {e}");
                    return;
                }
            }
        }
        if let Some(tick) = pace {
            let (ahead, next) = pace_step(deadline, Instant::now(), tick);
            std::thread::sleep(ahead);
            deadline = next;
        }
    }
}

/// How long a paced feeder sleeps after the step due at `deadline` finished
/// at `now`, and when the next step is due. On time, the next deadline is
/// `tick` after this one, not after the wake-up, so sleep overshoot never
/// accumulates. A feeder that missed its deadline (the OS starved it)
/// resumes its pace from `now`: it does not replay the time it slept
/// through, so a stall cannot burst the missed steps into the ingress queue
/// all at once. (The engine's pacer does replay — to it a tick is a second
/// that must happen, not data that can arrive later; DESIGN.md §5f.)
fn pace_step(deadline: Instant, now: Instant, tick: Duration) -> (Duration, Instant) {
    match deadline.checked_duration_since(now) {
        Some(ahead) => (ahead, deadline + tick),
        None => (Duration::ZERO, now + tick),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{
        assert_every_port_is_routed_or_tapped, envelope_bits, figure4_analyses,
    };
    use asdf_core::engine::TickEngine;
    use asdf_modules::kernel::CentroidBlock;
    use asdf_rpc::wire::MessageReader;
    use hadoop_sim::faults::{FaultKind, FaultSpec};

    fn tiny_model() -> Arc<BlackBoxModel> {
        let dim = 120;
        Arc::new(BlackBoxModel {
            stddev: vec![1.0; dim],
            centroids: CentroidBlock::from_rows(&[vec![0.0; dim], vec![5.0; dim]]),
        })
    }

    fn fast_opts() -> ServeOptions {
        ServeOptions {
            wall_per_tick: Duration::from_millis(2),
            window: 10,
            slide: 10,
            white_box: false,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn frames_round_trip_through_the_ingress_encoding() {
        // One stream-second of two nodes, one value each.
        let second = [2.0, 1.0, 1.0, 2.5];
        let from_node_3 = encode_frame(STREAM_LOG, 3, 41, &second);
        let mut r = MessageReader::new(from_node_3.clone()).unwrap();
        assert_eq!(r.get_u8().unwrap(), STREAM_LOG);
        assert_eq!(r.get_u32().unwrap(), 3);
        assert_eq!(r.get_u64().unwrap(), 41);
        assert_eq!(r.get_f64_slice().unwrap(), second);
        let (mut widths, mut values) = ([None; 3], Vec::new());
        assert_eq!(
            decode_frame(&from_node_3, 2, &mut widths, &mut values),
            None
        );
        assert_eq!(widths, [None; 3], "a bad frame sets no width");
        let frame = encode_frame(STREAM_LOG, 0, 41, &second);
        assert_eq!(
            decode_frame(&frame, 2, &mut widths, &mut values),
            Some((1, 41))
        );
        assert_eq!(
            (values.as_slice(), widths),
            (&second[..], [None, Some(1), None])
        );
        // A black-box tenant wires the `sadc` stream alone.
        assert_eq!(decode_frame(&frame, 2, &mut [None], &mut values), None);
    }

    #[test]
    fn a_starved_feeder_resumes_its_pace_instead_of_bursting() {
        let tick = Duration::from_millis(4);
        let start = Instant::now();
        let due = start + tick;
        // On time: sleep to the absolute deadline, the next one a tick on.
        let woke = start + Duration::from_millis(1);
        assert_eq!(
            pace_step(due, woke, tick),
            (Duration::from_millis(3), due + tick)
        );
        // Starved for 20 ticks: no sleep now, and the next step is a full
        // tick away rather than 19 deadlines already in the past.
        let late = start + 20 * tick;
        assert_eq!(pace_step(due, late, tick), (Duration::ZERO, late + tick));
    }

    /// Drains `q` and returns the timestamps of the frames it held.
    fn drained_stamps(q: &IngressQueue) -> Vec<u64> {
        let mut out = Vec::new();
        q.drain_into(&mut out);
        let stamp = |f: &Bytes| {
            let mut r = FrameReader::new(f).unwrap();
            r.get_u8().unwrap();
            r.get_u32().unwrap();
            r.get_u64().unwrap()
        };
        out.iter().map(stamp).collect()
    }

    #[test]
    fn ingress_queue_sheds_oldest_when_full() {
        let q = IngressQueue::new("shedtest", 3, 1);
        for i in 0..5u8 {
            q.push(encode_frame(STREAM_SADC, 0, i as u64, &[f64::from(i)]));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.shed_count(), 2);
        // Oldest two (timestamps 0, 1) were shed; 2..5 survive in order.
        assert_eq!(drained_stamps(&q), [2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn ingress_queue_weighs_a_frame_by_its_rows() {
        let second = |t| encode_frame(STREAM_SADC, 0, t, &[]);
        // A 40-row queue of 20-node frames.
        let q = IngressQueue::new("rowtest", 40, 20);
        let depth = asdf_obs::registry().gauge("rpc.queue_depth.rowtest");
        q.push(second(0));
        q.push(second(1));
        assert_eq!((q.len(), q.shed_count(), depth.get()), (2, 0, 40));
        q.push(second(2));
        assert_eq!(
            (q.len(), q.shed_count()),
            (2, 1),
            "the third sheds the first"
        );
        assert_eq!(drained_stamps(&q), [1, 2]);
        assert_eq!(depth.get(), 0);
        // A frame the queue cannot hold is kept, on its own.
        let q = IngressQueue::new("widetest", 40, 50);
        let depth = asdf_obs::registry().gauge("rpc.queue_depth.widetest");
        q.push(second(3));
        assert_eq!((q.len(), q.shed_count(), depth.get()), (1, 0, 50));
        q.push(second(4));
        assert_eq!((q.len(), q.shed_count()), (1, 1));
        assert_eq!(drained_stamps(&q), [4]);
    }

    #[test]
    fn tenant_joins_streams_and_leaves_with_alarms() {
        let mut daemon = ServeDaemon::new(tiny_model(), fast_opts());
        let hello = Handshake::new("alpha").encode();
        let id = daemon.join_tenant(hello, TenantSpec::paced(7, 40)).unwrap();
        assert_eq!(id, "alpha");
        assert_eq!(daemon.tenants(), ["alpha"]);
        assert!(daemon.wait_idle("alpha", Duration::from_secs(30)));
        let report = daemon.leave_tenant("alpha").unwrap();
        assert_eq!(report.shed, 0, "a paced tenant must not shed");
        // 40 steps at window/slide 10 = 4 evaluations x 4 nodes x
        // (alarm + dist) = 32 envelopes, all flushed out.
        assert_eq!(report.bb_alarms.len(), 32);
        assert!(daemon.tenants().is_empty());
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_rejected() {
        let mut daemon = ServeDaemon::new(tiny_model(), fast_opts());
        daemon
            .join_tenant(Handshake::new("dup").encode(), TenantSpec::paced(1, 5))
            .unwrap();
        let err = daemon
            .join_tenant(Handshake::new("dup").encode(), TenantSpec::paced(2, 5))
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateTenant(t) if t == "dup"));
        let err = daemon.leave_tenant("ghost").unwrap_err();
        assert!(matches!(err, ServeError::UnknownTenant(t) if t == "ghost"));
        daemon.shutdown().unwrap();
    }

    #[test]
    fn version_mismatched_hello_is_rejected_with_both_versions() {
        use asdf_rpc::wire::WIRE_VERSION;
        let mut daemon = ServeDaemon::new(tiny_model(), fast_opts());
        let mut b = MessageBuilder::new();
        b.put_u8(WIRE_VERSION + 9).put_str("evil");
        let err = daemon
            .join_tenant(b.finish(), TenantSpec::paced(1, 5))
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&WIRE_VERSION.to_string())
                && msg.contains(&(WIRE_VERSION + 9).to_string()),
            "message should name both versions: {msg}"
        );
        assert!(matches!(
            err,
            ServeError::Handshake(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn leaving_consumes_every_queued_frame_without_waiting_for_a_tick() {
        // The engine's first tick runs at once, on an empty or nearly empty
        // queue, and the next is an hour away: whatever the flooding feeder
        // queued in between is consumed by the flush's final tick, or lost.
        let opts = ServeOptions {
            wall_per_tick: Duration::from_secs(3600),
            ..fast_opts()
        };
        let mut daemon = ServeDaemon::new(tiny_model(), opts);
        let hello = Handshake::new("parked").encode();
        daemon
            .join_tenant(hello, TenantSpec::flooding(7, 40))
            .unwrap();
        let patience = Instant::now() + Duration::from_secs(30);
        while !daemon.tenant_done_streaming("parked") {
            assert!(Instant::now() < patience, "the feeder should finish");
            std::thread::sleep(Duration::from_millis(1));
        }
        let leaving = Instant::now();
        let report = daemon.leave_tenant("parked").unwrap();
        assert!(
            leaving.elapsed() < Duration::from_secs(5),
            "leaving must not wait for the next paced tick"
        );
        assert_eq!(report.shed, 0);
        assert_eq!(report.bb_alarms.len(), 32, "queued frames were discarded");
    }

    /// Whether `frame` opens a collection step: the feeder sends the
    /// `sadc` stream's second first, and `sadc` answers every second.
    fn opens_a_step(frame: &Bytes) -> bool {
        FrameReader::new(frame).unwrap().get_u8().unwrap() == STREAM_SADC
    }

    /// The tap contents and routed-envelope count of a plain `TickEngine`
    /// on the DAG `dag` builds over a queue, handed `frames` in chunks of
    /// `chunks` frames with one tick after each chunk.
    fn offline_run(
        dag: impl FnOnce(&Arc<IngressQueue>) -> Dag,
        frames: &[Bytes],
        chunks: &[usize],
    ) -> ([Vec<Envelope>; 3], u64) {
        let queue = Arc::new(IngressQueue::new("offline", usize::MAX, 1));
        let mut engine = TickEngine::new(dag(&queue));
        let taps = ["bb", "wb_tt", "wb_st"].map(|id| engine.tap(id).unwrap());
        let mut rest = frames;
        for &n in chunks {
            let (chunk, tail) = rest.split_at(n);
            chunk.iter().for_each(|f| queue.push(f.clone()));
            rest = tail;
            engine.tick().unwrap();
        }
        assert!(rest.is_empty(), "the chunks must cover every frame");
        (taps.map(|tap| tap.drain()), engine.envelopes_routed())
    }

    /// [`offline_run`] on the tenant DAG `daemon` generates.
    fn tenant_run(
        daemon: &ServeDaemon,
        origins: &[String],
        frames: &[Bytes],
        chunks: &[usize],
    ) -> ([Vec<Envelope>; 3], u64) {
        offline_run(|q| daemon.tenant_dag(q, origins).unwrap(), frames, chunks)
    }

    /// One white-box tenant's hostnames and frame sequence, captured from
    /// the feeder itself, with `faults` injected into its cluster.
    fn captured_frames(
        opts: &ServeOptions,
        seed: u64,
        faults: &[FaultSpec],
        steps: u64,
    ) -> (Vec<String>, Vec<Bytes>) {
        let cluster = Cluster::new(ClusterConfig::new(opts.slaves, seed), faults.to_vec());
        let origins: Vec<String> = (0..opts.slaves)
            .map(|i| cluster.slave_name(i).to_owned())
            .collect();
        let handle = ClusterHandle::new(cluster);
        let collectors = connect_collectors(&handle, opts.slaves, true).unwrap();
        let captured = Arc::new(IngressQueue::new("capture", usize::MAX, 1));
        let never = Arc::new(AtomicBool::new(false));
        feeder_loop(
            handle,
            collectors,
            Arc::clone(&captured),
            never,
            steps,
            None,
        );
        let mut frames = Vec::new();
        captured.drain_into(&mut frames);
        (origins, frames)
    }

    #[test]
    fn a_bad_frame_is_counted_and_skipped_and_the_tenant_lives() {
        let opts = ServeOptions {
            white_box: true,
            ..fast_opts()
        };
        let mut daemon = ServeDaemon::new(tiny_model(), opts.clone());
        let (origins, good) = captured_frames(&opts, 7, &[], 40);
        let (reference, _) = tenant_run(&daemon, &origins, &good, &[good.len()]);
        assert!(reference.iter().all(|tap| !tap.is_empty()));

        // Step 20's `sadc` second, to build readable-looking frames from.
        let mut r = MessageReader::new(good[3 * 20].clone()).unwrap();
        assert_eq!(
            (r.get_u8().unwrap(), r.get_u32().unwrap()),
            (STREAM_SADC, 0)
        );
        let (ts, second) = (r.get_u64().unwrap(), r.get_f64_slice().unwrap());
        let (n, dim) = (opts.slaves, second[1] as usize);
        let short_of_a_node: Vec<f64> = [(n - 1) as f64, dim as f64]
            .into_iter()
            .chain(second[2 + dim..].iter().copied())
            .collect();
        let mut nan_header = second.clone();
        nan_header[0] = f64::NAN;
        // Every node's row a value short: whole, but not the model's width.
        let narrow: Vec<f64> = [n as f64, (dim - 1) as f64]
            .into_iter()
            .chain(
                second[2..]
                    .chunks_exact(dim)
                    .flat_map(|row| &row[1..])
                    .copied(),
            )
            .collect();
        // The same sequence with eight frames nobody can read in it: cut
        // short, noise, a stream tag that does not exist, a second missing
        // a node, a header its payload falls short of, a NaN header, a
        // second that does not start at node 0, and one too narrow.
        let bad = [
            Bytes::from(good[5][..good[5].len() - 3].to_vec()),
            Bytes::from(vec![0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15, 0xf3]),
            encode_frame(9, 0, ts, &second),
            encode_frame(STREAM_SADC, 0, ts, &short_of_a_node),
            encode_frame(STREAM_SADC, 0, ts, &[20.0, 120.0, 1.0, 2.0]),
            encode_frame(STREAM_SADC, 0, ts, &nan_header),
            encode_frame(STREAM_SADC, 1, ts, &second),
            encode_frame(STREAM_SADC, 0, ts, &narrow),
        ];
        let mut dirty = good.clone();
        for (i, frame) in bad.into_iter().enumerate() {
            dirty.insert(6 + 17 * i, frame);
        }

        // A tenant that streams nothing itself; its queue is fed by hand.
        let hello = Handshake::new("dirty").encode();
        daemon.join_tenant(hello, TenantSpec::paced(7, 0)).unwrap();
        let tenant = &daemon.tenants["dirty"];
        dirty.into_iter().for_each(|f| tenant.queue.push(f));
        assert!(daemon.wait_idle("dirty", Duration::from_secs(30)));
        assert!(!daemon.tenants["dirty"].engine.has_failed());
        let report = daemon.leave_tenant("dirty").unwrap();
        assert_eq!(report.bad_frames, 8);
        assert_eq!(report.shed, 0);
        assert!(report.bb_alarms == reference[0], "bb diverged");
        assert!(report.wb_tt_alarms == reference[1], "wb_tt diverged");
        assert!(report.wb_st_alarms == reference[2], "wb_st diverged");
    }

    #[test]
    fn serve_alarms_equal_the_offline_engine_on_the_same_frames_however_split() {
        let (seed, steps) = (7, 60);
        let opts = ServeOptions {
            white_box: true,
            ..fast_opts()
        };
        let mut daemon = ServeDaemon::new(tiny_model(), opts.clone());

        let (origins, frames) = captured_frames(&opts, seed, &[], steps);

        let mut bounds: Vec<usize> = (0..frames.len())
            .filter(|&i| opens_a_step(&frames[i]))
            .collect();
        assert_eq!(bounds.len() as u64, steps);
        bounds.push(frames.len());
        let per_step: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        // Mid-step cuts, empty ticks and a backlog, in no rhythm.
        let mut ragged = Vec::new();
        let mut left = frames.len();
        for n in [1, 0, 7, 40, 3, 0, 0, 95, 2, 11].into_iter().cycle() {
            ragged.push(n.min(left));
            left -= n.min(left);
            if left == 0 {
                break;
            }
        }

        let (at_once, routed) = tenant_run(&daemon, &origins, &frames, &[frames.len()]);
        assert_eq!(at_once[0].len() as u64, steps / 10 * 4 * 2);
        assert!(!at_once[1].is_empty() && !at_once[2].is_empty());
        for chunks in [per_step, ragged] {
            let (taps, n) = tenant_run(&daemon, &origins, &frames, &chunks);
            assert!(
                taps == at_once,
                "the split of frames over ticks changed an alarm"
            );
            assert_eq!(n, routed);
        }

        // The same seed through the paced daemon, twice over.
        for tenant in ["twin_a", "twin_b"] {
            let hello = Handshake::new(tenant).encode();
            daemon
                .join_tenant(hello, TenantSpec::paced(seed, steps))
                .unwrap();
        }
        for tenant in ["twin_a", "twin_b"] {
            assert!(daemon.wait_idle(tenant, Duration::from_secs(30)));
            let report = daemon.leave_tenant(tenant).unwrap();
            assert_eq!(report.shed, 0);
            assert!(report.bb_alarms == at_once[0], "{tenant}: bb diverged");
            assert!(
                report.wb_tt_alarms == at_once[1],
                "{tenant}: wb_tt diverged"
            );
            assert!(
                report.wb_st_alarms == at_once[2],
                "{tenant}: wb_st diverged"
            );
            assert_eq!(report.delivered, routed, "{tenant}: delivered");
        }
    }

    #[test]
    fn a_tenant_dag_is_seven_instances_at_any_cluster_size() {
        // Seven (three without the white box), every port wired or tapped.
        for slaves in [3, 20, 200] {
            let origins: Vec<String> = (0..slaves).map(|i| format!("slave{i:02}")).collect();
            for (white_box, instances) in [(true, 7), (false, 3)] {
                let opts = ServeOptions {
                    slaves,
                    white_box,
                    ..fast_opts()
                };
                let daemon = ServeDaemon::new(tiny_model(), opts);
                let queue = Arc::new(IngressQueue::new("shape", 1, 1));
                let dag = daemon.tenant_dag(&queue, &origins).unwrap();
                let what = format!("{slaves} slaves, white box {white_box}");
                assert_eq!(dag.len(), instances, "{what}");
                assert_every_port_is_routed_or_tapped(&dag, &["bb", "wb_tt", "wb_st"], &what);
            }
        }
    }

    /// The tenant front end before frames, kept as the reference the one-rack
    /// DAG is held to: drains the same queue and splits every stream-second
    /// onto per-node ports `sadc{i}` / `tt{i}` / `st{i}`, origin node i's
    /// hostname.
    struct SplitIngest {
        queue: Arc<IngressQueue>,
        origins: Vec<String>,
        ports: [Vec<PortId>; 3],
    }

    impl Module for SplitIngest {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            for (ports, (_, name)) in self.ports.iter_mut().zip(STREAMS) {
                for (i, origin) in self.origins.iter().enumerate() {
                    ports
                        .push(ctx.declare_output_with_origin(format!("{name}{i}"), origin.clone()));
                }
            }
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }

        fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
            let (mut frames, mut values) = (Vec::new(), Vec::new());
            self.queue.drain_into(&mut frames);
            for frame in frames {
                let (stream, ts) =
                    decode_frame(&frame, self.origins.len(), &mut [None; 3], &mut values)
                        .expect("a captured frame");
                let dim = values[1] as usize;
                for (&port, row) in self.ports[stream].iter().zip(values[2..].chunks_exact(dim)) {
                    ctx.emit_sample(port, Sample::new(Timestamp::from_secs(ts), row));
                }
            }
            Ok(())
        }
    }

    /// The per-node tenant DAG behind [`SplitIngest`]: Figure 4's analysis
    /// half per node on its `sadc{i}` / `tt{i}` / `st{i}` ports.
    fn tenant_per_node(o: &ServeOptions, model: &BlackBoxModel) -> Config {
        let analyses = figure4_analyses(&o.analyses(), model, o.slaves, &["tt", "st"], |s, i| {
            format!("ingest.{s}{i}")
        });
        format!("[split_ingest]\nid = ingest\n\n{analyses}")
            .parse()
            .expect("the per-node tenant parses")
    }

    #[test]
    fn the_frame_dag_equals_the_per_node_tenant_dag_bitwise() {
        let opts = |slaves| ServeOptions {
            slaves,
            window: 10,
            slide: 5,
            threshold: 4.0,
            consecutive: 1,
            white_box: true,
            ..fast_opts()
        };
        // A model fitted to the tenants' own `sadc` rows, so that the nodes
        // fall into several states.
        let (_, frames) = captured_frames(&opts(4), 3, &[], 150);
        let mut rows = Vec::new();
        for frame in frames.iter().filter(|f| opens_a_step(f)) {
            let mut values = Vec::new();
            decode_frame(frame, 4, &mut [None; 3], &mut values).unwrap();
            rows.extend(
                values[2..]
                    .chunks_exact(values[1] as usize)
                    .map(<[f64]>::to_vec),
            );
        }
        let model = Arc::new(BlackBoxModel::fit(&rows, 6, 1));
        for slaves in [3, 4, 7] {
            let o = opts(slaves);
            let daemon = ServeDaemon::new(Arc::clone(&model), o.clone());
            for seed in [7, 8] {
                // One fault for each path to see.
                let faults = [(0, FaultKind::DiskHog), (slaves - 1, FaultKind::Hadoop1036)].map(
                    |(node, kind)| FaultSpec {
                        node,
                        kind,
                        start_at: 30,
                    },
                );
                let (origins, frames) = captured_frames(&o, seed, &faults, 400);
                let all = [frames.len()];
                let (generated, _) = tenant_run(&daemon, &origins, &frames, &all);
                let per_node = |queue: &Arc<IngressQueue>| {
                    let mut registry = ModuleRegistry::new();
                    asdf_modules::register_analysis_modules(&mut registry);
                    let (queue, origins) = (Arc::clone(queue), origins.clone());
                    registry.register("split_ingest", move || {
                        Box::new(SplitIngest {
                            queue: Arc::clone(&queue),
                            origins: origins.clone(),
                            ports: Default::default(),
                        })
                    });
                    Dag::build(&registry, &tenant_per_node(&o, &model)).unwrap()
                };
                let (reference, _) = offline_run(per_node, &frames, &all);
                for ((want, got), id) in reference
                    .iter()
                    .zip(&generated)
                    .zip(["bb", "wb_tt", "wb_st"])
                {
                    let want = envelope_bits(want);
                    let distinct: std::collections::BTreeSet<_> =
                        want.iter().map(|e| &e.4).collect();
                    assert!(
                        distinct.len() > 2,
                        "{slaves} slaves, seed {seed}: `{id}` says one thing all run"
                    );
                    assert!(
                        envelope_bits(got) == want,
                        "{slaves} slaves, seed {seed}: `{id}`"
                    );
                }
            }
        }
    }
}
