//! The deterministic tick engine, serial or sharded across a worker pool.
//!
//! [`TickEngine`] executes a [`Dag`] in simulated time: each call to
//! [`TickEngine::tick`] represents one second. Within a tick, nodes are
//! processed in topological order, so a sample emitted by an upstream module
//! reaches every downstream analysis module *within the same tick* — there
//! is no cross-tick pipeline latency beyond what modules introduce
//! themselves (buffering, windowing).
//!
//! # Sharded execution
//!
//! [`TickEngine::with_threads`] shards each tick across a worker pool: a
//! node becomes runnable once every direct upstream has been visited this
//! tick, so independent subgraphs (one per monitored node in the paper's
//! Figure-4 pipelines) advance in parallel and the `analysis_bb` /
//! `analysis_wb` fan-ins act as a natural per-tick barrier.
//!
//! Serial and sharded execution run on the same three structures, all
//! safe code:
//!
//! * every DAG edge owns one lane, a mutex-guarded `Vec` of hand-off
//!   units: the upstream visit locks and pushes, the downstream merge
//!   locks and drains. A lane has no capacity, so a burst of any size
//!   just grows the `Vec`;
//! * every node sits behind its own mutex: `tick()` reaches it through
//!   `get_mut()`, a pool worker through a `lock()` nobody else contends
//!   for;
//! * intra-tick scheduling is an atomic readiness wavefront — per-node
//!   indegree countdowns plus the claim-based `ReadyList` — which decides
//!   who visits what and in which order. The locks above are never what
//!   orders two visits; a wavefront bug would show as a wrong stream in
//!   `shard_equivalence` or as a deadlock, not as a data race.
//!
//! Envelope routing is clone-free on single-consumer edges: the payload
//! *moves* into the last destination, and fan-out destinations receive
//! shallow `Arc` snapshots ([`Envelope`]'s fields are all `Arc`-backed).
//! `engine.env_clones.<id>` counts routing clones per node — zero on an
//! untapped single-consumer chain.
//!
//! Lanes drain into each consumer in ascending-upstream (= upstream
//! topological) order, which reproduces the serial engine's queue contents
//! *exactly* — the sharded engine is bitwise-equivalent to the serial one
//! (`tests/tests/shard_equivalence.rs` holds the differential harness).
//!
//! # Batched hand-off
//!
//! [`TickEngine::set_batch_size`] raises the lane hand-off granularity:
//! above 1, a producing visit accumulates its deliveries per edge and
//! flushes whole `EnvBatch::Many` batches when the flush watermark (the
//! batch size) is hit and again at end of run. That is the only thing the
//! knob changes: every emission is one [`Envelope`], routed in the order
//! the module emitted it, and every module is entered through
//! [`crate::module::Module::run`]. Batch contents unpack in emission order
//! on the consumer side, so every observable stays bitwise identical to the
//! per-envelope path at any batch size and thread count;
//! `engine.batch_len.<id>` histograms and `engine.batch_flush_total`
//! expose the batch-size distribution actually achieved.
//!
//! Determinism is what makes the reproduction's experiments exactly
//! repeatable. [`crate::online::OnlineEngine`] is this engine behind a
//! pacer — one thread calling [`TickEngine::tick`] at wall-clock deadlines
//! — so an online deployment schedules, routes and batches here too.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use asdf_obs::{Counter, Gauge, Histogram, SpanHandle};
use parking_lot::Mutex;

use crate::dag::{Dag, DagNode};
use crate::error::RunEngineError;
use crate::module::{Envelope, PortId, RunCtx, RunReason};
use crate::time::{TickDuration, Timestamp};
use crate::value::Sample;

/// Whole ticks the coordinator must complete alone (no worker visits)
/// before it stops waking the pool on every tick.
const SOLO_TICKS_BEFORE_LAZY: u32 = 4;

/// While lazily waking, still notify the pool every this-many ticks so
/// workers can re-engage if the DAG starts exposing parallelism again.
const LAZY_PROBE_PERIOD: u64 = 64;

/// A handle to envelopes captured from a tapped instance.
///
/// Taps observe every sample an instance emits, without disturbing routing.
/// They are how tests, evaluation harnesses, and alarm listeners read
/// results out of a running engine.
#[derive(Debug, Clone)]
pub struct TapHandle {
    buffer: Arc<Mutex<Vec<Envelope>>>,
}

impl Default for TapHandle {
    fn default() -> Self {
        TapHandle::new()
    }
}

impl TapHandle {
    pub(crate) fn new() -> Self {
        TapHandle {
            buffer: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Removes and returns all captured envelopes.
    pub fn drain(&self) -> Vec<Envelope> {
        std::mem::take(&mut *self.buffer.lock())
    }

    /// Drains all captured envelopes into `out`, reusing its capacity.
    ///
    /// Equivalent to `out.extend(self.drain())` without the intermediate
    /// allocation: tap-heavy polling loops (the online example's alarm
    /// listener, the differential test harness) take the lock once and
    /// append in place. Returns the number of envelopes moved.
    pub fn drain_into(&self, out: &mut Vec<Envelope>) -> usize {
        let mut buf = self.buffer.lock();
        let n = buf.len();
        out.append(&mut buf);
        n
    }

    /// Returns a copy of the captured envelopes without removing them.
    pub fn snapshot(&self) -> Vec<Envelope> {
        self.buffer.lock().clone()
    }

    /// Number of captured envelopes currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.lock().len()
    }

    /// Whether no envelopes are currently buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.lock().is_empty()
    }

    pub(crate) fn push(&self, env: Envelope) {
        self.buffer.lock().push(env);
    }
}

/// One hand-off unit on an edge lane: a single delivery or a whole batch.
///
/// With the engine's batch size at 1 (the default), every emission takes
/// the allocation-free [`EnvBatch::One`] path and the engine behaves
/// exactly like the historical per-envelope lanes. With a batch size above
/// 1, the producing visit accumulates deliveries per edge and flushes them
/// as [`EnvBatch::Many`] when the flush watermark (the batch size) is
/// reached and at the end of the run, so a batch never spans two runs.
/// Consumers unpack batches in emission order, which keeps the merged queue
/// contents — and therefore every observable — bitwise identical at any
/// batch size.
enum EnvBatch {
    /// A single `(destination slot, envelope)` delivery.
    One(usize, Envelope),
    /// A flushed batch of deliveries for one edge, in emission order.
    Many(Vec<(usize, Envelope)>),
}

/// The per-edge envelope lane, carrying single deliveries or whole batches
/// in push order: a producing visit locks and pushes, the consumer's merge
/// locks and drains. Within a tick the wavefront runs the two strictly one
/// after the other, so the lock is never waited on.
type EnvLane = Mutex<Vec<EnvBatch>>;

/// Static scheduling facts about one node, shared by every engine worker.
///
/// Kept outside the node state so the scheduler can route readiness
/// without touching it.
struct NodePlan {
    /// Distinct downstream node indices, in first-route order.
    downstreams: Vec<usize>,
    /// `(upstream node index, global edge index)` pairs feeding this
    /// node, ascending by upstream index — i.e. upstream *topological*
    /// order, which is exactly the order the serial engine delivers in.
    merge: Vec<(usize, usize)>,
    /// Number of direct upstreams (`merge.len()`): the per-tick readiness
    /// countdown starts here.
    indegree: usize,
}

struct RuntimeNode {
    node: DagNode,
    queues: Vec<VecDeque<Envelope>>,
    pending: usize,
    next_periodic: Option<Timestamp>,
    taps: Vec<TapHandle>,
    /// Slot names, precomputed once so `RunCtx` borrows them instead of
    /// cloning a `Vec<String>` on every run.
    slot_names: Vec<String>,
    /// Per output port: `(global edge index, destination slot)` targets,
    /// the lane-indexed mirror of `DagNode::routes`.
    route_map: Vec<Vec<(usize, usize)>>,
    /// Times every `Module::run` into `engine.run_ns.<id>` (and the trace
    /// recorder while capture is on).
    span: SpanHandle,
    /// Pre-run pending input depth, `engine.lane_depth.<id>` (current +
    /// high-water): the merged backlog the lanes delivered.
    lane_gauge: Arc<Gauge>,
    /// `engine.env_clones.<id>`: `Envelope` clones made while routing this
    /// node's emissions (all shallow `Arc` snapshots). Zero on an untapped
    /// single-consumer chain — the moved-envelope fast path.
    clone_count: Arc<Counter>,
    /// Lane hand-off granularity: 1 = one [`EnvBatch::One`] per emission
    /// (the historical path), >1 = accumulate per-edge batches and flush
    /// at this watermark. Observables are identical at any setting.
    batch_size: usize,
    /// Global index of this node's first outgoing edge; edges are numbered
    /// producer-major, so `edge - first_edge` is the local lane index into
    /// `batch_bufs`.
    first_edge: usize,
    /// Per-outgoing-edge accumulation buffers for the batched path, all
    /// flushed before `run_module` returns (a batch never spans runs).
    batch_bufs: Vec<Vec<(usize, Envelope)>>,
    /// `engine.batch_len.<id>`: log-bucket histogram of flushed batch
    /// lengths — the batch-size distribution this node actually achieves.
    batch_hist: Arc<Histogram>,
    /// Shared handle on `engine.batch_flush_total`: batches flushed into
    /// lanes across the engine (watermark and end-of-run flushes alike).
    flush_count: Arc<Counter>,
    /// Envelope deliveries routed into edge lanes by this node — the
    /// transport volume behind [`TickEngine::envelopes_routed`].
    routed: u64,
}

/// Deterministic simulated-time executor for a module [`Dag`].
///
/// # Examples
///
/// ```
/// use asdf_core::config::Config;
/// use asdf_core::dag::Dag;
/// use asdf_core::engine::TickEngine;
/// use asdf_core::registry::ModuleRegistry;
/// use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
/// use asdf_core::error::ModuleError;
/// use asdf_core::time::TickDuration;
///
/// struct Ticker(Option<PortId>, i64);
/// impl Module for Ticker {
///     fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
///         self.0 = Some(ctx.declare_output("n"));
///         ctx.request_periodic(TickDuration::SECOND);
///         Ok(())
///     }
///     fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
///         self.1 += 1;
///         ctx.emit(self.0.unwrap(), self.1);
///         Ok(())
///     }
/// }
///
/// let mut reg = ModuleRegistry::new();
/// reg.register("ticker", || Box::new(Ticker(None, 0)));
/// let cfg: Config = "[ticker]\nid = t\n".parse()?;
/// let mut engine = TickEngine::new(Dag::build(&reg, &cfg)?);
/// let tap = engine.tap("t").unwrap();
/// engine.run_for(TickDuration::from_secs(3))?;
/// assert_eq!(tap.drain().len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TickEngine {
    /// One lock per node: [`TickEngine::tick`] goes through `get_mut()`,
    /// a pool worker locks the node it claimed for the length of its visit.
    nodes: Vec<Mutex<RuntimeNode>>,
    plan: Vec<NodePlan>,
    /// One [`EnvLane`] per DAG edge, indexed by the global edge ids in
    /// `NodePlan::merge` / `RuntimeNode::route_map`.
    lanes: Box<[EnvLane]>,
    /// Requested engine worker count: `1` = serial, `0` = all available
    /// parallelism, resolved per [`TickEngine::run_for`] call.
    threads: usize,
    /// Lane hand-off granularity, mirrored into every node (see
    /// [`RuntimeNode::batch_size`]); 1 = per-envelope hand-off.
    batch_size: usize,
    now: Timestamp,
    scratch: Vec<(PortId, Sample)>,
    /// Wraps each whole [`TickEngine::tick`], so per-module spans nest
    /// under it in exported traces.
    tick_span: SpanHandle,
    /// Decides once per tick whether that tick's module runs are timed,
    /// so the per-run cost in unsampled ticks is a plain branch. While
    /// tracing is on, every tick is observed (traces stay complete).
    tick_sampler: asdf_obs::Sampler,
    obs_this_tick: bool,
}

impl TickEngine {
    /// Wraps a constructed DAG in a fresh serial engine positioned at the
    /// epoch. Equivalent to [`TickEngine::with_threads`] with one thread.
    ///
    /// Metric handles are resolved here, once — ticking never touches the
    /// registry. Engines running the same configuration (e.g. campaign
    /// repetitions) share the same named metrics and aggregate.
    pub fn new(dag: Dag) -> Self {
        TickEngine::with_threads(dag, 1)
    }

    /// Wraps a constructed DAG in an engine whose [`TickEngine::run_for`]
    /// shards each tick across `threads` workers (`1` = serial, `0` = all
    /// available parallelism).
    ///
    /// Sharded and serial execution are observably identical — same
    /// envelope streams, same tap contents, same error attribution — at
    /// any thread count; the knob only changes wall-clock time.
    pub fn with_threads(dag: Dag, threads: usize) -> Self {
        let reg = asdf_obs::registry();
        let n = dag.nodes.len();

        // Routing plan: collapse each node's `(dst, slot)` routes onto
        // per-downstream edges (one lane each), then invert them into
        // per-consumer merge lists sorted by upstream topological index.
        let mut plan: Vec<NodePlan> = Vec::with_capacity(n);
        let mut route_maps: Vec<Vec<Vec<(usize, usize)>>> = Vec::with_capacity(n);
        let mut first_edges: Vec<usize> = Vec::with_capacity(n);
        let mut edge_count = 0usize;
        for node in &dag.nodes {
            first_edges.push(edge_count);
            let mut downstreams: Vec<usize> = Vec::new();
            // `edge_count + local lane` is the edge's global id: edges are
            // numbered producer-major, lane order within the producer.
            let route_map =
                node.routes
                    .iter()
                    .map(|targets| {
                        targets
                            .iter()
                            .map(|&(dst, slot)| {
                                let lane = downstreams
                                    .iter()
                                    .position(|&d| d == dst)
                                    .unwrap_or_else(|| {
                                        downstreams.push(dst);
                                        downstreams.len() - 1
                                    });
                                (edge_count + lane, slot)
                            })
                            .collect()
                    })
                    .collect();
            edge_count += downstreams.len();
            route_maps.push(route_map);
            plan.push(NodePlan {
                downstreams,
                merge: Vec::new(),
                indegree: 0,
            });
        }
        let mut edge = 0usize;
        for u in 0..n {
            for (lane, dst) in plan[u].downstreams.clone().into_iter().enumerate() {
                debug_assert!(dst > u, "DAG routes must point topologically forward");
                plan[dst].merge.push((u, edge + lane));
            }
            edge += plan[u].downstreams.len();
        }
        for p in &mut plan {
            p.indegree = p.merge.len();
        }
        let lanes: Box<[EnvLane]> = (0..edge_count).map(|_| Mutex::new(Vec::new())).collect();

        let flush_count = reg.counter("engine.batch_flush_total");
        let nodes = dag
            .nodes
            .into_iter()
            .zip(&plan)
            .enumerate()
            .map(|(idx, (node, p))| {
                let span = SpanHandle::new(
                    "engine",
                    node.id.as_str(),
                    reg.histogram(&format!("engine.run_ns.{}", node.id)),
                );
                let lane_gauge = reg.gauge(&format!("engine.lane_depth.{}", node.id));
                let clone_count = reg.counter(&format!("engine.env_clones.{}", node.id));
                let batch_hist = reg.histogram(&format!("engine.batch_len.{}", node.id));
                Mutex::new(RuntimeNode {
                    next_periodic: node.schedule.periodic.map(|_| Timestamp::EPOCH),
                    queues: vec![VecDeque::new(); node.slots.len()],
                    pending: 0,
                    taps: Vec::new(),
                    slot_names: node.slots.iter().map(|s| s.name.clone()).collect(),
                    route_map: route_maps.remove(0),
                    node,
                    span,
                    lane_gauge,
                    clone_count,
                    batch_size: 1,
                    first_edge: first_edges[idx],
                    batch_bufs: vec![Vec::new(); p.downstreams.len()],
                    batch_hist,
                    flush_count: Arc::clone(&flush_count),
                    routed: 0,
                })
            })
            .collect();
        TickEngine {
            nodes,
            plan,
            lanes,
            threads,
            batch_size: 1,
            now: Timestamp::EPOCH,
            scratch: Vec::new(),
            tick_span: SpanHandle::new("engine", "tick", reg.histogram("engine.tick_ns")),
            tick_sampler: asdf_obs::Sampler::new(),
            obs_this_tick: false,
        }
    }

    /// The engine's current time: the timestamp the *next* tick will carry.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The requested engine worker count (`0` = all available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Changes the engine worker count for subsequent
    /// [`TickEngine::run_for`] calls (`1` = serial, `0` = all available
    /// parallelism). Results are identical at any setting.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The current lane batch size (1 = per-envelope hand-off).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Changes the lane hand-off granularity: with `batch_size > 1` each
    /// producing run accumulates per-edge batches and flushes them at this
    /// watermark (and at end of run). Observables — envelope
    /// streams, tap contents, error attribution — are bitwise identical at
    /// any setting and any thread count; the knob only changes hand-off
    /// amortization. `0` is treated as `1`.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        let batch_size = batch_size.max(1);
        self.batch_size = batch_size;
        for rt in &mut self.nodes {
            let rt = rt.get_mut();
            rt.batch_size = batch_size;
            if batch_size > 1 {
                for buf in &mut rt.batch_bufs {
                    buf.reserve(batch_size);
                }
            }
        }
    }

    /// Total envelope deliveries routed into edge lanes since
    /// construction, summed across nodes — the denominator for
    /// envelopes/sec transport throughput (taps and dropped emissions are
    /// not transport and are excluded).
    pub fn envelopes_routed(&self) -> u64 {
        self.nodes.iter().map(|rt| rt.lock().routed).sum()
    }

    /// Registers a tap on the instance with id `id`, returning a handle that
    /// will capture every envelope the instance emits from now on.
    ///
    /// Returns `None` when no instance has that id.
    pub fn tap(&mut self, id: &str) -> Option<TapHandle> {
        let rt = self
            .nodes
            .iter_mut()
            .map(Mutex::get_mut)
            .find(|rt| rt.node.id == id)?;
        let handle = TapHandle::new();
        rt.taps.push(handle.clone());
        Some(handle)
    }

    /// Executes one second of simulated time on the calling thread.
    ///
    /// Every node whose periodic timer is due runs with
    /// [`RunReason::Periodic`]; every node whose pending input count reaches
    /// its trigger runs with [`RunReason::InputsReady`] (at most once per
    /// tick). Nodes are processed in topological order, so data flows end to
    /// end within the tick.
    ///
    /// # Errors
    ///
    /// Propagates the first module failure as a [`RunEngineError`]; the
    /// engine should be discarded afterwards.
    pub fn tick(&mut self) -> Result<(), RunEngineError> {
        self.obs_this_tick =
            asdf_obs::enabled() && (asdf_obs::tracing_on() || self.tick_sampler.sample());
        let obs = self.obs_this_tick;
        let tick_span = self.tick_span.clone();
        let _tick_timer = obs.then(|| tick_span.enter_forced());
        let now = self.now;
        let mut scratch = std::mem::take(&mut self.scratch);
        let (plan, lanes) = (&self.plan, &self.lanes);
        let result = self.nodes.iter_mut().zip(plan).try_for_each(|(rt, p)| {
            let rt = rt.get_mut();
            deliver_inbox(rt, &p.merge, lanes);
            visit_node(rt, lanes, now, obs, &mut scratch)
        });
        self.scratch = scratch;
        result?;
        self.now = self.now.next();
        Ok(())
    }

    /// Runs [`TickEngine::tick`] once per second for `span`, sharding each
    /// tick across the configured worker count when it exceeds one.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first module failure — attributed to the
    /// topologically-first failing instance, exactly as the serial engine
    /// reports it. (When sharded, the remaining nodes of the failing tick
    /// still complete their visits before the error is surfaced; the engine
    /// should be discarded either way.)
    pub fn run_for(&mut self, span: TickDuration) -> Result<(), RunEngineError> {
        let ticks = span.as_secs();
        let workers = resolve_engine_threads(self.threads).min(self.nodes.len().max(1));
        if workers <= 1 {
            for _ in 0..ticks {
                self.tick()?;
            }
            return Ok(());
        }
        self.run_sharded(ticks, workers)
    }

    /// The sharded `run_for` body: spawns `workers - 1` scoped workers
    /// (the calling thread is worker 0) that live for the whole run, and
    /// drives one readiness wavefront per tick.
    fn run_sharded(&mut self, ticks: u64, workers: usize) -> Result<(), RunEngineError> {
        let reg = asdf_obs::registry();
        reg.gauge("engine.shard.workers").set(workers as i64);
        let n = self.nodes.len();
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // An oversubscribed pool (workers >= cores — notably every 1-core
        // box) must park almost immediately: a spinning worker only steals
        // quanta from the coordinator doing the actual visits. With spare
        // cores, a long spin keeps the microsecond inter-tick gap cheaper
        // than a futex round-trip per tick.
        let spin_budget: u32 = if workers >= cores { 64 } else { 1 << 14 };
        let run = ShardRun {
            nodes: &self.nodes,
            lanes: &self.lanes,
            plan: &self.plan,
            remaining: self.plan.iter().map(|_| AtomicUsize::new(0)).collect(),
            ready: ReadyList::new(n),
            visited: AtomicUsize::new(n),
            now_secs: AtomicU64::new(0),
            obs_tick: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            gate: StdMutex::new(0),
            gate_cv: Condvar::new(),
            spin_budget,
            error: Mutex::new(None),
            ready_depth: reg.gauge("engine.shard.ready_depth"),
            park_count: reg.counter("engine.shard.park_total"),
            slot_spin: reg.counter("engine.shard.slot_spin_total"),
            drain_span: (0..workers)
                .map(|w| {
                    SpanHandle::new(
                        "engine",
                        format!("shard{w}"),
                        reg.histogram(&format!("engine.shard.drain_ns.w{w}")),
                    )
                })
                .collect(),
            visit_count: (0..workers)
                .map(|w| reg.counter(&format!("engine.shard.visits.w{w}")))
                .collect(),
        };
        let result = std::thread::scope(|s| {
            {
                let run = &run;
                for w in 1..workers {
                    s.spawn(move || run.worker_loop(w));
                }
            }
            // Stop the pool even if a tick below panics, else the scope's
            // implicit join would hang on the parked workers.
            let _stop = StopPoolOnDrop(&run);
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut out = Ok(());
            let mut solo_streak: u32 = 0;
            for t in 0..ticks {
                let obs =
                    asdf_obs::enabled() && (asdf_obs::tracing_on() || self.tick_sampler.sample());
                self.obs_this_tick = obs;
                let tick_span = self.tick_span.clone();
                let _tick_timer = obs.then(|| tick_span.enter_forced());
                run.prepare_tick(self.now, obs);
                // Lazy wake: after the coordinator has cleared several
                // whole ticks without any worker help (the common case on
                // one core, where waking parked workers is pure futex
                // overhead), stop notifying except for a periodic probe.
                // Spinning workers keep observing generation regardless.
                let wake = solo_streak < SOLO_TICKS_BEFORE_LAZY || t % LAZY_PROBE_PERIOD == 0;
                run.release_tick(wake);
                let own = run.drain(0, &mut scratch);
                if !run.wait_tick_done() {
                    // A worker's visit panicked: leave, and let the scope's
                    // join below re-raise it on this thread.
                    break;
                }
                solo_streak = if own >= n as u64 {
                    solo_streak.saturating_add(1)
                } else {
                    0
                };
                if let Some((_, err)) = run.error.lock().take() {
                    out = Err(err);
                    break;
                }
                self.now = self.now.next();
            }
            self.scratch = scratch;
            out
        });
        result
    }
}

/// Resolves a requested engine worker count (`0` = all available cores).
fn resolve_engine_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Drains every upstream edge lane feeding `dst` into its input queues, in
/// upstream topological order (`merge` is sorted that way). Every upstream
/// has been visited this tick by the time a node is merged — in index order
/// serially, by the wavefront when sharded — so nobody is producing into
/// these lanes while they drain.
fn deliver_inbox(dst: &mut RuntimeNode, merge: &[(usize, usize)], lanes: &[EnvLane]) {
    for &(_u, edge) in merge {
        for batch in lanes[edge].lock().drain(..) {
            match batch {
                EnvBatch::One(slot, env) => {
                    dst.queues[slot].push_back(env);
                    dst.pending += 1;
                }
                EnvBatch::Many(items) => {
                    dst.pending += items.len();
                    for (slot, env) in items {
                        dst.queues[slot].push_back(env);
                    }
                }
            }
        }
    }
}

/// Visits one node for the tick `now`: periodic run if due, then
/// input-triggered run if enough samples accumulated. Shared verbatim by
/// the serial and sharded schedulers, so the two paths cannot drift.
fn visit_node(
    rt: &mut RuntimeNode,
    lanes: &[EnvLane],
    now: Timestamp,
    obs: bool,
    scratch: &mut Vec<(PortId, Sample)>,
) -> Result<(), RunEngineError> {
    if let Some(due) = rt.next_periodic {
        if due <= now {
            let period = rt
                .node
                .schedule
                .periodic
                .expect("next_periodic implies periodic schedule");
            rt.next_periodic = Some(now + period);
            run_module(rt, lanes, now, RunReason::Periodic, obs, scratch)?;
        }
    }
    let trigger = rt.node.schedule.input_trigger;
    if trigger > 0 && rt.pending >= trigger {
        run_module(rt, lanes, now, RunReason::InputsReady, obs, scratch)?;
    }
    Ok(())
}

/// Runs a node's module once and routes its emissions into taps and the
/// per-edge lanes (consumed by each destination's visit).
///
/// Routing is clone-free on the last destination: the envelope *moves*
/// into the final lane (or the final tap, when unrouted), and only fan-out
/// copies — all shallow `Arc` snapshots — are counted into
/// `engine.env_clones.<id>`.
fn run_module(
    rt: &mut RuntimeNode,
    lanes: &[EnvLane],
    now: Timestamp,
    reason: RunReason,
    obs: bool,
    emitted: &mut Vec<(PortId, Sample)>,
) -> Result<(), RunEngineError> {
    debug_assert!(emitted.is_empty());
    // Input depth peaks right before a run consumes the backlog, so one
    // set here captures the high-water mark without a gauge write on
    // every single delivery in the merge loop.
    if obs {
        rt.lane_gauge.set(rt.pending as i64);
    }
    let mut ctx = RunCtx {
        now,
        slot_names: &rt.slot_names,
        queues: &mut rt.queues,
        emitted,
        n_outputs: rt.node.outputs.len(),
    };
    let result = {
        let _timer = obs.then(|| rt.span.enter_forced());
        rt.node.module.run(&mut ctx, reason)
    };
    rt.pending = rt.queues.iter().map(VecDeque::len).sum();
    if let Err(source) = result {
        emitted.clear();
        return Err(RunEngineError {
            instance: rt.node.id.clone(),
            at_secs: now.as_secs(),
            source,
        });
    }
    let mut tally = RouteTally::default();
    for (port, sample) in emitted.drain(..) {
        let env = Envelope {
            source: Arc::clone(&rt.node.outputs[port.index()]),
            sample,
        };
        if !rt.route_map[port.index()].is_empty() {
            tap_and_route(rt, lanes, port.index(), env, &mut tally);
        } else if let Some((last, rest)) = rt.taps.split_last() {
            for tap in rest {
                tap.push(env.clone());
                tally.clones += 1;
            }
            last.push(env);
        }
        // No routes and no taps: the envelope is dropped without a clone.
    }
    let batch_size = rt.batch_size;
    if batch_size > 1 {
        // End-of-run flush: whatever accumulated below the watermark goes
        // out now, so a batch never spans two runs and downstream visits
        // this tick see everything the serial per-envelope path would.
        for lane_idx in 0..rt.batch_bufs.len() {
            if !rt.batch_bufs[lane_idx].is_empty() {
                let edge = rt.first_edge + lane_idx;
                let buf = &mut rt.batch_bufs[lane_idx];
                flush_batch(lanes, edge, buf, batch_size, &rt.batch_hist);
                tally.flushes += 1;
            }
        }
    }
    if tally.clones > 0 {
        rt.clone_count.add(tally.clones);
    }
    if tally.flushes > 0 {
        rt.flush_count.add(tally.flushes);
    }
    Ok(())
}

/// Routing counts of one module run, added to the shared metrics once at
/// its end.
#[derive(Default)]
struct RouteTally {
    clones: u64,
    flushes: u64,
}

/// Copies one emitted envelope of output `port` to every tap, then routes
/// it.
fn tap_and_route(
    rt: &mut RuntimeNode,
    lanes: &[EnvLane],
    port: usize,
    env: Envelope,
    tally: &mut RouteTally,
) {
    for tap in &rt.taps {
        tap.push(env.clone());
        tally.clones += 1;
    }
    let Some((&(last_edge, last_slot), rest)) = rt.route_map[port].split_last() else {
        return;
    };
    rt.routed += rest.len() as u64 + 1;
    tally.clones += rest.len() as u64;
    let batch_size = rt.batch_size;
    if batch_size > 1 {
        // Whatever stays below the watermark goes out at end of run.
        let mut stage = |edge: usize, slot: usize, env: Envelope| {
            let buf = &mut rt.batch_bufs[edge - rt.first_edge];
            buf.push((slot, env));
            if buf.len() >= batch_size {
                flush_batch(lanes, edge, buf, batch_size, &rt.batch_hist);
                tally.flushes += 1;
            }
        };
        for &(edge, slot) in rest {
            stage(edge, slot, env.clone());
        }
        stage(last_edge, last_slot, env);
    } else {
        for &(edge, slot) in rest {
            lanes[edge].lock().push(EnvBatch::One(slot, env.clone()));
        }
        lanes[last_edge].lock().push(EnvBatch::One(last_slot, env));
    }
}

/// Pushes one accumulated batch into its edge lane, recording its length
/// into the node's `engine.batch_len.<id>` histogram. A one-element batch
/// degrades to the allocation-free [`EnvBatch::One`]; larger ones hand the
/// buffer off wholesale, leaving a fresh watermark-capacity buffer behind
/// so the next accumulation never re-grows through doubling reallocations.
fn flush_batch(
    lanes: &[EnvLane],
    edge: usize,
    buf: &mut Vec<(usize, Envelope)>,
    batch_size: usize,
    hist: &Histogram,
) {
    hist.record(buf.len() as u64);
    let batch = if buf.len() == 1 {
        let (slot, env) = buf.pop().expect("flush_batch requires a non-empty buffer");
        EnvBatch::One(slot, env)
    } else {
        EnvBatch::Many(std::mem::replace(buf, Vec::with_capacity(batch_size)))
    };
    lanes[edge].lock().push(batch);
}

/// Sentinel marking a [`ReadyList`] slot that has been reserved but not
/// yet published.
const EMPTY: usize = usize::MAX;

/// The atomic readiness wavefront behind one sharded tick.
///
/// A fixed array of `n` publish slots (one per DAG node — every node
/// enters the ready set exactly once per tick) plus two cursors:
///
/// * **publish** — [`ReadyList::push`] reserves the next slot with one
///   `fetch_add` and release-stores the node index into it;
/// * **claim** — [`ReadyList::claim`] hands each caller a strictly
///   distinct slot with one `fetch_add`. A claim at or past `n` means
///   every node of the tick is already owned by some worker, i.e. the
///   claimant is done; a claimed slot that is still `EMPTY` simply has
///   not been published yet, and [`ReadyList::wait`] spins for it.
///
/// Claims are unique, so the node behind a claimed slot is visited by the
/// claimant alone and its mutex is never contended. Between ticks the
/// coordinator calls [`ReadyList::reset`]; its final release store on the
/// claim cursor publishes the wiped slots to any straggling claimant.
struct ReadyList {
    slots: Box<[AtomicUsize]>,
    claim: AtomicUsize,
    publish: AtomicUsize,
}

impl ReadyList {
    /// Creates a wavefront list for `n` nodes.
    fn new(n: usize) -> Self {
        ReadyList {
            slots: (0..n).map(|_| AtomicUsize::new(EMPTY)).collect(),
            claim: AtomicUsize::new(0),
            publish: AtomicUsize::new(0),
        }
    }

    /// Rearms the list for a new tick. Caller must guarantee the previous
    /// tick is fully drained (every slot claimed *and* visited); the
    /// engine's coordinator does, by waiting for the visited count.
    ///
    /// The claim-cursor store is intentionally last and `Release`: a
    /// straggler's next claim acquires it and therefore observes every
    /// wiped slot, never a stale node index.
    fn reset(&self) {
        for s in self.slots.iter() {
            s.store(EMPTY, Ordering::Relaxed);
        }
        self.publish.store(0, Ordering::Relaxed);
        self.claim.store(0, Ordering::Release);
    }

    /// Publishes `idx` as ready. May be called concurrently from any
    /// worker; each call takes a distinct slot.
    ///
    /// # Panics
    ///
    /// Panics (debug) if more than `n` nodes are pushed in one tick —
    /// that would mean a node entered the wavefront twice.
    fn push(&self, idx: usize) {
        let t = self.publish.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            t < self.slots.len(),
            "node {idx} entered the wavefront twice"
        );
        self.slots[t].store(idx, Ordering::Release);
    }

    /// Reserves the next unclaimed slot, or `None` when every slot of
    /// this tick is already owned (the claimant's drain is over).
    fn claim(&self) -> Option<usize> {
        let h = self.claim.fetch_add(1, Ordering::AcqRel);
        (h < self.slots.len()).then_some(h)
    }

    /// Spins until the claimed slot `h` is published, returning the node
    /// index — or `None` when `give_up` says to stop (shutdown). The
    /// closure runs once per spin iteration; callers put their yield /
    /// contention-counting policy there.
    fn wait(&self, h: usize, mut give_up: impl FnMut() -> bool) -> Option<usize> {
        loop {
            let v = self.slots[h].load(Ordering::Acquire);
            if v != EMPTY {
                return Some(v);
            }
            if give_up() {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Published-but-unclaimed count (the instantaneous runnable-set
    /// size; saturates at zero when claims have overshot).
    fn depth(&self) -> usize {
        let p = self.publish.load(Ordering::Relaxed);
        let c = self.claim.load(Ordering::Relaxed);
        p.saturating_sub(c)
    }
}

/// Shared scheduler state for one sharded `run_for` call.
///
/// Each tick is a readiness wavefront: `remaining[idx]` counts unvisited
/// direct upstreams; the worker that decrements it to zero publishes the
/// node to `ready`; the claiming worker drains the node's edge lanes in
/// upstream topo order and visits it. `visited == n` ends the tick. The
/// node and lane mutexes are never waited on (claims are unique, and a
/// lane's producer finishes before its consumer is published); the gate
/// below is only the between-ticks parking lot.
struct ShardRun<'a> {
    nodes: &'a [Mutex<RuntimeNode>],
    lanes: &'a [EnvLane],
    plan: &'a [NodePlan],
    remaining: Vec<AtomicUsize>,
    /// The claim-based wavefront list (see [`ReadyList`]).
    ready: ReadyList,
    /// Nodes visited this tick.
    visited: AtomicUsize,
    now_secs: AtomicU64,
    obs_tick: AtomicBool,
    /// Tick generation: workers drain once per increment.
    generation: AtomicU64,
    /// The run is over: set by the coordinator on its way out, or by a
    /// visit that unwinds (a module panic) — the node it held is never
    /// counted into `visited`, so every wait in the pool also gives up on
    /// this flag instead of spinning for a tick that cannot finish.
    shutdown: AtomicBool,
    /// Between-ticks parking lot; the guarded value counts parked workers
    /// so the coordinator can skip `notify_all` when nobody is waiting.
    gate: StdMutex<usize>,
    gate_cv: Condvar,
    /// Spins a worker burns between ticks before parking on the gate.
    spin_budget: u32,
    /// First failure of the tick, kept at the smallest node index so the
    /// attribution matches the serial engine's first-in-topo-order stop.
    error: Mutex<Option<(usize, RunEngineError)>>,
    /// `engine.shard.ready_depth` high-water: instantaneous runnable-set
    /// size, a direct read on how much parallelism the DAG exposes.
    ready_depth: Arc<Gauge>,
    /// `engine.shard.park_total`: worker park events (gate contention).
    park_count: Arc<Counter>,
    /// `engine.shard.slot_spin_total`: spins spent waiting on a claimed
    /// wavefront slot before its node was published.
    slot_spin: Arc<Counter>,
    /// Per-worker drain timers, `engine.shard.drain_ns.w<i>`.
    drain_span: Vec<SpanHandle>,
    /// Per-worker visit totals, `engine.shard.visits.w<i>`: the
    /// load-balance picture across shards.
    visit_count: Vec<Arc<Counter>>,
}

impl ShardRun<'_> {
    /// Rearms the wavefront for the tick carrying `now`. Coordinator-only,
    /// and only between exhausted ticks: the previous tick's `visited`
    /// reached `n`, which implies its claim cursor also reached `n` —
    /// any straggler's further claims return `None`, and no straggler is
    /// still waiting on a slot (a pending wait would mean an unvisited
    /// node). The ready-list reset's final release store publishes every
    /// write below to the first claimant of the new tick.
    fn prepare_tick(&self, now: Timestamp, obs: bool) {
        self.now_secs.store(now.as_secs(), Ordering::Relaxed);
        self.obs_tick.store(obs, Ordering::Relaxed);
        self.visited.store(0, Ordering::Relaxed);
        for (r, p) in self.remaining.iter().zip(self.plan) {
            r.store(p.indegree, Ordering::Relaxed);
        }
        self.ready.reset();
        for (idx, p) in self.plan.iter().enumerate() {
            if p.indegree == 0 {
                self.ready.push(idx);
            }
        }
    }

    /// Publishes the prepared tick to the worker pool. `wake` controls
    /// whether parked workers are notified (the lazy-wake policy); the
    /// generation bump happens under the gate lock either way, so a
    /// worker checking the generation before parking cannot miss it.
    fn release_tick(&self, wake: bool) {
        let parked = {
            let g = self.gate.lock().expect("engine gate never poisoned");
            self.generation.fetch_add(1, Ordering::Release);
            *g
        };
        if wake && parked > 0 {
            self.gate_cv.notify_all();
        }
    }

    /// Ends the run: every wait in the pool gives up and every worker
    /// leaves its loop. Idempotent.
    fn stop_workers(&self) {
        let _g = self.gate.lock().expect("engine gate never poisoned");
        self.shutdown.store(true, Ordering::Release);
        self.gate_cv.notify_all();
    }

    /// Body of workers 1..n: drain one wavefront per generation, spinning
    /// briefly between ticks before parking on the gate.
    fn worker_loop(&self, w: usize) {
        let mut scratch = Vec::new();
        let mut seen = 0u64;
        let mut spins: u32 = 0;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let gen = self.generation.load(Ordering::Acquire);
            if gen != seen {
                seen = gen;
                spins = 0;
                self.drain(w, &mut scratch);
                continue;
            }
            if spins < self.spin_budget {
                spins += 1;
                std::hint::spin_loop();
                if spins & 63 == 0 {
                    std::thread::yield_now();
                }
            } else {
                let mut g = self.gate.lock().expect("engine gate never poisoned");
                *g += 1;
                while !self.shutdown.load(Ordering::Acquire)
                    && self.generation.load(Ordering::Acquire) == seen
                {
                    g = self.gate_cv.wait(g).expect("engine gate never poisoned");
                }
                *g -= 1;
                drop(g);
                spins = 0;
                self.park_count.inc();
            }
        }
    }

    /// Claims and visits wavefront slots until the tick's claims are
    /// exhausted (or shutdown). Returns this call's visit count.
    fn drain(&self, w: usize, scratch: &mut Vec<(PortId, Sample)>) -> u64 {
        // Armed for the whole drain and disarmed on the way out: a visit
        // that unwinds (a module panic) never counts its node into
        // `visited`, so without this the worker would die alone and the
        // coordinator would wait forever for a tick that cannot finish.
        let stop_if_unwinding = StopPoolOnDrop(self);
        let _timer = self
            .obs_tick
            .load(Ordering::Relaxed)
            .then(|| self.drain_span[w].enter_forced());
        let mut visits = 0u64;
        let mut slot_spins = 0u64;
        while let Some(h) = self.ready.claim() {
            let mut polls = 0u32;
            let claimed = self.ready.wait(h, || {
                slot_spins += 1;
                polls = polls.wrapping_add(1);
                if polls & 127 == 0 {
                    std::thread::yield_now();
                }
                self.shutdown.load(Ordering::Acquire)
            });
            let Some(idx) = claimed else { break };
            visits += 1;
            // Tick context is re-read per node, not cached per drain: a
            // straggler drain may claim into the *next* tick's wavefront
            // and must stamp its nodes with the new tick's time.
            let now = Timestamp::from_secs(self.now_secs.load(Ordering::Relaxed));
            let obs = self.obs_tick.load(Ordering::Relaxed);
            {
                // The claim is unique and each node is published once per
                // tick, so nobody else wants this lock before `visited`
                // counts the visit below.
                let mut rt = self.nodes[idx].lock();
                deliver_inbox(&mut rt, &self.plan[idx].merge, self.lanes);
                if let Err(err) = visit_node(&mut rt, self.lanes, now, obs, scratch) {
                    let mut slot = self.error.lock();
                    if slot.as_ref().is_none_or(|(i, _)| idx < *i) {
                        *slot = Some((idx, err));
                    }
                }
            }
            for &d in &self.plan[idx].downstreams {
                if self.remaining[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.ready.push(d);
                    if obs {
                        self.ready_depth.set(self.ready.depth() as i64);
                    }
                }
            }
            self.visited.fetch_add(1, Ordering::Release);
        }
        if visits > 0 {
            self.visit_count[w].add(visits);
        }
        if slot_spins > 0 {
            self.slot_spin.add(slot_spins);
        }
        std::mem::forget(stop_if_unwinding);
        visits
    }

    /// Coordinator-side tick barrier: spins until every node of the tick
    /// has been visited and returns `true` — or `false` when the run died
    /// under it (a visit unwound on some worker) and the tick never will
    /// finish. The acquire load pairs with each visitor's release
    /// increment, so any error slot write is visible once this returns.
    fn wait_tick_done(&self) -> bool {
        let n = self.nodes.len();
        let mut spins: u32 = 0;
        while self.visited.load(Ordering::Acquire) < n {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            spins = spins.wrapping_add(1);
            std::hint::spin_loop();
            if spins & 63 == 0 {
                std::thread::yield_now();
            }
        }
        true
    }
}

/// Shuts the worker pool down when dropped, including on unwind.
struct StopPoolOnDrop<'a, 'b>(&'a ShardRun<'b>);

impl Drop for StopPoolOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.stop_workers();
    }
}

impl std::fmt::Debug for TickEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickEngine")
            .field("now", &self.now)
            .field("threads", &self.threads)
            .field("batch_size", &self.batch_size)
            .field("nodes", &self.nodes.len())
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::error::ModuleError;
    use crate::module::{InitCtx, Module};
    use crate::registry::ModuleRegistry;
    use crate::value::Value;

    /// Emits its tick count every `period` seconds.
    struct Source {
        port: Option<PortId>,
        count: i64,
    }
    impl Module for Source {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            let period = ctx.parse_param_or("period", 1u64)?;
            ctx.request_periodic(TickDuration::from_secs(period));
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
            assert_eq!(reason, RunReason::Periodic);
            self.count += 1;
            ctx.emit(self.port.unwrap(), self.count);
            Ok(())
        }
    }

    /// Emits `burst` consecutive samples every tick, all onto one edge.
    struct Burst {
        port: Option<PortId>,
        burst: i64,
        count: i64,
    }
    impl Module for Burst {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            self.burst = ctx.parse_param_or("burst", 1i64)?;
            ctx.request_periodic(TickDuration::SECOND);
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

    /// Sums everything it receives and re-emits the running total.
    struct Accumulator {
        port: Option<PortId>,
        total: i64,
    }
    impl Module for Accumulator {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("total"));
            let trigger = ctx.parse_param_or("trigger", 1usize)?;
            ctx.set_input_trigger(trigger);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
            assert_eq!(reason, RunReason::InputsReady);
            for (_, env) in ctx.take_all() {
                self.total += env.sample.value.as_int().unwrap_or(0);
            }
            ctx.emit(self.port.unwrap(), self.total);
            Ok(())
        }
    }

    /// Emits `burst` deterministic vector rows per tick.
    struct RowBurst {
        port: Option<PortId>,
        burst: usize,
        dim: usize,
        count: u64,
    }
    impl Module for RowBurst {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("rows"));
            self.burst = ctx.parse_param_or("burst", 1usize)?;
            self.dim = ctx.parse_param_or("dim", 3usize)?;
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            let mut row = vec![0.0; self.dim];
            for _ in 0..self.burst {
                self.count += 1;
                for (j, x) in row.iter_mut().enumerate() {
                    *x = (self.count * 31 + j as u64) as f64 * 0.5;
                }
                ctx.emit(self.port.unwrap(), row.as_slice());
            }
            Ok(())
        }
    }

    /// Order-sensitive fold over numeric samples: each component feeds a
    /// non-commutative accumulator, so any reordering, loss, or duplication
    /// anywhere upstream changes every digest after it.
    struct RowFold {
        digest: Option<PortId>,
        acc: f64,
    }
    impl Module for RowFold {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.digest = Some(ctx.declare_output("digest"));
            let trigger = ctx.parse_param_or("trigger", 1usize)?;
            ctx.set_input_trigger(trigger);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            for (_, env) in ctx.drain_all() {
                let t = env.sample.timestamp.as_secs() as f64;
                let mut fold = |x: f64| self.acc = self.acc.mul_add(1.000_000_1, x + t);
                match &env.sample.value {
                    Value::Vector(v) => v.iter().copied().for_each(fold),
                    Value::Int(x) => fold(*x as f64),
                    Value::Float(x) => fold(*x),
                    _ => {}
                }
            }
            ctx.emit(self.digest.unwrap(), self.acc);
            Ok(())
        }
    }

    /// Emits `Int, vector, Int, vector, vector` on one port every tick: a
    /// run's emissions leave in the order the module made them, scalars and
    /// rows alike.
    struct MixedEmit {
        port: Option<PortId>,
        count: u64,
    }
    impl Module for MixedEmit {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            let port = self.port.unwrap();
            for scalar in [true, false, true, false, false] {
                self.count += 1;
                let x = self.count as f64;
                if scalar {
                    ctx.emit(port, self.count as i64);
                } else {
                    ctx.emit(port, vec![x, -x]);
                }
            }
            Ok(())
        }
    }

    /// Alternates rows-only and scalar-only ticks on one port, so a
    /// consumer whose trigger spans both sees rows queued ahead of a later
    /// scalar.
    struct PhasedEmit {
        port: Option<PortId>,
        count: u64,
        tick: u64,
    }
    impl Module for PhasedEmit {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            let port = self.port.unwrap();
            self.tick += 1;
            if self.tick % 2 == 1 {
                for _ in 0..3 {
                    self.count += 1;
                    ctx.emit(port, vec![self.count as f64 * 0.25, self.count as f64]);
                }
            } else {
                self.count += 1;
                ctx.emit(port, self.count as i64);
            }
            Ok(())
        }
    }

    /// Emits one row per tick on `heard` and, unless `sibling = 0`, its
    /// negation on `unheard` — a port the test configs wire to nothing.
    struct TwoPorts {
        heard: Option<PortId>,
        unheard: Option<PortId>,
        sibling: bool,
        count: u64,
    }
    impl Module for TwoPorts {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.heard = Some(ctx.declare_output("heard"));
            self.unheard = Some(ctx.declare_output("unheard"));
            self.sibling = ctx.parse_param_or("sibling", 1u8)? != 0;
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.count += 1;
            let x = self.count as f64;
            ctx.emit(self.heard.unwrap(), vec![x, x + 0.5]);
            if self.sibling {
                ctx.emit(self.unheard.unwrap(), vec![-x, -x - 0.5]);
            }
            Ok(())
        }
    }

    struct FailAt {
        at: i64,
        count: i64,
    }
    impl Module for FailAt {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.at = ctx.parse_param("at")?;
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.count += 1;
            if self.count >= self.at {
                return Err(ModuleError::Other("deliberate failure".into()));
            }
            Ok(())
        }
    }

    /// Panics when run on any thread but the one that built it: a module
    /// bug that only a pool worker's visit can hit.
    struct PanicOffThread {
        home: std::thread::ThreadId,
    }
    impl Module for PanicOffThread {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            assert!(
                std::thread::current().id() == self.home,
                "deliberate panic off the constructing thread"
            );
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        reg.register("source", || {
            Box::new(Source {
                port: None,
                count: 0,
            })
        });
        reg.register("burst", || {
            Box::new(Burst {
                port: None,
                burst: 1,
                count: 0,
            })
        });
        reg.register("acc", || {
            Box::new(Accumulator {
                port: None,
                total: 0,
            })
        });
        reg.register("failat", || Box::new(FailAt { at: 0, count: 0 }));
        reg.register("panicoff", || {
            Box::new(PanicOffThread {
                home: std::thread::current().id(),
            })
        });
        reg.register("rowburst", || {
            Box::new(RowBurst {
                port: None,
                burst: 1,
                dim: 3,
                count: 0,
            })
        });
        reg.register("rowfold", || {
            Box::new(RowFold {
                digest: None,
                acc: 0.0,
            })
        });
        reg.register("mixed", || {
            Box::new(MixedEmit {
                port: None,
                count: 0,
            })
        });
        reg.register("twoports", || {
            Box::new(TwoPorts {
                heard: None,
                unheard: None,
                sibling: true,
                count: 0,
            })
        });
        reg.register("phased", || {
            Box::new(PhasedEmit {
                port: None,
                count: 0,
                tick: 0,
            })
        });
        reg
    }

    fn engine(cfg: &str) -> TickEngine {
        engine_with_threads(cfg, 1)
    }

    fn engine_with_threads(cfg: &str, threads: usize) -> TickEngine {
        let cfg: Config = cfg.parse().unwrap();
        TickEngine::with_threads(Dag::build(&registry(), &cfg).unwrap(), threads)
    }

    #[test]
    fn periodic_source_fires_once_per_period() {
        let mut eng = engine("[source]\nid = s\nperiod = 2\n");
        let tap = eng.tap("s").unwrap();
        eng.run_for(TickDuration::from_secs(6)).unwrap();
        // Due at t=0, 2, 4 (t=6 not yet processed).
        let samples = tap.drain();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].sample.timestamp, Timestamp::from_secs(0));
        assert_eq!(samples[2].sample.timestamp, Timestamp::from_secs(4));
    }

    #[test]
    fn data_flows_end_to_end_within_one_tick() {
        let mut eng = engine("[source]\nid = s\n\n[acc]\nid = a\ninput[i] = s.out\n");
        let tap = eng.tap("a").unwrap();
        eng.tick().unwrap();
        let got = tap.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].sample.value, Value::Int(1));
        assert_eq!(got[0].sample.timestamp, Timestamp::EPOCH);
    }

    #[test]
    fn accumulator_sums_across_ticks() {
        let mut eng = engine("[source]\nid = s\n\n[acc]\nid = a\ninput[i] = s.out\n");
        let tap = eng.tap("a").unwrap();
        eng.run_for(TickDuration::from_secs(4)).unwrap();
        let got = tap.drain();
        // Source emits 1,2,3,4 -> totals 1,3,6,10.
        let totals: Vec<i64> = got
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert_eq!(totals, [1, 3, 6, 10]);
    }

    #[test]
    fn input_trigger_batches_runs() {
        let mut eng = engine("[source]\nid = s\n\n[acc]\nid = a\ntrigger = 3\ninput[i] = s.out\n");
        let tap = eng.tap("a").unwrap();
        eng.run_for(TickDuration::from_secs(7)).unwrap();
        // Runs at t=2 (samples 1+2+3=6) and t=5 (4+5+6 -> 21).
        let totals: Vec<i64> = tap
            .drain()
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert_eq!(totals, [6, 21]);
    }

    #[test]
    fn module_failure_aborts_with_attribution() {
        let mut eng = engine("[failat]\nid = f\nat = 3\n");
        let err = eng.run_for(TickDuration::from_secs(10)).unwrap_err();
        assert_eq!(err.instance, "f");
        assert_eq!(err.at_secs, 2);
    }

    #[test]
    fn sharded_failure_matches_serial_attribution() {
        // Two independent failing chains: the reported error must name the
        // topologically-first one, exactly as the serial engine does.
        let cfg = "[failat]\nid = f1\nat = 3\n\n[failat]\nid = f2\nat = 3\n";
        let serial = engine(cfg)
            .run_for(TickDuration::from_secs(10))
            .unwrap_err();
        let sharded = engine_with_threads(cfg, 4)
            .run_for(TickDuration::from_secs(10))
            .unwrap_err();
        assert_eq!(serial.instance, sharded.instance);
        assert_eq!(serial.at_secs, sharded.at_secs);
    }

    #[test]
    fn a_module_panic_on_a_worker_thread_propagates_instead_of_hanging() {
        // The body runs on a helper thread so a hang fails this test after
        // 10 s instead of wedging the test binary: `run_for` must panic
        // (the scope's join re-raises the worker's panic), not return and
        // not spin on a tick that can no longer finish.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg: String = (0..64)
                .map(|i| format!("[panicoff]\nid = p{i}\n\n"))
                .collect();
            let mut eng = engine_with_threads(&cfg, 2);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Worker 1 may lose the race for every node of a tick;
                // keep ticking until it wins one.
                loop {
                    eng.run_for(TickDuration::from_secs(1000)).unwrap();
                }
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_for hung after a module panicked on a worker thread");
        assert!(panicked);
    }

    #[test]
    fn ready_list_claims_are_distinct_and_exhaust() {
        let list = ReadyList::new(3);
        list.push(10);
        list.push(11);
        list.push(12);
        let mut got: Vec<usize> = (0..3)
            .map(|_| {
                let h = list.claim().unwrap();
                list.wait(h, || false).unwrap()
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, [10, 11, 12]);
        assert!(list.claim().is_none(), "fourth claim sees exhaustion");
        list.reset();
        list.push(7);
        let h = list.claim().unwrap();
        assert_eq!(list.wait(h, || false), Some(7));
    }

    #[test]
    fn ready_list_wait_gives_up_on_request() {
        let list = ReadyList::new(2);
        let h = list.claim().unwrap();
        let mut polls = 0;
        let got = list.wait(h, || {
            polls += 1;
            polls > 3
        });
        assert_eq!(got, None);
        assert!(polls > 3);
    }

    #[test]
    fn ready_list_depth_tracks_publish_minus_claim() {
        let list = ReadyList::new(4);
        assert_eq!(list.depth(), 0);
        list.push(0);
        list.push(1);
        assert_eq!(list.depth(), 2);
        let _ = list.claim();
        assert_eq!(list.depth(), 1);
    }

    #[test]
    fn tap_on_unknown_instance_is_none() {
        let mut eng = engine("[source]\nid = s\n");
        assert!(eng.tap("ghost").is_none());
    }

    #[test]
    fn taps_do_not_disturb_routing() {
        let mut eng = engine("[source]\nid = s\n\n[acc]\nid = a\ninput[i] = s.out\n");
        let tap_s = eng.tap("s").unwrap();
        let tap_a = eng.tap("a").unwrap();
        eng.run_for(TickDuration::from_secs(2)).unwrap();
        assert_eq!(tap_s.len(), 2);
        assert_eq!(tap_a.len(), 2);
        assert_eq!(tap_a.snapshot().len(), 2);
        tap_a.drain();
        assert!(tap_a.is_empty());
    }

    #[test]
    fn drain_into_moves_and_appends() {
        let mut eng = engine("[source]\nid = s\n");
        let tap = eng.tap("s").unwrap();
        eng.run_for(TickDuration::from_secs(3)).unwrap();
        let mut buf = Vec::new();
        assert_eq!(tap.drain_into(&mut buf), 3);
        assert!(tap.is_empty());
        eng.run_for(TickDuration::from_secs(2)).unwrap();
        // Appends after existing contents, returns only the new count.
        assert_eq!(tap.drain_into(&mut buf), 2);
        assert_eq!(buf.len(), 5);
        let values: Vec<i64> = buf
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert_eq!(values, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn module_runs_feed_the_obs_layer() {
        // Unique ids so the registry entries belong to this test alone.
        let mut eng = engine(
            "[source]\nid = obs_probe_src\n\n[acc]\nid = obs_probe_acc\ntrigger = 3\ninput[i] = obs_probe_src.out\n",
        );
        // Time every execution so the count assertions below are exact.
        let was = asdf_obs::set_span_sample_period(1);
        eng.run_for(TickDuration::from_secs(6)).unwrap();
        asdf_obs::set_span_sample_period(was);
        let reg = asdf_obs::registry();
        // The periodic source ran every tick; each run was timed.
        assert!(reg.histogram("engine.run_ns.obs_probe_src").count() >= 6);
        assert!(reg.histogram("engine.tick_ns").count() >= 6);
        // The accumulator's merged backlog reached depth 3 when its
        // trigger fired, and that high-water mark was captured.
        assert!(reg.gauge("engine.lane_depth.obs_probe_acc").high_water() >= 2);
    }

    #[test]
    fn single_consumer_routing_never_clones_envelopes() {
        // An untapped chain with one consumer per edge: every envelope
        // must *move* through the lanes — the env_clones counters stay at
        // zero on both the serial and the sharded path. (Unique ids keep
        // the global counters private to this test.)
        let cfg = "[source]\nid = zc_src\n\n[acc]\nid = zc_mid\ninput[i] = zc_src.out\n\n\
                   [acc]\nid = zc_sink\ninput[i] = zc_mid.total\n";
        engine(cfg).run_for(TickDuration::from_secs(8)).unwrap();
        engine_with_threads(cfg, 3)
            .run_for(TickDuration::from_secs(8))
            .unwrap();
        let reg = asdf_obs::registry();
        for id in ["zc_src", "zc_mid", "zc_sink"] {
            assert_eq!(
                reg.counter(&format!("engine.env_clones.{id}")).get(),
                0,
                "single-consumer edge from {id} must be clone-free"
            );
        }
    }

    #[test]
    fn broadcast_routing_counts_shallow_snapshots() {
        // One producer fanning out to two consumers plus a tap: each
        // emission makes exactly 2 clones (tap + first consumer; the last
        // consumer receives the moved original).
        let cfg = "[source]\nid = bc_src\n\n[acc]\nid = bc_a\ninput[i] = bc_src.out\n\n\
                   [acc]\nid = bc_b\ninput[i] = bc_src.out\n";
        let mut eng = engine(cfg);
        let tap = eng.tap("bc_src").unwrap();
        eng.run_for(TickDuration::from_secs(3)).unwrap();
        assert_eq!(tap.len(), 3);
        let reg = asdf_obs::registry();
        assert_eq!(reg.counter("engine.env_clones.bc_src").get(), 6);
        // The consumers re-emit to nobody (untapped, no downstream): no
        // clones there.
        assert_eq!(reg.counter("engine.env_clones.bc_a").get(), 0);
        assert_eq!(reg.counter("engine.env_clones.bc_b").get(), 0);
    }

    #[test]
    fn bursts_of_any_size_cross_a_lane_whole_and_in_order() {
        // A lane has no capacity to exceed: 40 emissions per tick (beyond
        // the 16 slots an edge once had) and 10 000 on one edge in one tick
        // all arrive, in order, serial or sharded, per envelope or batched.
        for (burst, threads, batch) in [
            (40i64, 1, 1),
            (40, 2, 1),
            (10_000, 1, 1),
            (10_000, 2, 1),
            (10_000, 1, 64),
            (10_000, 2, 64),
        ] {
            let cfg = format!(
                "[burst]\nid = sp_src\nburst = {burst}\n\n\
                 [acc]\nid = sp_sum\ntrigger = {burst}\ninput[i] = sp_src.out\n\n\
                 [rowfold]\nid = sp_fold\ntrigger = {burst}\ninput[i] = sp_src.out\n"
            );
            let mut eng = engine_with_threads(&cfg, threads);
            eng.set_batch_size(batch);
            let sum = eng.tap("sp_sum").unwrap();
            let fold = eng.tap("sp_fold").unwrap();
            eng.run_for(TickDuration::from_secs(2)).unwrap();
            let shape = format!("burst={burst} threads={threads} batch={batch}");
            // Count: a trigger window closes only when all `burst` arrived,
            // and the totals are the sums of 1..=burst and 1..=2*burst.
            let totals: Vec<i64> = sum
                .drain()
                .iter()
                .map(|e| e.sample.value.as_int().unwrap())
                .collect();
            let sum_to = |n: i64| n * (n + 1) / 2;
            assert_eq!(totals, [sum_to(burst), sum_to(2 * burst)], "{shape}");
            // Order: the fold is non-commutative, so it equals the fold of
            // 1, 2, 3, … in emission order only if nothing was reordered.
            let mut acc = 0.0f64;
            let expected: Vec<Value> = (0..2)
                .map(|t| {
                    for x in t * burst + 1..=(t + 1) * burst {
                        acc = acc.mul_add(1.000_000_1, x as f64 + t as f64);
                    }
                    Value::Float(acc)
                })
                .collect();
            let digests: Vec<Value> = fold.drain().into_iter().map(|e| e.sample.value).collect();
            assert_eq!(digests, expected, "{shape}");
        }
    }

    #[test]
    fn fan_out_delivers_to_every_consumer() {
        let mut eng = engine(
            "[source]\nid = s\n\n[acc]\nid = a1\ninput[i] = s.out\n\n[acc]\nid = a2\ninput[i] = s.out\n",
        );
        let t1 = eng.tap("a1").unwrap();
        let t2 = eng.tap("a2").unwrap();
        eng.run_for(TickDuration::from_secs(3)).unwrap();
        assert_eq!(t1.len(), 3);
        assert_eq!(t2.len(), 3);
    }

    /// A fan-in DAG exercising every scheduler feature at once: two
    /// periodic sources at different rates, relays, a trigger-batched
    /// fan-in, and a shared consumer.
    const FAN_IN_CFG: &str = "\
[source]
id = s1

[source]
id = s2
period = 2

[acc]
id = r1
input[i] = s1.out

[acc]
id = r2
input[i] = s2.out

[acc]
id = join
trigger = 3
input[a] = r1.total
input[b] = r2.total

[acc]
id = sink
input[i] = join.total
";

    #[test]
    fn sharded_streams_match_serial_bitwise() {
        let ids = ["s1", "s2", "r1", "r2", "join", "sink"];
        let reference: Vec<Vec<Envelope>> = {
            let mut eng = engine(FAN_IN_CFG);
            let taps: Vec<_> = ids.iter().map(|id| eng.tap(id).unwrap()).collect();
            eng.run_for(TickDuration::from_secs(25)).unwrap();
            taps.iter().map(TapHandle::drain).collect()
        };
        assert!(reference.iter().all(|s| !s.is_empty()));
        for threads in [2, 4, 8] {
            let mut eng = engine_with_threads(FAN_IN_CFG, threads);
            let taps: Vec<_> = ids.iter().map(|id| eng.tap(id).unwrap()).collect();
            eng.run_for(TickDuration::from_secs(25)).unwrap();
            let streams: Vec<Vec<Envelope>> = taps.iter().map(TapHandle::drain).collect();
            assert_eq!(reference, streams, "threads={threads}");
        }
    }

    #[test]
    fn sharded_engine_resumes_serially_after_run_for() {
        // tick() on a sharded engine single-steps serially; interleaving
        // the two modes must not disturb the stream.
        let mut eng = engine_with_threads(FAN_IN_CFG, 4);
        let tap = eng.tap("sink").unwrap();
        eng.run_for(TickDuration::from_secs(10)).unwrap();
        eng.tick().unwrap();
        eng.run_for(TickDuration::from_secs(10)).unwrap();
        let got = tap.drain();

        let mut reference = engine(FAN_IN_CFG);
        let ref_tap = reference.tap("sink").unwrap();
        reference.run_for(TickDuration::from_secs(21)).unwrap();
        assert_eq!(ref_tap.drain(), got);
    }

    #[test]
    fn batched_streams_match_per_sample_bitwise() {
        // The engine-level differential check: at any batch size and any
        // thread count, every tapped stream must equal the per-envelope
        // serial reference with `==`. 7 covers the non-power-of-two and
        // partial-final-batch cases; 64 exceeds any per-tick emission
        // volume so whole backlogs ride single batches.
        let ids = ["s1", "s2", "r1", "r2", "join", "sink"];
        let reference: Vec<Vec<Envelope>> = {
            let mut eng = engine(FAN_IN_CFG);
            let taps: Vec<_> = ids.iter().map(|id| eng.tap(id).unwrap()).collect();
            eng.run_for(TickDuration::from_secs(25)).unwrap();
            taps.iter().map(TapHandle::drain).collect()
        };
        assert!(reference.iter().all(|s| !s.is_empty()));
        for batch in [2, 7, 64] {
            for threads in [1, 4] {
                let mut eng = engine_with_threads(FAN_IN_CFG, threads);
                eng.set_batch_size(batch);
                assert_eq!(eng.batch_size(), batch);
                let taps: Vec<_> = ids.iter().map(|id| eng.tap(id).unwrap()).collect();
                eng.run_for(TickDuration::from_secs(25)).unwrap();
                let streams: Vec<Vec<Envelope>> = taps.iter().map(TapHandle::drain).collect();
                assert_eq!(reference, streams, "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn batched_bursts_survive_lane_overflow() {
        // 40 emissions per tick at watermark 4 = 10 batches on one lane
        // per tick, and at watermark 64 one partial batch: the delivered
        // stream is identical either way.
        let cfg = "[burst]\nid = bb_src\nburst = 40\n\n\
                   [acc]\nid = bb_sink\ntrigger = 40\ninput[i] = bb_src.out\n";
        for batch in [4, 64] {
            let mut eng = engine(cfg);
            eng.set_batch_size(batch);
            let tap = eng.tap("bb_sink").unwrap();
            eng.run_for(TickDuration::from_secs(2)).unwrap();
            let totals: Vec<i64> = tap
                .drain()
                .iter()
                .map(|e| e.sample.value.as_int().unwrap())
                .collect();
            assert_eq!(totals, [820, 3240], "batch={batch}");
        }
    }

    #[test]
    fn batch_metrics_feed_the_obs_layer() {
        // Unique ids so the histogram belongs to this test alone; the
        // flush counter is engine-global, so assert on its delta.
        let cfg = "[burst]\nid = bm_src\nburst = 10\n\n\
                   [acc]\nid = bm_sink\ntrigger = 10\ninput[i] = bm_src.out\n";
        let reg = asdf_obs::registry();
        let flushes_before = reg.counter("engine.batch_flush_total").get();
        let mut eng = engine(cfg);
        eng.set_batch_size(4);
        eng.run_for(TickDuration::from_secs(3)).unwrap();
        // 10 emissions per tick at watermark 4: flushes of 4, 4, 2 — three
        // per tick, batch lengths capped by the watermark.
        assert_eq!(
            reg.counter("engine.batch_flush_total").get(),
            flushes_before + 9
        );
        let hist = reg.histogram("engine.batch_len.bm_src");
        assert_eq!(hist.count(), 9);
        assert_eq!(hist.sum(), 30, "every emission rides exactly one batch");
        // Lengths 4 and 2 land in the [4,8) and [2,4) log buckets.
        assert!(hist.snapshot().max_bound() <= 7);
    }

    #[test]
    fn batch_size_zero_is_treated_as_one() {
        let mut eng = engine("[source]\nid = s\n");
        eng.set_batch_size(0);
        assert_eq!(eng.batch_size(), 1);
    }

    #[test]
    fn thread_count_zero_resolves_to_available_parallelism() {
        let mut eng = engine_with_threads("[source]\nid = s\n", 0);
        assert_eq!(eng.threads(), 0);
        let tap = eng.tap("s").unwrap();
        eng.run_for(TickDuration::from_secs(3)).unwrap();
        assert_eq!(tap.len(), 3);
        eng.set_threads(2);
        assert_eq!(eng.threads(), 2);
    }

    /// Runs `cfg` for `ticks` seconds at the given engine shape and returns
    /// the sink's tapped stream as `(secs, value)` pairs.
    fn tapped_stream(
        cfg: &str,
        sink: &str,
        ticks: u64,
        threads: usize,
        batch: usize,
    ) -> Vec<(u64, Value)> {
        let mut eng = engine_with_threads(cfg, threads);
        eng.set_batch_size(batch);
        let tap = eng.tap(sink).unwrap();
        eng.run_for(TickDuration::from_secs(ticks)).unwrap();
        tap.drain()
            .into_iter()
            .map(|e| (e.sample.timestamp.as_secs(), e.sample.value))
            .collect()
    }

    /// Asserts that the sink's stream is the same at batch {1, 2, 7, 64} x
    /// threads {1, 4} — 7 covers the non-power-of-two and partial-final-
    /// batch cases, 64 exceeds any per-tick emission volume — and returns
    /// the per-envelope serial reference.
    fn assert_batch_invariant(cfg: &str, sink: &str, ticks: u64) -> Vec<(u64, Value)> {
        let reference = tapped_stream(cfg, sink, ticks, 1, 1);
        assert!(!reference.is_empty());
        for batch in [1usize, 2, 7, 64] {
            for threads in [1usize, 4] {
                let got = tapped_stream(cfg, sink, ticks, threads, batch);
                assert_eq!(reference, got, "batch {batch}, threads {threads}");
            }
        }
        reference
    }

    #[test]
    fn row_bursts_match_per_sample_at_any_batch_and_thread_count() {
        // Bursty vector producer into an order-sensitive fold, including
        // non-power-of-two bursts against every watermark.
        for (burst, dim) in [(1usize, 4usize), (5, 3), (16, 2)] {
            let cfg = format!(
                "[rowburst]\nid = rb\nburst = {burst}\ndim = {dim}\n\n\
                 [rowfold]\nid = f\ninput[i] = rb.rows\n\n"
            );
            assert_batch_invariant(&cfg, "f", 12);
        }
    }

    #[test]
    fn row_emissions_materialize_for_non_accepting_consumer() {
        // Six rows of width 3 a tick: every row reaches the fold as its
        // own envelope, at any batch size.
        let cfg = "[rowburst]\nid = rb\nburst = 6\ndim = 3\n\n\
                   [rowfold]\nid = f\ninput[i] = rb.rows\n\n";
        assert_batch_invariant(cfg, "f", 10);
    }

    #[test]
    fn row_producer_taps_see_per_sample_envelopes() {
        // The tapped stream of the producer itself is one envelope per row
        // at any batch size.
        let cfg = "[rowburst]\nid = rb\nburst = 4\ndim = 2\n\n\
                   [rowfold]\nid = f\ninput[i] = rb.rows\n\n";
        assert_eq!(assert_batch_invariant(cfg, "rb", 8).len(), 8 * 4);
    }

    #[test]
    fn mixed_scalar_and_row_emissions_keep_one_order() {
        // One list, routed in emission order: every tick the producer's tap
        // reads `Int, vector, Int, vector, vector` (scalars first would read
        // `Int, Int, vector, vector, vector`), and the order-sensitive fold
        // downstream digests exactly that sequence.
        let cfg = "[mixed]\nid = m\n\n[rowfold]\nid = f\ninput[i] = m.out\n\n";
        let ticks = 6u64;
        let want: Vec<(u64, Value)> = (0..ticks)
            .flat_map(|t| {
                let c = |i: u64| (5 * t + i) as f64;
                [
                    (t, Value::Int(5 * t as i64 + 1)),
                    (t, Value::from(vec![c(2), -c(2)])),
                    (t, Value::Int(5 * t as i64 + 3)),
                    (t, Value::from(vec![c(4), -c(4)])),
                    (t, Value::from(vec![c(5), -c(5)])),
                ]
            })
            .collect();
        let mut acc = 0.0f64;
        let digests: Vec<(u64, Value)> = want
            .chunks(5)
            .map(|tick| {
                for (t, v) in tick {
                    let xs = match v {
                        Value::Int(x) => vec![*x as f64],
                        other => other.as_vector().unwrap().to_vec(),
                    };
                    for x in xs {
                        acc = acc.mul_add(1.000_000_1, x + *t as f64);
                    }
                }
                (tick[0].0, Value::Float(acc))
            })
            .collect();
        for batch in [1usize, 64] {
            for threads in [1usize, 2] {
                let shape = format!("batch {batch}, threads {threads}");
                assert_eq!(
                    tapped_stream(cfg, "m", ticks, threads, batch),
                    want,
                    "{shape}"
                );
                assert_eq!(
                    tapped_stream(cfg, "f", ticks, threads, batch),
                    digests,
                    "{shape}"
                );
            }
        }
    }

    #[test]
    fn rows_and_scalars_alternating_across_ticks_keep_slot_order() {
        // Rows-only ticks followed by scalar-only ticks on one slot, with
        // the consumer's trigger spanning both: the queued rows stay ahead
        // of the later scalar, and the order-sensitive digest turns any
        // reordering into a different stream.
        let cfg = "[phased]\nid = p\n\n\
                   [rowfold]\nid = f\ntrigger = 4\ninput[i] = p.out\n\n";
        assert_batch_invariant(cfg, "f", 12);
    }

    #[test]
    fn a_tap_attached_after_construction_sees_every_row_of_an_unrouted_port() {
        // Nothing is wired to `unheard`, so until a tap is attached its rows
        // go nowhere; a tap attached three ticks in gets every row of both
        // ports from the fourth on.
        let cfg = "[twoports]\nid = p\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        for batch in [1usize, 64] {
            for threads in [1usize, 2] {
                let mut eng = engine_with_threads(cfg, threads);
                eng.set_batch_size(batch);
                eng.run_for(TickDuration::from_secs(3)).unwrap();
                let tap = eng.tap("p").unwrap();
                eng.run_for(TickDuration::from_secs(4)).unwrap();
                let got: Vec<(String, u64, Vec<f64>)> = tap
                    .drain()
                    .into_iter()
                    .map(|e| {
                        let row = e.sample.value.as_vector().unwrap().to_vec();
                        (e.source.name.clone(), e.sample.timestamp.as_secs(), row)
                    })
                    .collect();
                let want: Vec<(String, u64, Vec<f64>)> = (3..7u64)
                    .flat_map(|t| {
                        let x = (t + 1) as f64;
                        [
                            ("heard".to_owned(), t, vec![x, x + 0.5]),
                            ("unheard".to_owned(), t, vec![-x, -x - 0.5]),
                        ]
                    })
                    .collect();
                assert_eq!(got, want, "batch {batch}, threads {threads}");
            }
        }
    }

    #[test]
    fn an_unheard_sibling_port_changes_nothing_downstream() {
        // The routed consumer's stream and the transport count are those
        // of a producer that never touches its second port.
        let with = "[twoports]\nid = p\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        let without = "[twoports]\nid = p\nsibling = 0\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        for batch in [1usize, 64] {
            let run = |cfg: &str| {
                let mut eng = engine(cfg);
                eng.set_batch_size(batch);
                let tap = eng.tap("f").unwrap();
                eng.run_for(TickDuration::from_secs(9)).unwrap();
                let stream: Vec<(u64, Value)> = tap
                    .drain()
                    .into_iter()
                    .map(|e| (e.sample.timestamp.as_secs(), e.sample.value))
                    .collect();
                (stream, eng.envelopes_routed())
            };
            let (stream, routed) = run(with);
            assert_eq!(stream.len(), 9);
            assert_eq!(routed, 9, "one delivery per tick, p.heard -> f");
            assert_eq!((stream, routed), run(without), "batch {batch}");
        }
    }
}
