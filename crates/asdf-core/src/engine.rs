//! The deterministic tick engine: one serial scheduler per DAG.
//!
//! [`TickEngine`] executes a [`Dag`] in simulated time: each call to
//! [`TickEngine::tick`] represents one second. Within a tick, nodes are
//! processed in topological order, so a sample emitted by an upstream module
//! reaches every downstream analysis module *within the same tick* — there
//! is no cross-tick pipeline latency beyond what modules introduce
//! themselves (buffering, windowing). This is `fpt-core`'s single scheduler
//! per DAG.
//!
//! # Direct routing
//!
//! Every route points topologically forward and the engine visits nodes in
//! index order, so a producing run pushes each envelope straight into its
//! consumer's slot queue. A consumer's queues therefore fill in
//! ascending-upstream order, each upstream's envelopes in the order it
//! emitted them, and are complete by the time the consumer is visited.
//!
//! Routing is clone-free on single-consumer edges: the payload *moves* into
//! the last destination, and fan-out destinations receive shallow `Arc`
//! snapshots ([`Envelope`]'s fields are all `Arc`-backed).
//! `engine.env_clones.<id>` counts routing clones per node — zero on an
//! untapped single-consumer chain.
//!
//! Determinism is what makes the reproduction's experiments exactly
//! repeatable. [`crate::online::OnlineEngine`] is this engine behind a
//! pacer — one thread calling [`TickEngine::tick`] at wall-clock deadlines
//! — so an online deployment schedules and routes here too.

use std::collections::VecDeque;
use std::sync::Arc;

use asdf_obs::{Counter, SpanHandle};
use parking_lot::Mutex;

use crate::dag::{Dag, DagNode};
use crate::error::RunEngineError;
use crate::module::{Envelope, PortId, RunCtx, RunReason};
use crate::time::{TickDuration, Timestamp};
use crate::value::Sample;

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

struct RuntimeNode {
    node: DagNode,
    queues: Vec<VecDeque<Envelope>>,
    pending: usize,
    next_periodic: Option<Timestamp>,
    taps: Vec<TapHandle>,
    /// Times every `Module::run` into `engine.run_ns.<id>` (and the trace
    /// recorder while capture is on).
    span: SpanHandle,
    /// `engine.env_clones.<id>`: `Envelope` clones made while routing this
    /// node's emissions (all shallow `Arc` snapshots). Zero on an untapped
    /// single-consumer chain — the moved-envelope fast path.
    clone_count: Arc<Counter>,
    /// Envelope deliveries routed into downstream queues by this node —
    /// the transport volume behind [`TickEngine::envelopes_routed`].
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
///         ctx.out.emit(self.0.unwrap(), self.1);
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
    /// In topological order: every route of `nodes[i]` targets a `j > i`.
    nodes: Vec<RuntimeNode>,
    now: Timestamp,
    scratch: Vec<(PortId, Sample)>,
    /// Wraps each whole [`TickEngine::tick`], so per-module spans nest
    /// under it in exported traces.
    tick_span: SpanHandle,
    /// Decides once per tick whether that tick's module runs are timed,
    /// so the per-run cost in unsampled ticks is a plain branch. While
    /// tracing is on, every tick is observed (traces stay complete).
    tick_sampler: asdf_obs::Sampler,
}

impl TickEngine {
    /// Wraps a constructed DAG in a fresh engine positioned at the epoch.
    ///
    /// Metric handles are resolved here, once — ticking never touches the
    /// registry. Engines running the same configuration (e.g. campaign
    /// repetitions) share the same named metrics and aggregate.
    pub fn new(dag: Dag) -> Self {
        let reg = asdf_obs::registry();
        let nodes = dag
            .nodes
            .into_iter()
            .enumerate()
            .map(|(idx, node)| {
                debug_assert!(
                    node.routes.iter().flatten().all(|&(dst, _)| dst > idx),
                    "DAG routes must point topologically forward"
                );
                RuntimeNode {
                    next_periodic: node.schedule.periodic.map(|_| Timestamp::EPOCH),
                    queues: vec![VecDeque::new(); node.slots.len()],
                    pending: 0,
                    taps: Vec::new(),
                    span: SpanHandle::new(
                        "engine",
                        node.id.as_str(),
                        reg.histogram(&format!("engine.run_ns.{}", node.id)),
                    ),
                    clone_count: reg.counter(&format!("engine.env_clones.{}", node.id)),
                    routed: 0,
                    node,
                }
            })
            .collect();
        TickEngine {
            nodes,
            now: Timestamp::EPOCH,
            scratch: Vec::new(),
            tick_span: SpanHandle::new("engine", "tick", reg.histogram("engine.tick_ns")),
            tick_sampler: asdf_obs::Sampler::new(),
        }
    }

    /// [`TickEngine::new`]; the thread count is ignored.
    // Inert: kept only because `asdfbench` names it; ROADMAP's benchmark slice A (v) deletes it.
    #[doc(hidden)]
    pub fn with_threads(dag: Dag, _threads: usize) -> Self {
        TickEngine::new(dag)
    }

    /// Does nothing.
    // Inert: kept only because `asdfbench` names it; ROADMAP's benchmark slice A (x) deletes it.
    #[doc(hidden)]
    pub fn set_batch_size(&mut self, _batch_size: usize) {}

    /// The engine's current time: the timestamp the *next* tick will carry.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Total envelope deliveries routed into downstream queues since
    /// construction, summed across nodes — the denominator for
    /// envelopes/sec transport throughput (taps and dropped emissions are
    /// not transport and are excluded).
    pub fn envelopes_routed(&self) -> u64 {
        self.nodes.iter().map(|rt| rt.routed).sum()
    }

    /// Registers a tap on the instance with id `id`, returning a handle that
    /// will capture every envelope the instance emits from now on.
    ///
    /// Returns `None` when no instance has that id.
    pub fn tap(&mut self, id: &str) -> Option<TapHandle> {
        let rt = self.nodes.iter_mut().find(|rt| rt.node.id == id)?;
        let handle = TapHandle::new();
        rt.taps.push(handle.clone());
        Some(handle)
    }

    /// Executes one second of simulated time.
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
        let obs = asdf_obs::enabled() && (asdf_obs::tracing_on() || self.tick_sampler.sample());
        let _tick_timer = obs.then(|| self.tick_span.enter_forced());
        let now = self.now;
        let scratch = &mut self.scratch;
        for idx in 0..self.nodes.len() {
            let (visited, rest) = self.nodes.split_at_mut(idx + 1);
            let mut downstream = Downstream {
                first: idx + 1,
                nodes: rest,
            };
            visit_node(&mut visited[idx], &mut downstream, now, obs, scratch)?;
        }
        self.now = self.now.next();
        Ok(())
    }

    /// Runs [`TickEngine::tick`] once per second for `span`.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first module failure — attributed to the
    /// topologically-first failing instance. The engine should be discarded
    /// afterwards.
    pub fn run_for(&mut self, span: TickDuration) -> Result<(), RunEngineError> {
        for _ in 0..span.as_secs() {
            self.tick()?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for TickEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickEngine")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// The nodes after the one being visited: the only ones its routes reach.
struct Downstream<'a> {
    /// The engine index of `nodes[0]`.
    first: usize,
    nodes: &'a mut [RuntimeNode],
}

impl Downstream<'_> {
    /// Appends `env` to slot `slot` of node `dst`'s input queues.
    fn deliver(&mut self, dst: usize, slot: usize, env: Envelope) {
        let rt = &mut self.nodes[dst - self.first];
        rt.queues[slot].push_back(env);
        rt.pending += 1;
    }
}

/// Visits one node for the tick `now`: periodic run if due, then
/// input-triggered run if enough samples accumulated.
fn visit_node(
    rt: &mut RuntimeNode,
    downstream: &mut Downstream<'_>,
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
            run_module(rt, downstream, now, RunReason::Periodic, obs, scratch)?;
        }
    }
    let trigger = rt.node.schedule.input_trigger;
    if trigger > 0 && rt.pending >= trigger {
        run_module(rt, downstream, now, RunReason::InputsReady, obs, scratch)?;
    }
    Ok(())
}

/// Runs a node's module once and routes its emissions into taps and the
/// downstream slot queues.
///
/// Routing is clone-free on the last destination: the envelope *moves*
/// into the final queue (or the final tap, when unrouted), and only fan-out
/// copies — all shallow `Arc` snapshots — are counted into
/// `engine.env_clones.<id>`.
fn run_module(
    rt: &mut RuntimeNode,
    downstream: &mut Downstream<'_>,
    now: Timestamp,
    reason: RunReason,
    obs: bool,
    emitted: &mut Vec<(PortId, Sample)>,
) -> Result<(), RunEngineError> {
    debug_assert!(emitted.is_empty());
    let mut ctx = RunCtx::new(now, &mut rt.queues, emitted, rt.node.outputs.len());
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
    let mut clones = 0u64;
    for (port, sample) in emitted.drain(..) {
        let env = Envelope {
            source: Arc::clone(&rt.node.outputs[port.index()]),
            sample,
        };
        let routes = &rt.node.routes[port.index()];
        let Some((&(last_dst, last_slot), rest)) = routes.split_last() else {
            // Unrouted: the taps alone see it, the last one taking the
            // original; with no taps either, it is dropped without a clone.
            if let Some((last, others)) = rt.taps.split_last() {
                for tap in others {
                    tap.push(env.clone());
                    clones += 1;
                }
                last.push(env);
            }
            continue;
        };
        for tap in &rt.taps {
            tap.push(env.clone());
            clones += 1;
        }
        rt.routed += rest.len() as u64 + 1;
        clones += rest.len() as u64;
        for &(dst, slot) in rest {
            downstream.deliver(dst, slot, env.clone());
        }
        downstream.deliver(last_dst, last_slot, env);
    }
    if clones > 0 {
        rt.clone_count.add(clones);
    }
    Ok(())
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
            ctx.out.emit(self.port.unwrap(), self.count);
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
                ctx.out.emit(self.port.unwrap(), self.count);
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
            for (_, env) in &mut ctx.inputs {
                self.total += env.sample.value.as_int().unwrap_or(0);
            }
            ctx.out.emit(self.port.unwrap(), self.total);
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
                ctx.out.emit(self.port.unwrap(), row.as_slice());
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
            for (_, env) in &mut ctx.inputs {
                let t = env.sample.timestamp.as_secs() as f64;
                let mut fold = |x: f64| self.acc = self.acc.mul_add(1.000_000_1, x + t);
                match &env.sample.value {
                    Value::Vector(v) => v.iter().copied().for_each(fold),
                    Value::Int(x) => fold(*x as f64),
                    Value::Float(x) => fold(*x),
                    _ => {}
                }
            }
            ctx.out.emit(self.digest.unwrap(), self.acc);
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
                    ctx.out.emit(port, self.count as i64);
                } else {
                    ctx.out.emit(port, vec![x, -x]);
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
                    ctx.out
                        .emit(port, vec![self.count as f64 * 0.25, self.count as f64]);
                }
            } else {
                self.count += 1;
                ctx.out.emit(port, self.count as i64);
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
            ctx.out.emit(self.heard.unwrap(), vec![x, x + 0.5]);
            if self.sibling {
                ctx.out.emit(self.unheard.unwrap(), vec![-x, -x - 0.5]);
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
        let cfg: Config = cfg.parse().unwrap();
        TickEngine::new(Dag::build(&registry(), &cfg).unwrap())
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
    fn the_topologically_first_failure_is_reported() {
        // Two independent instances failing in the same tick: the error
        // names the one visited first.
        let cfg = "[failat]\nid = f1\nat = 3\n\n[failat]\nid = f2\nat = 3\n";
        let err = engine(cfg)
            .run_for(TickDuration::from_secs(10))
            .unwrap_err();
        assert_eq!((err.instance.as_str(), err.at_secs), ("f1", 2));
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
    }

    #[test]
    fn single_consumer_routing_never_clones_envelopes() {
        // An untapped chain with one consumer per edge: every envelope
        // must *move* into its consumer's queue — the env_clones counters
        // stay at zero. (Unique ids keep the global counters private to
        // this test.)
        let cfg = "[source]\nid = zc_src\n\n[acc]\nid = zc_mid\ninput[i] = zc_src.out\n\n\
                   [acc]\nid = zc_sink\ninput[i] = zc_mid.total\n";
        engine(cfg).run_for(TickDuration::from_secs(8)).unwrap();
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
        // A slot queue has no capacity to exceed: 40 emissions per tick
        // (beyond the 16 slots an edge once had) and 10 000 on one edge in
        // one tick all arrive, in order.
        for burst in [40i64, 10_000] {
            let cfg = format!(
                "[burst]\nid = sp_src\nburst = {burst}\n\n\
                 [acc]\nid = sp_sum\ntrigger = {burst}\ninput[i] = sp_src.out\n\n\
                 [rowfold]\nid = sp_fold\ntrigger = {burst}\ninput[i] = sp_src.out\n"
            );
            let mut eng = engine(&cfg);
            let sum = eng.tap("sp_sum").unwrap();
            let fold = eng.tap("sp_fold").unwrap();
            eng.run_for(TickDuration::from_secs(2)).unwrap();
            let shape = format!("burst={burst}");
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

    /// Runs `cfg` for `ticks` seconds and returns each of `ids`' tapped
    /// streams as `(secs, value)` pairs.
    fn tapped_streams<const N: usize>(
        cfg: &str,
        ids: [&str; N],
        ticks: u64,
    ) -> [Vec<(u64, Value)>; N] {
        let mut eng = engine(cfg);
        let taps = ids.map(|id| eng.tap(id).unwrap());
        eng.run_for(TickDuration::from_secs(ticks)).unwrap();
        taps.map(|tap| {
            tap.drain()
                .into_iter()
                .map(|e| (e.sample.timestamp.as_secs(), e.sample.value))
                .collect()
        })
    }

    /// What `rowfold` with input trigger `trigger` emits when fed the
    /// stream `produced` at the ticks it was produced: one run in each tick
    /// whose backlog has reached the trigger, folding the whole backlog in
    /// arrival order.
    fn fold_model(produced: &[(u64, Value)], trigger: usize) -> Vec<(u64, Value)> {
        let mut acc = 0.0f64;
        let mut backlog = Vec::new();
        let mut out = Vec::new();
        for tick in produced.chunk_by(|a, b| a.0 == b.0) {
            backlog.extend(tick);
            if backlog.len() < trigger {
                continue;
            }
            for (t, v) in backlog.drain(..) {
                let xs = match v {
                    Value::Int(x) => vec![*x as f64],
                    other => other.as_vector().unwrap().to_vec(),
                };
                for x in xs {
                    acc = acc.mul_add(1.000_000_1, x + *t as f64);
                }
            }
            out.push((tick[0].0, Value::Float(acc)));
        }
        out
    }

    #[test]
    fn row_bursts_fold_in_emission_order() {
        // Bursty vector producer into an order-sensitive fold, including
        // bursts of one and a burst wider than its rows.
        for (burst, dim) in [(1usize, 4usize), (5, 3), (16, 2)] {
            let cfg = format!(
                "[rowburst]\nid = rb\nburst = {burst}\ndim = {dim}\n\n\
                 [rowfold]\nid = f\ninput[i] = rb.rows\n\n"
            );
            let [rows, folds] = tapped_streams(&cfg, ["rb", "f"], 12);
            assert_eq!(rows.len(), 12 * burst, "burst {burst}");
            assert_eq!(folds, fold_model(&rows, 1), "burst {burst}, dim {dim}");
        }
    }

    #[test]
    fn row_emissions_materialize_for_non_accepting_consumer() {
        // Six rows of width 3 a tick: every row reaches the fold as its
        // own envelope.
        let cfg = "[rowburst]\nid = rb\nburst = 6\ndim = 3\n\n\
                   [rowfold]\nid = f\ninput[i] = rb.rows\n\n";
        let [rows, folds] = tapped_streams(cfg, ["rb", "f"], 10);
        assert_eq!(rows.len(), 10 * 6);
        assert_eq!(folds, fold_model(&rows, 1));
    }

    #[test]
    fn row_producer_taps_see_per_sample_envelopes() {
        // The tapped stream of the producer itself is one envelope per row.
        let cfg = "[rowburst]\nid = rb\nburst = 4\ndim = 2\n\n\
                   [rowfold]\nid = f\ninput[i] = rb.rows\n\n";
        let [rows] = tapped_streams(cfg, ["rb"], 8);
        let want: Vec<(u64, Value)> = (1..=8 * 4u64)
            .map(|n| {
                let row: Vec<f64> = (0..2).map(|j| (n * 31 + j) as f64 * 0.5).collect();
                ((n - 1) / 4, Value::from(row))
            })
            .collect();
        assert_eq!(rows, want);
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
        assert_eq!(tapped_streams(cfg, ["m", "f"], ticks), [want, digests]);
    }

    #[test]
    fn rows_and_scalars_alternating_across_ticks_keep_slot_order() {
        // Rows-only ticks followed by scalar-only ticks on one slot, with
        // the consumer's trigger spanning both: the queued rows stay ahead
        // of the later scalar, and the order-sensitive digest turns any
        // reordering into a different stream.
        let cfg = "[phased]\nid = p\n\n\
                   [rowfold]\nid = f\ntrigger = 4\ninput[i] = p.out\n\n";
        let [produced, folds] = tapped_streams(cfg, ["p", "f"], 12);
        assert_eq!(folds, fold_model(&produced, 4));
    }

    #[test]
    fn a_tap_attached_after_construction_sees_every_row_of_an_unrouted_port() {
        // Nothing is wired to `unheard`, so until a tap is attached its rows
        // go nowhere; a tap attached three ticks in gets every row of both
        // ports from the fourth on.
        let cfg = "[twoports]\nid = p\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        let mut eng = engine(cfg);
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
        assert_eq!(got, want);
    }

    #[test]
    fn an_unheard_sibling_port_changes_nothing_downstream() {
        // The routed consumer's stream and the transport count are those
        // of a producer that never touches its second port.
        let with = "[twoports]\nid = p\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        let without = "[twoports]\nid = p\nsibling = 0\n\n[rowfold]\nid = f\ninput[i] = p.heard\n";
        let run = |cfg: &str| {
            let mut eng = engine(cfg);
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
        assert_eq!((stream, routed), run(without));
    }
}
