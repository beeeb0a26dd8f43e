//! The threaded online engine.
//!
//! [`OnlineEngine`] executes the same [`Dag`] as the deterministic
//! [`crate::engine::TickEngine`], but against a wall clock and with one
//! thread per module instance — the paper's deployment model ("For each
//! module instance ... a new thread is spawned"). Periodic modules are
//! driven by a central ticker thread; input-triggered modules run as soon as
//! enough samples are delivered to their mailbox.
//!
//! The engine maps wall time onto the framework's one-second [`Timestamp`]
//! resolution through a configurable `wall_per_tick` duration: with the
//! default of one second the engine runs in real time, while tests and demos
//! can compress time (e.g. 5 ms per tick) without changing module behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asdf_obs::SpanHandle;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::dag::Dag;
use crate::engine::TapHandle;
use crate::error::{OnlineStartError, RunEngineError};
use crate::module::{EmitRows, Envelope, PortId, RunCtx, RunReason};
use crate::time::Timestamp;
use crate::value::{Sample, Value};

enum Cmd {
    Periodic(Timestamp),
    Deliver { slot: usize, env: Envelope },
    Stop,
}

/// Scheduler-health telemetry shared by one engine's module threads.
///
/// The lockstep between the ticker and the per-module threads is exactly
/// where an online deployment silently falls behind: a module whose run
/// takes longer than its period starts its next periodic run late. That
/// lag is surfaced as the `online.scheduler_lag_ticks` gauge and the
/// `online.tick_overruns_total` counter (global registry), mirrored into
/// per-engine atomics for [`OnlineEngine::scheduler_lag_ticks`] and
/// [`OnlineEngine::tick_overruns`].
struct SchedulerStats {
    /// `[online]` for an unlabeled engine, `[online:tenant]` otherwise —
    /// prefixes every warning so multi-tenant logs stay attributable.
    tag: String,
    last_lag_ticks: AtomicI64,
    lag_watermark: AtomicI64,
    overruns: AtomicU64,
    delivered: AtomicU64,
    catchups: AtomicU64,
    lag_gauge: Arc<asdf_obs::Gauge>,
    watermark_gauge: Arc<asdf_obs::Gauge>,
    overrun_counter: Arc<asdf_obs::Counter>,
    delivered_counter: Arc<asdf_obs::Counter>,
    drift_gauge: Arc<asdf_obs::Gauge>,
    catchup_counter: Arc<asdf_obs::Counter>,
}

impl SchedulerStats {
    /// Registers this engine's metric family. An empty `label` keeps the
    /// historical unsuffixed names; a tenant label suffixes every metric
    /// with `.<label>` so N engines in one process stay distinguishable.
    fn new(label: &str) -> Self {
        let reg = asdf_obs::registry();
        let suffix = if label.is_empty() {
            String::new()
        } else {
            format!(".{label}")
        };
        let tag = if label.is_empty() {
            "online".to_owned()
        } else {
            format!("online:{label}")
        };
        SchedulerStats {
            tag,
            last_lag_ticks: AtomicI64::new(0),
            lag_watermark: AtomicI64::new(0),
            overruns: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            catchups: AtomicU64::new(0),
            lag_gauge: reg.gauge(&format!("online.scheduler_lag_ticks{suffix}")),
            watermark_gauge: reg.gauge(&format!("online.scheduler_lag_ticks_watermark{suffix}")),
            overrun_counter: reg.counter(&format!("online.tick_overruns_total{suffix}")),
            delivered_counter: reg.counter(&format!("online.delivered_total{suffix}")),
            drift_gauge: reg.gauge(&format!("online.ticker_drift_ticks{suffix}")),
            catchup_counter: reg.counter(&format!("online.ticker_catchup_total{suffix}")),
        }
    }

    /// Counts envelopes dequeued from module mailboxes; called once per
    /// coalesced tick range, not per envelope, so the engine-wide
    /// throughput figure (`online.delivered_total` plus the per-engine
    /// [`OnlineEngine::envelopes_delivered`] mirror) costs two relaxed
    /// adds per run.
    fn count_delivered(&self, n: u64) {
        self.delivered.fetch_add(n, Ordering::Relaxed);
        self.delivered_counter.add(n);
    }

    /// Records how late a periodic run started, warning on overrun
    /// (log volume is bounded: only power-of-two occurrence counts log).
    fn observe(&self, instance: &str, lag_ticks: i64) {
        self.last_lag_ticks.store(lag_ticks, Ordering::Relaxed);
        self.lag_gauge.set(lag_ticks);
        let seen = self.lag_watermark.fetch_max(lag_ticks, Ordering::Relaxed);
        self.watermark_gauge.set(seen.max(lag_ticks));
        if lag_ticks >= 1 {
            let n = self.overruns.fetch_add(1, Ordering::Relaxed) + 1;
            self.overrun_counter.inc();
            if n.is_power_of_two() {
                eprintln!(
                    "warning: [{}] periodic module `{instance}` started {lag_ticks} tick(s) \
                     late ({n} overrun(s) so far) — modules are not keeping up with the ticker",
                    self.tag
                );
            }
        }
    }

    /// Records how far the ticker itself drifted behind wall time between
    /// two wake-ups (0 = on time). A positive drift means the ticker slept
    /// through whole ticks — the host is overloaded or the tick is shorter
    /// than the OS can schedule — and the engine is now catching up by
    /// dispatching the skipped periods late.
    fn observe_drift(&self, drift_ticks: i64) {
        self.drift_gauge.set(drift_ticks);
        if drift_ticks >= 1 {
            let n = self.catchups.fetch_add(1, Ordering::Relaxed) + 1;
            self.catchup_counter.inc();
            if n.is_power_of_two() {
                eprintln!(
                    "warning: [{}] ticker drifted {drift_ticks} tick(s) behind wall time \
                     and is catching up ({n} catch-up(s) so far)",
                    self.tag
                );
            }
        }
    }
}

#[derive(Clone)]
struct WallClock {
    start: Instant,
    wall_per_tick: Duration,
}

impl WallClock {
    fn now(&self) -> Timestamp {
        let elapsed = self.start.elapsed();
        let ticks = elapsed.as_nanos() / self.wall_per_tick.as_nanos().max(1);
        Timestamp::from_secs(ticks as u64)
    }
}

/// Configures and launches an [`OnlineEngine`].
///
/// Obtained from [`OnlineEngine::builder`]. Taps must be registered before
/// [`Builder::start`], because module state moves onto per-instance threads.
pub struct Builder {
    dag: Dag,
    wall_per_tick: Duration,
    taps: Vec<String>,
    batch_size: usize,
    label: String,
    speed: f64,
}

impl Builder {
    /// Sets how much wall time one engine second occupies (default 1 s).
    #[must_use]
    pub fn wall_per_tick(mut self, d: Duration) -> Self {
        self.wall_per_tick = d;
        self
    }

    /// Labels this engine's scheduler metrics (`online.*.<label>`) and log
    /// warnings. The empty default keeps the historical unsuffixed metric
    /// names; a serve daemon labels each tenant's engine with the tenant id
    /// so per-tenant lag stays observable as tenant count grows.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Scales real-time pacing: the effective tick is
    /// `wall_per_tick / speed` (default 1.0). `2.0` replays twice as fast
    /// as real time; `0.5` half speed. Rejected at [`Builder::start`] if
    /// not a positive finite number.
    #[must_use]
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Sets the tick-range window a module thread coalesces per run
    /// (default 1 = run per delivery, the historical behavior).
    ///
    /// Above 1, a module thread greedily drains up to `batch_size`
    /// already-queued deliveries from its mailbox before evaluating its
    /// trigger, and the module is entered through
    /// [`crate::module::Module::run_batch`] — so a backlog that built up
    /// over a tick range is consumed by one batched run instead of one
    /// dispatch per sample. A periodic command ends the range (it is
    /// handled next). `0` is treated as `1`.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Taps the named instance; the handle is retrieved from the running
    /// engine with [`OnlineEngine::tap_handle`].
    #[must_use]
    pub fn tap(mut self, instance_id: impl Into<String>) -> Self {
        self.taps.push(instance_id.into());
        self
    }

    /// Spawns all module threads plus the ticker and starts execution.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineStartError::UnknownTaps`] for tap ids that matched
    /// no instance, [`OnlineStartError::InvalidSpeed`] for a non-positive
    /// or non-finite speed multiplier, and [`OnlineStartError::Spawn`]
    /// (chaining the OS error) if a thread failed to launch — already
    /// spawned threads are stopped and joined before returning.
    pub fn start(self) -> Result<OnlineEngine, OnlineStartError> {
        let Builder {
            dag,
            wall_per_tick,
            taps,
            batch_size,
            label,
            speed,
        } = self;

        if !speed.is_finite() || speed <= 0.0 {
            return Err(OnlineStartError::InvalidSpeed { speed });
        }
        let missing: Vec<String> = taps
            .iter()
            .filter(|id| dag.index_of(id).is_none())
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Err(OnlineStartError::UnknownTaps { taps: missing });
        }

        let clock = WallClock {
            start: Instant::now(),
            wall_per_tick: wall_per_tick.div_f64(speed),
        };
        let sched = Arc::new(SchedulerStats::new(&label));
        let stop = Arc::new(AtomicBool::new(false));
        let ticker_stop = Arc::new(AtomicBool::new(false));
        let first_error: Arc<Mutex<Option<RunEngineError>>> = Arc::new(Mutex::new(None));

        let n = dag.len();
        let mut senders: Vec<Sender<Cmd>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Cmd>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }

        let mut tap_handles: HashMap<String, TapHandle> = HashMap::new();
        let periods: Vec<Option<u64>> = dag
            .nodes
            .iter()
            .map(|node| node.schedule.periodic.map(|p| p.as_secs().max(1)))
            .collect();
        // Node-level fan-out edges, kept for graceful shutdown: flushing
        // stops instances in topological order so every upstream's final
        // envelopes are already enqueued when the downstream's Stop lands.
        let downstream_map: Vec<Vec<usize>> = dag
            .nodes
            .iter()
            .map(|node| {
                let mut dsts: Vec<usize> = node
                    .routes
                    .iter()
                    .flat_map(|targets| targets.iter().map(|&(dst, _)| dst))
                    .collect();
                dsts.sort_unstable();
                dsts.dedup();
                dsts
            })
            .collect();

        // Abort a partially spawned engine: released threads see the stop
        // flag (or a Stop command) and exit; join them all before failing.
        let abort_spawned =
            |node_handles: &mut Vec<Option<JoinHandle<()>>>, thread: String, source| {
                stop.store(true, Ordering::Relaxed);
                for tx in &senders {
                    let _ = tx.send(Cmd::Stop);
                }
                for handle in node_handles.iter_mut().filter_map(Option::take) {
                    let _ = handle.join();
                }
                OnlineStartError::Spawn { thread, source }
            };

        let mut node_handles: Vec<Option<JoinHandle<()>>> = (0..n).map(|_| None).collect();
        for (idx, node) in dag.nodes.into_iter().enumerate().rev() {
            let rx = receivers.pop().expect("one receiver per node");
            debug_assert_eq!(receivers.len(), idx);
            let downstream: Vec<Vec<(Sender<Cmd>, usize)>> = node
                .routes
                .iter()
                .map(|targets| {
                    targets
                        .iter()
                        .map(|&(dst, slot)| (senders[dst].clone(), slot))
                        .collect()
                })
                .collect();
            // Duplicate tap registrations coalesce onto one handle (and
            // one delivery) per instance.
            let node_taps: Vec<TapHandle> = if taps.contains(&node.id) {
                vec![tap_handles.entry(node.id.clone()).or_default().clone()]
            } else {
                Vec::new()
            };
            let id = node.id.clone();
            let stop = Arc::clone(&stop);
            let first_error = Arc::clone(&first_error);
            let span = SpanHandle::new(
                "online",
                node.id.as_str(),
                asdf_obs::registry().histogram(&format!("online.run_ns.{}", node.id)),
            );
            let node_clock = clock.clone();
            let node_sched = Arc::clone(&sched);
            let spawned = std::thread::Builder::new()
                .name(format!("asdf-{id}"))
                .spawn(move || {
                    node_thread(
                        node,
                        rx,
                        downstream,
                        node_taps,
                        stop,
                        first_error,
                        node_clock,
                        node_sched,
                        span,
                        batch_size,
                    );
                });
            match spawned {
                Ok(handle) => node_handles[idx] = Some(handle),
                Err(source) => return Err(abort_spawned(&mut node_handles, id, source)),
            }
        }

        // Ticker thread: wakes every effective tick and dispatches Periodic
        // commands to due instances. Obeys its own stop flag so a graceful
        // shutdown can quiesce the clock without aborting module threads.
        let ticker_handle = {
            let senders = senders.clone();
            let clock = clock.clone();
            let stop = Arc::clone(&stop);
            let ticker_stop = Arc::clone(&ticker_stop);
            let sched = Arc::clone(&sched);
            let spawned = std::thread::Builder::new()
                .name("asdf-ticker".to_owned())
                .spawn(move || {
                    let mut next_due: Vec<Option<u64>> =
                        periods.iter().map(|p| p.as_ref().map(|_| 0u64)).collect();
                    let mut last_seen: Option<u64> = None;
                    while !stop.load(Ordering::Relaxed) && !ticker_stop.load(Ordering::Relaxed) {
                        let now = clock.now();
                        // Drift: a wake-up normally advances the clock by at
                        // most one tick (we sleep a quarter tick). Jumping
                        // further means whole ticks were slept through.
                        if let Some(prev) = last_seen {
                            sched.observe_drift(now.as_secs().saturating_sub(prev + 1) as i64);
                        }
                        last_seen = Some(now.as_secs());
                        for (idx, due) in next_due.iter_mut().enumerate() {
                            if let Some(due_at) = due {
                                if *due_at <= now.as_secs() {
                                    // Ignore send failures during shutdown.
                                    let _ = senders[idx].send(Cmd::Periodic(now));
                                    *due = Some(now.as_secs() + periods[idx].expect("periodic"));
                                }
                            }
                        }
                        std::thread::sleep(clock.wall_per_tick / 4);
                    }
                });
            match spawned {
                Ok(handle) => handle,
                Err(source) => {
                    return Err(abort_spawned(
                        &mut node_handles,
                        "ticker".to_owned(),
                        source,
                    ))
                }
            }
        };

        Ok(OnlineEngine {
            senders,
            node_handles,
            ticker_handle: Some(ticker_handle),
            downstream_map,
            stop,
            ticker_stop,
            first_error,
            tap_handles,
            clock,
            sched,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn node_thread(
    mut node: crate::dag::DagNode,
    rx: Receiver<Cmd>,
    downstream: Vec<Vec<(Sender<Cmd>, usize)>>,
    taps: Vec<TapHandle>,
    stop: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<RunEngineError>>>,
    clock: WallClock,
    sched: Arc<SchedulerStats>,
    span: SpanHandle,
    batch_size: usize,
) {
    use std::collections::VecDeque;

    let slot_names: Vec<String> = node.slots.iter().map(|s| s.name.clone()).collect();
    let mut queues: Vec<VecDeque<Envelope>> = vec![VecDeque::new(); node.slots.len()];
    let trigger = node.schedule.input_trigger;
    let mut emitted: Vec<(PortId, Sample)> = Vec::new();
    let mut emitted_rows: Vec<crate::module::RowEmit> = Vec::new();
    // The online engine transports per-sample envelopes over its channels;
    // columnar blocks never travel here, so the backlog stays empty and
    // `emit_row` entries materialize below.
    let mut row_backlog: Vec<(usize, Arc<crate::module::RowBlock>)> = Vec::new();
    // A non-Deliver command popped while coalescing a tick range; handled
    // on the next loop iteration before blocking on the mailbox again.
    let mut carry: Option<Cmd> = None;

    loop {
        let cmd = match carry.take() {
            Some(cmd) => cmd,
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (run_now, reason) = match cmd {
            Cmd::Stop => break,
            Cmd::Periodic(ts) => {
                // How late did this periodic run start? A healthy engine
                // dequeues the tick within the same logical second it was
                // dispatched for; anything later is an overrun.
                let lag = clock.now().as_secs() as i64 - ts.as_secs() as i64;
                sched.observe(&node.id, lag.max(0));
                (Some(ts), RunReason::Periodic)
            }
            Cmd::Deliver { slot, env } => {
                let mut ts = env.sample.timestamp;
                queues[slot].push_back(env);
                // Tick-range coalescing: greedily drain deliveries that
                // already queued up behind this one, so one batched run
                // consumes the whole range instead of one dispatch per
                // sample. A periodic (or stop) command ends the range and
                // carries over to the next iteration.
                let mut delivered = 1usize;
                while delivered < batch_size {
                    match rx.try_recv() {
                        Ok(Cmd::Deliver { slot, env }) => {
                            ts = env.sample.timestamp;
                            queues[slot].push_back(env);
                            delivered += 1;
                        }
                        Ok(other) => {
                            carry = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                sched.count_delivered(delivered as u64);
                let pending: usize = queues.iter().map(VecDeque::len).sum();
                if trigger > 0 && pending >= trigger {
                    (Some(ts), RunReason::InputsReady)
                } else {
                    (None, RunReason::InputsReady)
                }
            }
        };
        let Some(now) = run_now else { continue };

        let mut ctx = RunCtx {
            now,
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: node.outputs.len(),
            emitted_rows: &mut emitted_rows,
            row_backlog: &mut row_backlog,
        };
        let run_result = {
            let _timer = span.enter();
            if batch_size > 1 {
                node.module.run_batch(&mut ctx, reason)
            } else {
                node.module.run(&mut ctx, reason)
            }
        };
        if let Err(source) = run_result {
            let mut guard = first_error.lock();
            if guard.is_none() {
                *guard = Some(RunEngineError {
                    instance: node.id.clone(),
                    at_secs: now.as_secs(),
                    source,
                });
            }
            stop.store(true, Ordering::Relaxed);
            break;
        }
        let deliver = |port: usize, env: Envelope| {
            for tap in &taps {
                tap.push(env.clone());
            }
            for (tx, slot) in &downstream[port] {
                let _ = tx.send(Cmd::Deliver {
                    slot: *slot,
                    env: env.clone(),
                });
            }
        };
        for (port, sample) in emitted.drain(..) {
            let source = Arc::clone(&node.outputs[port.index()]);
            deliver(port.index(), Envelope { source, sample });
        }
        // Row emissions materialize per sample and follow the scalars of
        // the same run — identical to the tick engine's routing order.
        for entry in emitted_rows.drain(..) {
            let port = entry.port.index();
            let source = Arc::clone(&node.outputs[port]);
            match entry.rows {
                EmitRows::One(timestamp, row) => {
                    let sample = Sample {
                        timestamp,
                        value: Value::Vector(row),
                    };
                    deliver(port, Envelope { source, sample });
                }
                EmitRows::Many { dim, stamps, data } => {
                    let block = crate::module::RowBlock {
                        source,
                        dim,
                        stamps,
                        data,
                    };
                    for r in 0..block.len() {
                        deliver(port, block.envelope(r));
                    }
                }
            }
        }
    }
}

/// A running wall-clock fingerpointing engine.
///
/// Created through [`OnlineEngine::builder`]. Dropping the engine stops it.
pub struct OnlineEngine {
    senders: Vec<Sender<Cmd>>,
    node_handles: Vec<Option<JoinHandle<()>>>,
    ticker_handle: Option<JoinHandle<()>>,
    downstream_map: Vec<Vec<usize>>,
    stop: Arc<AtomicBool>,
    ticker_stop: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<RunEngineError>>>,
    tap_handles: HashMap<String, TapHandle>,
    clock: WallClock,
    sched: Arc<SchedulerStats>,
}

/// Kahn's topological order over node-level fan-out edges. A built [`Dag`]
/// is acyclic, but the order stays total regardless (stragglers append at
/// the end) so shutdown always reaches every node.
fn topo_order(downstream: &[Vec<usize>]) -> Vec<usize> {
    use std::collections::VecDeque;
    let n = downstream.len();
    let mut indegree = vec![0usize; n];
    for dsts in downstream {
        for &d in dsts {
            indegree[d] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    while let Some(i) = queue.pop_front() {
        order.push(i);
        seen[i] = true;
        for &d in &downstream[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push_back(d);
            }
        }
    }
    for (i, s) in seen.into_iter().enumerate() {
        if !s {
            order.push(i);
        }
    }
    order
}

impl OnlineEngine {
    /// Starts configuring an online engine for `dag`.
    pub fn builder(dag: Dag) -> Builder {
        Builder {
            dag,
            wall_per_tick: Duration::from_secs(1),
            taps: Vec::new(),
            batch_size: 1,
            label: String::new(),
            speed: 1.0,
        }
    }

    /// The tap registered for `instance_id` before start, if any.
    pub fn tap_handle(&self, instance_id: &str) -> Option<&TapHandle> {
        self.tap_handles.get(instance_id)
    }

    /// The engine's current logical time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Whether some module has failed (the engine is then shutting down).
    pub fn has_failed(&self) -> bool {
        self.first_error.lock().is_some()
    }

    /// How many periodic runs (across all modules) started at least one
    /// tick after they were dispatched — the online engine's "falling
    /// behind" signal.
    pub fn tick_overruns(&self) -> u64 {
        self.sched.overruns.load(Ordering::Relaxed)
    }

    /// The most recently observed scheduler lag, in ticks (0 = on time).
    pub fn scheduler_lag_ticks(&self) -> i64 {
        self.sched.last_lag_ticks.load(Ordering::Relaxed)
    }

    /// The worst scheduler lag observed over this engine's lifetime, in
    /// ticks — the soak gate's "lag stays bounded" number (also exported as
    /// the `online.scheduler_lag_ticks_watermark[.<label>]` gauge).
    pub fn scheduler_lag_watermark(&self) -> i64 {
        self.sched.lag_watermark.load(Ordering::Relaxed)
    }

    /// How many ticker wake-ups found that whole ticks had been slept
    /// through (wall-time drift the ticker then caught up on).
    pub fn ticker_catchups(&self) -> u64 {
        self.sched.catchups.load(Ordering::Relaxed)
    }

    /// Envelopes dequeued from module mailboxes so far, across all module
    /// threads of this engine — the online pipeline's throughput figure.
    /// (The global `online.delivered_total` counter aggregates the same
    /// quantity across engines.)
    pub fn envelopes_delivered(&self) -> u64 {
        self.sched.delivered.load(Ordering::Relaxed)
    }

    /// Stops all threads and joins them.
    ///
    /// Abortive: module threads exit at the next command without draining
    /// their mailboxes, so in-flight envelopes may be dropped. Use
    /// [`OnlineEngine::flush_and_stop`] when every delivered sample must
    /// reach its consumers first.
    ///
    /// # Errors
    ///
    /// Returns the first module failure observed during the run, if any.
    pub fn stop(mut self) -> Result<(), RunEngineError> {
        self.shutdown();
        match self.first_error.lock().take() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Stops the engine gracefully, flushing in-flight envelopes.
    ///
    /// The ticker is quiesced first (no new periodic work), then module
    /// threads are stopped in topological order: because each mailbox is
    /// FIFO, a node's Stop command queues behind every envelope its
    /// already-stopped upstreams emitted, so the node consumes its whole
    /// backlog (running whenever its trigger is met) before exiting.
    /// Envelopes left below a trigger threshold are dropped, exactly as a
    /// running engine would never have fired on them.
    ///
    /// # Errors
    ///
    /// Returns the first module failure observed during the run, if any.
    /// After a failure the flush degenerates to the abortive path (the
    /// failed engine is already tearing down).
    pub fn flush_and_stop(mut self) -> Result<(), RunEngineError> {
        self.ticker_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.ticker_handle.take() {
            let _ = handle.join();
        }
        for idx in topo_order(&self.downstream_map) {
            let _ = self.senders[idx].send(Cmd::Stop);
            if let Some(handle) = self.node_handles[idx].take() {
                let _ = handle.join();
            }
        }
        match self.first_error.lock().take() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.ticker_stop.store(true, Ordering::Relaxed);
        for tx in &self.senders {
            let _ = tx.send(Cmd::Stop);
        }
        if let Some(handle) = self.ticker_handle.take() {
            let _ = handle.join();
        }
        for handle in self.node_handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl Drop for OnlineEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for OnlineEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineEngine")
            .field("modules", &self.senders.len())
            .field("now", &self.now())
            .field("failed", &self.has_failed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::dag::Dag;
    use crate::error::ModuleError;
    use crate::module::{InitCtx, Module};
    use crate::registry::ModuleRegistry;
    use crate::time::TickDuration;

    struct Source {
        port: Option<PortId>,
        count: i64,
    }
    impl Module for Source {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.count += 1;
            ctx.emit(self.port.unwrap(), self.count);
            Ok(())
        }
    }

    struct Doubler {
        port: Option<PortId>,
    }
    impl Module for Doubler {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.port = Some(ctx.declare_output("out"));
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            for (_, env) in ctx.take_all() {
                let x = env.sample.value.as_int().unwrap_or(0);
                ctx.emit(self.port.unwrap(), x * 2);
            }
            Ok(())
        }
    }

    struct Sleeper {
        wall: Duration,
    }
    impl Module for Sleeper {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            std::thread::sleep(self.wall);
            Ok(())
        }
    }

    struct FailFast;
    impl Module for FailFast {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            Err(ModuleError::Other("online failure".into()))
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
        reg.register("doubler", || Box::new(Doubler { port: None }));
        reg.register("failfast", || Box::new(FailFast));
        reg.register("sleeper", || {
            Box::new(Sleeper {
                wall: Duration::from_millis(25),
            })
        });
        reg
    }

    fn dag(cfg: &str) -> Dag {
        let cfg: Config = cfg.parse().unwrap();
        Dag::build(&registry(), &cfg).unwrap()
    }

    #[test]
    fn pipeline_runs_online_with_compressed_time() {
        let engine = OnlineEngine::builder(dag(
            "[source]\nid = s\n\n[doubler]\nid = d\ninput[i] = s.out\n",
        ))
        .wall_per_tick(Duration::from_millis(5))
        .tap("d")
        .start()
        .unwrap();

        // Let ~20 compressed seconds elapse.
        std::thread::sleep(Duration::from_millis(100));
        let tap = engine.tap_handle("d").unwrap().clone();
        engine.stop().unwrap();

        let values: Vec<i64> = tap
            .drain()
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert!(
            values.len() >= 5,
            "expected several samples, got {values:?}"
        );
        // Doubler preserves order and doubles the source counter.
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, 2 * (i as i64 + 1));
        }
    }

    #[test]
    fn batched_mailbox_coalescing_preserves_the_stream() {
        // Same pipeline as above but with an 8-delivery tick-range window:
        // the doubler consumes whole coalesced ranges per run, and the
        // output sequence must be indistinguishable from per-sample runs.
        let engine = OnlineEngine::builder(dag(
            "[source]\nid = s\n\n[doubler]\nid = d\ninput[i] = s.out\n",
        ))
        .wall_per_tick(Duration::from_millis(5))
        .batch_size(8)
        .tap("d")
        .start()
        .unwrap();

        std::thread::sleep(Duration::from_millis(100));
        let tap = engine.tap_handle("d").unwrap().clone();
        engine.stop().unwrap();

        let values: Vec<i64> = tap
            .drain()
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert!(
            values.len() >= 5,
            "expected several samples, got {values:?}"
        );
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, 2 * (i as i64 + 1));
        }
    }

    #[test]
    fn slow_module_is_reported_as_tick_overruns() {
        // Each run sleeps 25 ms against a 5 ms tick, so the mailbox backs
        // up and later periodic runs start several ticks late.
        let engine = OnlineEngine::builder(dag("[sleeper]\nid = slow\n"))
            .wall_per_tick(Duration::from_millis(5))
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let overruns = engine.tick_overruns();
        let lag = engine.scheduler_lag_ticks();
        engine.stop().unwrap();
        assert!(overruns >= 1, "expected overruns, got {overruns}");
        assert!(lag >= 1, "expected positive lag, got {lag}");
    }

    #[test]
    fn module_failure_is_reported_at_stop() {
        let engine = OnlineEngine::builder(dag("[failfast]\nid = f\n"))
            .wall_per_tick(Duration::from_millis(5))
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(engine.has_failed());
        let err = engine.stop().unwrap_err();
        assert_eq!(err.instance, "f");
    }

    #[test]
    fn unknown_tap_is_rejected_at_build() {
        let err = OnlineEngine::builder(dag("[source]\nid = s\n"))
            .tap("ghost")
            .start()
            .map(|_| ())
            .unwrap_err();
        match err {
            OnlineStartError::UnknownTaps { taps } => assert_eq!(taps, ["ghost"]),
            other => panic!("expected UnknownTaps, got {other:?}"),
        }
    }

    #[test]
    fn non_positive_or_non_finite_speed_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = OnlineEngine::builder(dag("[source]\nid = s\n"))
                .speed(bad)
                .start()
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, OnlineStartError::InvalidSpeed { .. }),
                "speed {bad} should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn speed_multiplier_compresses_wall_time() {
        // 40 ms per tick at 8x => 5 ms effective; after 100 ms the clock
        // must have advanced well past what 40 ms ticks would allow.
        let engine = OnlineEngine::builder(dag("[source]\nid = s\n"))
            .wall_per_tick(Duration::from_millis(40))
            .speed(8.0)
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let now = engine.now();
        engine.stop().unwrap();
        assert!(
            now.as_secs() >= 5,
            "expected >= 5 compressed ticks, got {}",
            now.as_secs()
        );
    }

    #[test]
    fn flush_and_stop_delivers_every_inflight_envelope() {
        // Abortive stop may drop envelopes queued between source and
        // doubler; graceful flush must not: after flushing, the doubler's
        // output is exactly the source's output doubled, element for
        // element — no truncated tail.
        let engine = OnlineEngine::builder(dag(
            "[source]\nid = s\n\n[doubler]\nid = d\ninput[i] = s.out\n",
        ))
        .wall_per_tick(Duration::from_millis(5))
        .tap("s")
        .tap("d")
        .start()
        .unwrap();

        std::thread::sleep(Duration::from_millis(100));
        let src = engine.tap_handle("s").unwrap().clone();
        let dst = engine.tap_handle("d").unwrap().clone();
        engine.flush_and_stop().unwrap();

        let produced: Vec<i64> = src
            .drain()
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        let consumed: Vec<i64> = dst
            .drain()
            .iter()
            .map(|e| e.sample.value.as_int().unwrap())
            .collect();
        assert!(produced.len() >= 5, "expected several samples");
        let doubled: Vec<i64> = produced.iter().map(|v| v * 2).collect();
        assert_eq!(consumed, doubled, "flush lost in-flight envelopes");
    }

    #[test]
    fn lag_watermark_tracks_worst_observed_lag() {
        let engine = OnlineEngine::builder(dag("[sleeper]\nid = slow\n"))
            .wall_per_tick(Duration::from_millis(5))
            .label("wmtest")
            .start()
            .unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let watermark = engine.scheduler_lag_watermark();
        engine.stop().unwrap();
        assert!(
            watermark >= 1,
            "expected positive watermark, got {watermark}"
        );
    }
}
