//! The wall-clock online engine: one pacer thread over the tick scheduler.
//!
//! [`OnlineEngine`] owns a [`TickEngine`] on a single *pacer* thread and
//! calls [`TickEngine::tick`] at absolute wall-clock deadlines. Who runs
//! when — periodic timers, input triggers, routing — is decided by
//! `engine.rs` alone; this module only decides *when the next logical
//! second happens*. The tick sequence a DAG sees online is
//! therefore exactly the one [`TickEngine::run_for`] gives it offline, and
//! nothing is "in flight" between two ticks. (The paper spawns a thread
//! per module instance; DESIGN.md §1 records the deviation.)
//!
//! The engine maps wall time onto the framework's one-second [`Timestamp`]
//! resolution through a configurable `wall_per_tick` duration: with the
//! default of one second the engine runs in real time, while tests and demos
//! can compress time (e.g. 5 ms per tick) without changing module behavior.
//!
//! # Pacing policy
//!
//! Tick `k` is due at `start + k * wall_per_tick / speed` — an absolute
//! deadline, so sleep overshoot never accumulates. A late pacer (the
//! previous tick overran, or the host did not wake it) runs its overdue
//! ticks back to back: it catches up and **never skips a logical second**.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::dag::Dag;
use crate::engine::{TapHandle, TickEngine};
use crate::error::{OnlineStartError, RunEngineError};
use crate::time::Timestamp;

/// Scheduler-health telemetry of one engine's pacer.
///
/// An online deployment falls behind in exactly one place: a tick that
/// starts after its deadline. Two causes, two metrics (global registry,
/// mirrored into per-engine atomics for the [`OnlineEngine`] accessors):
/// the ticks before it overran — `online.scheduler_lag_ticks`, counted in
/// `online.tick_overruns_total` — or the host woke the pacer late —
/// `online.ticker_drift_ticks`, counted in `online.ticker_catchup_total`.
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
    /// Registers this engine's metric family: unsuffixed for an empty
    /// `label`, else `.<label>` on every metric so N engines stay apart.
    fn new(label: &str) -> Self {
        let reg = asdf_obs::registry();
        let (suffix, tag) = match label {
            "" => (String::new(), "online".to_owned()),
            _ => (format!(".{label}"), format!("online:{label}")),
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

    /// Records how many whole ticks after its deadline (or the pacer's last
    /// wake-up, if later) the tick stamped `at` started, warning on overrun
    /// (log volume is bounded: only power-of-two occurrence counts log).
    fn observe_lag(&self, at: Timestamp, lag_ticks: i64) {
        self.last_lag_ticks.store(lag_ticks, Ordering::Relaxed);
        self.lag_gauge.set(lag_ticks);
        let seen = self.lag_watermark.fetch_max(lag_ticks, Ordering::Relaxed);
        self.watermark_gauge.set(seen.max(lag_ticks));
        if lag_ticks >= 1 {
            let n = self.overruns.fetch_add(1, Ordering::Relaxed) + 1;
            self.overrun_counter.inc();
            if n.is_power_of_two() {
                eprintln!(
                    "warning: [{}] tick {} started {lag_ticks} tick(s) late ({n} overrun(s) \
                     so far) — the modules are not keeping up with the pacer",
                    self.tag,
                    at.as_secs()
                );
            }
        }
    }

    /// Records how far past its deadline the pacer woke from a sleep. At
    /// 1 or more it slept through whole ticks — an overloaded host, or a
    /// tick shorter than the OS can schedule — and now runs them back to back.
    fn observe_drift(&self, drift_ticks: i64) {
        self.drift_gauge.set(drift_ticks);
        if drift_ticks >= 1 {
            let n = self.catchups.fetch_add(1, Ordering::Relaxed) + 1;
            self.catchup_counter.inc();
            if n.is_power_of_two() {
                eprintln!(
                    "warning: [{}] pacer woke {drift_ticks} tick(s) behind wall time \
                     and is catching up ({n} catch-up(s) so far)",
                    self.tag
                );
            }
        }
    }
}

/// Pacer modes. [`FLUSH`] stops pacing and runs one final tick before the
/// exit ([`OnlineEngine::flush_and_stop`]); [`ABORT`] just exits
/// ([`OnlineEngine::stop`], `Drop`).
const RUN: u8 = 0;
const FLUSH: u8 = 1;
const ABORT: u8 = 2;

/// What the pacer thread shares with the [`OnlineEngine`] handle.
struct Shared {
    sched: SchedulerStats,
    /// [`RUN`], [`FLUSH`] or [`ABORT`]: stored `Release` by the handle
    /// before it unparks the pacer, loaded `Acquire` between ticks.
    mode: AtomicU8,
    /// Ticks completed so far. Stored `Release` after a tick, so whoever
    /// loads (`Acquire`) `k` finds what ticks `0..k` pushed into the taps.
    now: AtomicU64,
}

/// The pacer thread's body: `engine.tick()` once per `tick` of wall time,
/// at absolute deadlines, until told to stop or a module fails.
fn pace(mut engine: TickEngine, tick: Duration, shared: &Shared) -> Result<(), RunEngineError> {
    let sched = &shared.sched;
    let mut routed = 0;
    let mut run_tick = |engine: &mut TickEngine| {
        engine.tick()?;
        let total = engine.envelopes_routed();
        sched.delivered.store(total, Ordering::Relaxed);
        sched.delivered_counter.add(total - routed);
        routed = total;
        shared.now.store(engine.now().as_secs(), Ordering::Release);
        Ok(())
    };
    let ticks = |d: Duration| i64::try_from(d.as_nanos() / tick.as_nanos()).unwrap_or(i64::MAX);
    let mut due = Instant::now();
    let mut woke = due;
    loop {
        // Wait out the time to the deadline; a stop request unparks us.
        let mut slept = false;
        let start = loop {
            match shared.mode.load(Ordering::Acquire) {
                ABORT => return Ok(()),
                // Overdue ticks are not replayed on the way out: one final
                // tick consumes what the sources were handed since the last.
                FLUSH => return run_tick(&mut engine),
                _ => {}
            }
            let now = Instant::now();
            if now >= due {
                break now;
            }
            slept = true;
            std::thread::park_timeout(due - now);
        };
        // Waking late is the host's lateness (drift). Lag is the engine's
        // own: no tick could have started before the pacer last woke.
        if slept {
            woke = start;
            sched.observe_drift(ticks(start - due));
        }
        sched.observe_lag(engine.now(), ticks(start - due.max(woke)));
        run_tick(&mut engine)?;
        due += tick;
    }
}

/// Configures and launches an [`OnlineEngine`]; obtained from
/// [`OnlineEngine::builder`]. Taps must be registered before
/// [`Builder::start`], because the engine moves onto the pacer thread.
pub struct Builder {
    dag: Dag,
    wall_per_tick: Duration,
    taps: Vec<String>,
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
    /// warnings. The empty default keeps the unsuffixed metric names; a
    /// serve daemon labels each tenant's engine with the tenant id.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Scales real-time pacing: the effective tick is `wall_per_tick /
    /// speed` (default 1.0; `2.0` replays twice as fast as real time).
    /// Rejected at [`Builder::start`] if not a positive finite number.
    #[must_use]
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// Taps the named instance; the handle is retrieved from the running
    /// engine with [`OnlineEngine::tap_handle`].
    #[must_use]
    pub fn tap(mut self, instance_id: impl Into<String>) -> Self {
        self.taps.push(instance_id.into());
        self
    }

    /// Builds the tick engine, spawns the pacer thread and starts
    /// execution: the first tick is due immediately.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineStartError::UnknownTaps`] for tap ids that matched
    /// no instance, [`OnlineStartError::InvalidSpeed`] for a non-positive
    /// or non-finite speed multiplier, and [`OnlineStartError::Spawn`]
    /// (chaining the OS error) if the pacer thread failed to launch.
    pub fn start(self) -> Result<OnlineEngine, OnlineStartError> {
        let speed = self.speed;
        if !speed.is_finite() || speed <= 0.0 {
            return Err(OnlineStartError::InvalidSpeed { speed });
        }
        let dag = self.dag;
        let missing: Vec<String> = (self.taps.iter())
            .filter(|id| dag.index_of(id).is_none())
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Err(OnlineStartError::UnknownTaps { taps: missing });
        }

        let mut engine = TickEngine::new(dag);
        // Duplicate tap ids coalesce onto one handle (and one delivery).
        let mut tap_handles: HashMap<String, TapHandle> = HashMap::new();
        for id in self.taps {
            if let Entry::Vacant(slot) = tap_handles.entry(id) {
                let handle = engine.tap(slot.key()).expect("tap ids validated above");
                slot.insert(handle);
            }
        }

        let tick = Duration::max(self.wall_per_tick.div_f64(speed), Duration::from_nanos(1));
        let shared = Arc::new(Shared {
            sched: SchedulerStats::new(&self.label),
            mode: AtomicU8::new(RUN),
            now: AtomicU64::new(0),
        });
        let name = match self.label.as_str() {
            "" => "asdf-pacer".to_owned(),
            label => format!("asdf-pacer-{label}"),
        };
        let pacer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || pace(engine, tick, &shared))
                .map_err(|source| OnlineStartError::Spawn {
                    thread: name,
                    source,
                })?
        };
        Ok(OnlineEngine {
            pacer: Some(pacer),
            shared,
            tap_handles,
        })
    }
}

/// A running wall-clock fingerpointing engine.
///
/// Created through [`OnlineEngine::builder`]. Dropping the engine stops it.
pub struct OnlineEngine {
    /// `None` once joined. The pacer only exits unasked when a module failed.
    pacer: Option<JoinHandle<Result<(), RunEngineError>>>,
    shared: Arc<Shared>,
    tap_handles: HashMap<String, TapHandle>,
}

impl OnlineEngine {
    /// Starts configuring an online engine for `dag`.
    pub fn builder(dag: Dag) -> Builder {
        Builder {
            dag,
            wall_per_tick: Duration::from_secs(1),
            taps: Vec::new(),
            label: String::new(),
            speed: 1.0,
        }
    }

    /// The tap registered for `instance_id` before start, if any.
    pub fn tap_handle(&self, instance_id: &str) -> Option<&TapHandle> {
        self.tap_handles.get(instance_id)
    }

    /// The engine's current logical time: how many ticks have completed,
    /// i.e. the timestamp the next tick will carry. Trails the wall clock
    /// by [`OnlineEngine::scheduler_lag_ticks`] when the engine is behind.
    pub fn now(&self) -> Timestamp {
        Timestamp::from_secs(self.shared.now.load(Ordering::Acquire))
    }

    /// Whether some module has failed (the engine has then stopped).
    pub fn has_failed(&self) -> bool {
        self.pacer.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// How many ticks started at least one whole tick late because the
    /// ticks before them overran — the "modules are not keeping up" signal.
    pub fn tick_overruns(&self) -> u64 {
        self.shared.sched.overruns.load(Ordering::Relaxed)
    }

    /// How many whole ticks late the most recent tick started, counted from
    /// its deadline or the pacer's last wake-up, whichever is later (a late
    /// wake-up is drift, not lag).
    pub fn scheduler_lag_ticks(&self) -> i64 {
        self.shared.sched.last_lag_ticks.load(Ordering::Relaxed)
    }

    /// The worst scheduler lag over this engine's lifetime, in ticks — the
    /// soak gate's number (`online.scheduler_lag_ticks_watermark[.<label>]`).
    pub fn scheduler_lag_watermark(&self) -> i64 {
        self.shared.sched.lag_watermark.load(Ordering::Relaxed)
    }

    /// How many pacer wake-ups found that whole ticks had been slept
    /// through (wall-time drift the pacer then caught up on).
    pub fn ticker_catchups(&self) -> u64 {
        self.shared.sched.catchups.load(Ordering::Relaxed)
    }

    /// Envelopes routed between module instances so far
    /// ([`TickEngine::envelopes_routed`], published after every tick): the
    /// online throughput figure, and a pure function of the ticks run. (The
    /// global `online.delivered_total` counter sums it across engines.)
    pub fn envelopes_delivered(&self) -> u64 {
        self.shared.sched.delivered.load(Ordering::Relaxed)
    }

    /// Stops the engine as soon as the running tick (if any) has finished.
    ///
    /// Abortive: no further tick runs, so whatever a source module was
    /// handed since the last tick is never consumed. Use
    /// [`OnlineEngine::flush_and_stop`] when it must be.
    ///
    /// # Errors
    ///
    /// Returns the first module failure observed during the run, if any.
    pub fn stop(mut self) -> Result<(), RunEngineError> {
        self.finish(ABORT)
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Stops the engine gracefully: pacing stops, the running tick (if
    /// any) finishes, and **one final tick** runs before the pacer exits.
    ///
    /// A tick carries every sample end to end, so nothing is ever in
    /// flight between two ticks; the final tick is for what reached a
    /// *source* since the last one (a serve tenant's ingress queue).
    /// Envelopes left below a trigger threshold stay unconsumed, exactly
    /// as a running engine would never have fired on them.
    ///
    /// # Errors
    ///
    /// Returns the first module failure observed during the run, if any.
    /// A failed engine has already stopped and runs no final tick.
    pub fn flush_and_stop(mut self) -> Result<(), RunEngineError> {
        self.flush()
    }

    /// [`OnlineEngine::flush_and_stop`] through a borrow: the handle
    /// survives, so the engine's counters can be read once they are final.
    pub fn flush(&mut self) -> Result<(), RunEngineError> {
        self.finish(FLUSH)
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Tells the pacer how to exit, wakes it, and joins it. The outer
    /// error is a module's panic on the pacer thread.
    fn finish(&mut self, mode: u8) -> std::thread::Result<Result<(), RunEngineError>> {
        let Some(pacer) = self.pacer.take() else {
            return Ok(Ok(()));
        };
        self.shared.mode.store(mode, Ordering::Release);
        pacer.thread().unpark();
        pacer.join()
    }
}

impl Drop for OnlineEngine {
    fn drop(&mut self) {
        let _ = self.finish(ABORT);
    }
}

impl std::fmt::Debug for OnlineEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineEngine")
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
    use crate::module::{PortId, RunCtx, RunReason};
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
