//! The fpt-core plug-in API (§3.2 of the paper).
//!
//! All modules — data-collection and analysis alike — implement the same
//! [`Module`] trait with two entry points:
//!
//! * [`Module::init`] is called once when the instance is created, while the
//!   DAG is being constructed. The module reads its configuration
//!   parameters, verifies its wired inputs, declares its outputs, and
//!   requests scheduling (periodic and/or input-triggered).
//! * [`Module::run`] is called by the engine scheduler, with a
//!   [`RunReason`] explaining why: a periodic timer fired, or enough new
//!   input samples arrived.
//!
//! Output-only modules (data collectors) typically request periodic
//! scheduling; modules with inputs are run automatically whenever a
//! configurable number of their inputs are updated.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::config::InstanceConfig;
use crate::error::ModuleError;
use crate::time::{TickDuration, Timestamp};
use crate::value::{Sample, Value};

/// Identifies one declared output port of a module instance.
///
/// Returned by [`InitCtx::declare_output`] and consumed by
/// [`RunCtx::emit`]. Port ids are only meaningful within the instance that
/// declared them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub(crate) usize);

impl PortId {
    /// The port's index in declaration order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Descriptive metadata for an output port: which instance it belongs to,
/// its port name, and its *origin*.
///
/// Origin is free-form provenance information (paper §3.2: "Setting origin
/// information for the output connections") — for ASDF's Hadoop deployment
/// it names the monitored node, so that analysis modules can attribute each
/// incoming sample stream to a cluster node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OutputMeta {
    /// Id of the instance that declared the port.
    pub instance: String,
    /// Port name, unique within the instance.
    pub name: String,
    /// Provenance label, e.g. the monitored node's hostname.
    pub origin: String,
}

impl fmt::Display for OutputMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.instance, self.name)?;
        if self.origin != self.instance {
            write!(f, " (origin {})", self.origin)?;
        }
        Ok(())
    }
}

/// A sample together with the output port it came from.
///
/// Analysis modules receiving data from many upstream ports use the
/// [`Envelope::source`] metadata (port name, origin) to tell the streams
/// apart.
///
/// Both fields are `Arc`-backed ([`crate::value::Value`]'s heap variants
/// hold `Arc<str>` / `Arc<[f64]>`), so `clone` is always a shallow
/// reference-count bump — the engine broadcasts fan-out deliveries as
/// such snapshots and *moves* the envelope into single-consumer edges
/// without cloning at all (counted by `engine.env_clones.<id>`).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The emitting port.
    pub source: Arc<OutputMeta>,
    /// The emitted sample.
    pub sample: Sample,
}

/// Why the scheduler invoked [`Module::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunReason {
    /// The instance's periodic timer fired
    /// (requested via [`InitCtx::request_periodic`]).
    Periodic,
    /// At least the configured number of new input samples arrived
    /// (see [`InitCtx::set_input_trigger`]).
    InputsReady,
}

/// Scheduling requested by a module during `init()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Period for timer-driven runs, if requested.
    pub periodic: Option<TickDuration>,
    /// Run after this many new input envelopes (0 disables input triggering).
    pub input_trigger: usize,
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        ScheduleSpec {
            periodic: None,
            input_trigger: 1,
        }
    }
}

/// An fpt-core plug-in module.
///
/// Implementations must be [`Send`]: the online engine moves the whole DAG
/// onto its pacer thread.
///
/// # Examples
///
/// A minimal periodic counter module:
///
/// ```
/// use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
/// use asdf_core::error::ModuleError;
/// use asdf_core::time::TickDuration;
///
/// struct Counter {
///     out: Option<PortId>,
///     n: i64,
/// }
///
/// impl Module for Counter {
///     fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
///         self.out = Some(ctx.declare_output("count"));
///         ctx.request_periodic(TickDuration::SECOND);
///         Ok(())
///     }
///
///     fn run(&mut self, ctx: &mut RunCtx<'_>, _why: RunReason) -> Result<(), ModuleError> {
///         self.n += 1;
///         ctx.emit(self.out.unwrap(), self.n);
///         Ok(())
///     }
/// }
/// ```
pub trait Module: Send {
    /// Called once when the instance is created during DAG construction.
    ///
    /// # Errors
    ///
    /// Implementations should return [`ModuleError`] when configuration
    /// parameters are missing/invalid or the wired inputs are unacceptable;
    /// DAG construction then fails with
    /// [`crate::error::BuildDagError::ModuleInit`].
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError>;

    /// Called by the engine scheduler.
    ///
    /// Modules with inputs should drain them via [`RunCtx::drain_all`] /
    /// [`RunCtx::take_slot`] / [`RunCtx::take_all`] and perform their
    /// processing; modules with outputs should emit via [`RunCtx::emit`].
    ///
    /// # Errors
    ///
    /// A returned error aborts the engine run
    /// (see [`crate::error::RunEngineError`]).
    fn run(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError>;

    /// Inert: the engine never calls it, and enters every module through
    /// [`Module::run`]. It survives only because
    /// `asdfbench`'s `Timed` wrapper still forwards it; ROADMAP's benchmark
    /// slice A deletes it together with that override.
    ///
    /// # Errors
    ///
    /// Same contract as [`Module::run`], to which the default forwards.
    fn run_batch(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
        self.run(ctx, reason)
    }

    /// Inert: the engine never asks. Every module receives its input as
    /// envelopes in its queues; this survives, like [`Module::run_batch`],
    /// only until ROADMAP's benchmark slice A drops its last override.
    fn accepts_row_blocks(&self) -> bool {
        false
    }
}

/// Everything a module may inspect or request during [`Module::init`].
pub struct InitCtx<'a> {
    pub(crate) cfg: &'a InstanceConfig,
    pub(crate) resolved_inputs: &'a [(String, Vec<Arc<OutputMeta>>)],
    pub(crate) outputs: &'a mut Vec<Arc<OutputMeta>>,
    pub(crate) schedule: &'a mut ScheduleSpec,
}

impl<'a> InitCtx<'a> {
    /// The instance id from the configuration.
    pub fn instance_id(&self) -> &str {
        &self.cfg.id
    }

    /// Looks up an optional configuration parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.cfg.param(key)
    }

    /// Looks up a required configuration parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::MissingParameter`] when absent.
    pub fn require_param(&self, key: &str) -> Result<&str, ModuleError> {
        self.param(key)
            .ok_or_else(|| ModuleError::MissingParameter(key.to_owned()))
    }

    /// Parses a required parameter with [`FromStr`].
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::MissingParameter`] when absent and
    /// [`ModuleError::InvalidParameter`] when unparseable.
    pub fn parse_param<T>(&self, key: &str) -> Result<T, ModuleError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        let raw = self.require_param(key)?;
        raw.parse()
            .map_err(|e: T::Err| ModuleError::invalid_parameter(key, e.to_string()))
    }

    /// Parses an optional parameter, substituting `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::InvalidParameter`] when present but
    /// unparseable.
    pub fn parse_param_or<T>(&self, key: &str, default: T) -> Result<T, ModuleError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        match self.param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e: T::Err| ModuleError::invalid_parameter(key, e.to_string())),
        }
    }

    /// The wired input slots, in configuration order: slot name plus the
    /// upstream output ports connected to it.
    pub fn input_slots(&self) -> &[(String, Vec<Arc<OutputMeta>>)] {
        self.resolved_inputs
    }

    /// The upstream ports connected to a named slot, if the slot exists.
    pub fn input_slot(&self, name: &str) -> Option<&[Arc<OutputMeta>]> {
        self.resolved_inputs
            .iter()
            .find(|(slot, _)| slot == name)
            .map(|(_, conns)| conns.as_slice())
    }

    /// Requires that exactly `n` input slots are wired.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::BadInputs`] otherwise.
    pub fn expect_input_count(&self, n: usize) -> Result<(), ModuleError> {
        if self.resolved_inputs.len() == n {
            Ok(())
        } else {
            Err(ModuleError::BadInputs(format!(
                "expected {n} input slot(s), got {}",
                self.resolved_inputs.len()
            )))
        }
    }

    /// Declares an output port named `name`, with origin defaulting to the
    /// instance id.
    pub fn declare_output(&mut self, name: impl Into<String>) -> PortId {
        let id = self.cfg.id.clone();
        self.declare_output_with_origin(name, id)
    }

    /// Declares an output port with explicit origin provenance (e.g. the
    /// monitored node's hostname).
    pub fn declare_output_with_origin(
        &mut self,
        name: impl Into<String>,
        origin: impl Into<String>,
    ) -> PortId {
        let meta = OutputMeta {
            instance: self.cfg.id.clone(),
            name: name.into(),
            origin: origin.into(),
        };
        self.outputs.push(Arc::new(meta));
        PortId(self.outputs.len() - 1)
    }

    /// Requests that `run()` be called every `period`.
    pub fn request_periodic(&mut self, period: TickDuration) {
        self.schedule.periodic = Some(period);
    }

    /// Requests that `run()` be called once `count` new input envelopes have
    /// accumulated (default 1). Zero disables input-triggered runs.
    pub fn set_input_trigger(&mut self, count: usize) {
        self.schedule.input_trigger = count;
    }
}

/// Everything a module may do during [`Module::run`]: inspect the clock,
/// drain its input queues, and emit output samples.
pub struct RunCtx<'a> {
    pub(crate) now: Timestamp,
    pub(crate) slot_names: &'a [String],
    pub(crate) queues: &'a mut [VecDeque<Envelope>],
    pub(crate) emitted: &'a mut Vec<(PortId, Sample)>,
    pub(crate) n_outputs: usize,
}

/// Panics unless `port` is one of an instance's `n_outputs` declared ports.
fn check_declared(port: PortId, n_outputs: usize) {
    assert!(
        port.0 < n_outputs,
        "emit on undeclared port {} (instance has {} outputs)",
        port.0,
        n_outputs
    );
}

impl<'a> RunCtx<'a> {
    /// The current engine time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The wired input slot names, in configuration order.
    pub fn slot_names(&self) -> &[String] {
        self.slot_names
    }

    /// Drains and returns all pending envelopes on the named slot.
    ///
    /// Returns an empty vector for unknown slot names, so modules that
    /// tolerate optional inputs need no special casing.
    pub fn take_slot(&mut self, name: &str) -> Vec<Envelope> {
        match self.slot_names.iter().position(|s| s == name) {
            Some(idx) => self.queues[idx].drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Drains and returns all pending envelopes on the slot at `index`
    /// (configuration order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take_slot_at(&mut self, index: usize) -> Vec<Envelope> {
        self.queues[index].drain(..).collect()
    }

    /// Drains every slot, returning `(slot_index, envelope)` pairs in slot
    /// order.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should prefer the
    /// borrowing [`RunCtx::drain_all`] / [`RunCtx::drain_and_emit`].
    pub fn take_all(&mut self) -> Vec<(usize, Envelope)> {
        let mut out = Vec::new();
        for (idx, q) in self.queues.iter_mut().enumerate() {
            out.extend(q.drain(..).map(|e| (idx, e)));
        }
        out
    }

    /// Drains every slot lazily, yielding `(slot_index, envelope)` pairs in
    /// the same slot-then-FIFO order as [`RunCtx::take_all`], without
    /// collecting into a `Vec` first.
    ///
    /// The iterator borrows the input queues, so `emit` cannot be called
    /// while it is live; modules that emit per consumed envelope should use
    /// [`RunCtx::drain_and_emit`] instead.
    pub fn drain_all(&mut self) -> DrainAll<'_> {
        DrainAll {
            queues: &mut *self.queues,
            slot: 0,
        }
    }

    /// Splits the context into a draining iterator over the input queues
    /// and an [`Emitter`] for the output side, so a module can emit while
    /// consuming — the borrowing counterpart of the
    /// `for (..) in take_all() { ... emit ... }` pattern.
    pub fn drain_and_emit(&mut self) -> (DrainAll<'_>, Emitter<'_>) {
        (
            DrainAll {
                queues: &mut *self.queues,
                slot: 0,
            },
            Emitter {
                now: self.now,
                emitted: &mut *self.emitted,
                n_outputs: self.n_outputs,
            },
        )
    }

    /// Clears every input queue without inspecting the envelopes, returning
    /// how many were discarded. For modules that only consume a clock pulse.
    pub fn discard_pending(&mut self) -> usize {
        let mut n = 0;
        for q in self.queues.iter_mut() {
            n += q.len();
            q.clear();
        }
        n
    }

    /// Number of queued input envelopes across all slots.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Emits a value on `port`, stamped with the current engine time.
    ///
    /// # Panics
    ///
    /// Panics if `port` was not declared by this instance during `init()`.
    pub fn emit(&mut self, port: PortId, value: impl Into<Value>) {
        self.emit_sample(port, Sample::new(self.now, value));
    }

    /// Emits a pre-stamped sample on `port` (for modules that re-emit
    /// buffered data with original timestamps, like `ibuffer`).
    ///
    /// # Panics
    ///
    /// Panics if `port` was not declared by this instance during `init()`.
    pub fn emit_sample(&mut self, port: PortId, sample: Sample) {
        check_declared(port, self.n_outputs);
        self.emitted.push((port, sample));
    }
}

/// Borrowing drain over a module's input queues, yielding
/// `(slot_index, envelope)` in slot-then-FIFO order — the allocation-free
/// counterpart of [`RunCtx::take_all`]. Created by [`RunCtx::drain_all`]
/// and [`RunCtx::drain_and_emit`].
///
/// Envelopes are removed as they are yielded; dropping the iterator early
/// leaves the remaining ones queued.
pub struct DrainAll<'a> {
    queues: &'a mut [VecDeque<Envelope>],
    slot: usize,
}

impl Iterator for DrainAll<'_> {
    type Item = (usize, Envelope);

    fn next(&mut self) -> Option<(usize, Envelope)> {
        while self.slot < self.queues.len() {
            if let Some(env) = self.queues[self.slot].pop_front() {
                return Some((self.slot, env));
            }
            self.slot += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.queues[self.slot.min(self.queues.len())..]
            .iter()
            .map(VecDeque::len)
            .sum();
        (n, Some(n))
    }
}

/// The output half of [`RunCtx::drain_and_emit`]: lets a module emit while
/// a [`DrainAll`] borrow of the input queues is live.
pub struct Emitter<'a> {
    now: Timestamp,
    emitted: &'a mut Vec<(PortId, Sample)>,
    n_outputs: usize,
}

impl Emitter<'_> {
    /// The current engine time (what [`Emitter::emit`] stamps).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Emits a value on `port`, stamped with the current engine time.
    ///
    /// # Panics
    ///
    /// Panics if `port` was not declared by this instance during `init()`.
    pub fn emit(&mut self, port: PortId, value: impl Into<Value>) {
        self.emit_sample(port, Sample::new(self.now, value));
    }

    /// Emits a pre-stamped sample on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` was not declared by this instance during `init()`.
    pub fn emit_sample(&mut self, port: PortId, sample: Sample) {
        check_declared(port, self.n_outputs);
        self.emitted.push((port, sample));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type CtxParts = (
        Vec<(String, Vec<Arc<OutputMeta>>)>,
        Vec<Arc<OutputMeta>>,
        ScheduleSpec,
    );

    fn ctx_fixture(_cfg: &InstanceConfig) -> CtxParts {
        (Vec::new(), Vec::new(), ScheduleSpec::default())
    }

    #[test]
    fn init_ctx_param_parsing() {
        let cfg = InstanceConfig::new("m", "m0")
            .with_param("size", 10)
            .with_param("bad", "xyz");
        let (resolved, mut outputs, mut schedule) = ctx_fixture(&cfg);
        let ctx = InitCtx {
            cfg: &cfg,
            resolved_inputs: &resolved,
            outputs: &mut outputs,
            schedule: &mut schedule,
        };
        assert_eq!(ctx.parse_param::<usize>("size").unwrap(), 10);
        assert_eq!(ctx.parse_param_or::<usize>("missing", 7).unwrap(), 7);
        assert!(matches!(
            ctx.parse_param::<usize>("missing"),
            Err(ModuleError::MissingParameter(_))
        ));
        assert!(matches!(
            ctx.parse_param::<usize>("bad"),
            Err(ModuleError::InvalidParameter { .. })
        ));
        drop(resolved);
    }

    #[test]
    fn init_ctx_output_declaration_assigns_sequential_ports() {
        let cfg = InstanceConfig::new("m", "m0");
        let resolved = Vec::new();
        let mut outputs = Vec::new();
        let mut schedule = ScheduleSpec::default();
        let mut ctx = InitCtx {
            cfg: &cfg,
            resolved_inputs: &resolved,
            outputs: &mut outputs,
            schedule: &mut schedule,
        };
        let a = ctx.declare_output("a");
        let b = ctx.declare_output_with_origin("b", "node7");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(outputs[1].origin, "node7");
        assert_eq!(outputs[0].origin, "m0");
        assert_eq!(outputs[0].to_string(), "m0.a");
        assert_eq!(outputs[1].to_string(), "m0.b (origin node7)");
    }

    #[test]
    fn init_ctx_schedule_requests_are_recorded() {
        let cfg = InstanceConfig::new("m", "m0");
        let resolved = Vec::new();
        let mut outputs = Vec::new();
        let mut schedule = ScheduleSpec::default();
        let mut ctx = InitCtx {
            cfg: &cfg,
            resolved_inputs: &resolved,
            outputs: &mut outputs,
            schedule: &mut schedule,
        };
        ctx.request_periodic(TickDuration::from_secs(5));
        ctx.set_input_trigger(3);
        assert_eq!(schedule.periodic, Some(TickDuration::from_secs(5)));
        assert_eq!(schedule.input_trigger, 3);
    }

    #[test]
    fn run_ctx_take_and_emit() {
        let meta = Arc::new(OutputMeta {
            instance: "up".into(),
            name: "o".into(),
            origin: "up".into(),
        });
        let slot_names = vec!["in".to_owned()];
        let mut queues = vec![VecDeque::from(vec![
            Envelope {
                source: Arc::clone(&meta),
                sample: Sample::new(Timestamp::from_secs(1), 1.0),
            },
            Envelope {
                source: Arc::clone(&meta),
                sample: Sample::new(Timestamp::from_secs(2), 2.0),
            },
        ])];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx {
            now: Timestamp::from_secs(2),
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: 1,
        };
        assert_eq!(ctx.pending(), 2);
        let got = ctx.take_slot("in");
        assert_eq!(got.len(), 2);
        assert_eq!(ctx.pending(), 0);
        assert!(ctx.take_slot("nonexistent").is_empty());
        ctx.emit(PortId(0), 9.0);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].1.timestamp, Timestamp::from_secs(2));
    }

    #[test]
    fn run_ctx_drain_all_matches_take_all_order() {
        let meta = Arc::new(OutputMeta {
            instance: "up".into(),
            name: "o".into(),
            origin: "up".into(),
        });
        let env = |secs: u64, v: f64| Envelope {
            source: Arc::clone(&meta),
            sample: Sample::new(Timestamp::from_secs(secs), v),
        };
        let slot_names = vec!["a".to_owned(), "b".to_owned()];
        let mut queues = vec![
            VecDeque::from(vec![env(1, 1.0), env(2, 2.0)]),
            VecDeque::from(vec![env(1, 3.0)]),
        ];
        let mut reference = queues.clone();
        let mut emitted = Vec::new();
        let mut ctx = RunCtx {
            now: Timestamp::from_secs(2),
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: 1,
        };
        let drained: Vec<(usize, Envelope)> = ctx.drain_all().collect();
        assert_eq!(ctx.pending(), 0);
        let mut emitted2 = Vec::new();
        let mut ref_ctx = RunCtx {
            now: Timestamp::from_secs(2),
            slot_names: &slot_names,
            queues: &mut reference,
            emitted: &mut emitted2,
            n_outputs: 1,
        };
        assert_eq!(drained, ref_ctx.take_all());
    }

    #[test]
    fn run_ctx_drain_and_emit_interleaves() {
        let meta = Arc::new(OutputMeta {
            instance: "up".into(),
            name: "o".into(),
            origin: "up".into(),
        });
        let slot_names = vec!["in".to_owned()];
        let mut queues = vec![VecDeque::from(vec![
            Envelope {
                source: Arc::clone(&meta),
                sample: Sample::new(Timestamp::from_secs(1), 1.0),
            },
            Envelope {
                source: Arc::clone(&meta),
                sample: Sample::new(Timestamp::from_secs(2), 2.0),
            },
        ])];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx {
            now: Timestamp::from_secs(5),
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: 1,
        };
        let (drain, mut emit) = ctx.drain_and_emit();
        for (_, env) in drain {
            emit.emit(PortId(0), env.sample.value.as_float().unwrap() * 10.0);
        }
        assert_eq!(emit.now(), Timestamp::from_secs(5));
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[1].1.value.as_float(), Some(20.0));
        assert_eq!(emitted[1].1.timestamp, Timestamp::from_secs(5));
    }

    #[test]
    fn run_ctx_discard_pending_counts_and_clears() {
        let meta = Arc::new(OutputMeta {
            instance: "up".into(),
            name: "o".into(),
            origin: "up".into(),
        });
        let env = Envelope {
            source: meta,
            sample: Sample::new(Timestamp::from_secs(1), 1.0),
        };
        let slot_names = vec!["a".to_owned(), "b".to_owned()];
        let mut queues = vec![
            VecDeque::from(vec![env.clone(), env.clone()]),
            VecDeque::from(vec![env]),
        ];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx {
            now: Timestamp::EPOCH,
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: 0,
        };
        assert_eq!(ctx.discard_pending(), 3);
        assert_eq!(ctx.pending(), 0);
        assert_eq!(ctx.discard_pending(), 0);
    }

    #[test]
    #[should_panic(expected = "undeclared port")]
    fn run_ctx_emit_on_undeclared_port_panics() {
        let slot_names: Vec<String> = Vec::new();
        let mut queues: Vec<VecDeque<Envelope>> = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = RunCtx {
            now: Timestamp::EPOCH,
            slot_names: &slot_names,
            queues: &mut queues,
            emitted: &mut emitted,
            n_outputs: 0,
        };
        ctx.emit(PortId(0), 1.0);
    }
}
