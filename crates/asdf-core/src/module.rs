//! The fpt-core plug-in API (§3.2 of the paper).
//!
//! All modules — data-collection and analysis alike — implement the same
//! [`Module`] trait with two entry points:
//!
//! * [`Module::init`] is called once when the instance is created, while the
//!   DAG is being constructed. The module reads its configuration
//!   parameters (a parameter it never reads fails the build), verifies its
//!   wired inputs, declares its outputs, and requests scheduling (periodic
//!   and/or input-triggered).
//! * [`Module::run`] is called by the engine scheduler, with a
//!   [`RunReason`] explaining why: a periodic timer fired, or enough new
//!   input samples arrived. It drains the input queues by iterating
//!   [`RunCtx::inputs`] and emits through [`RunCtx::out`].
//!
//! Output-only modules (data collectors) typically request periodic
//! scheduling; modules with inputs are run automatically whenever a
//! configurable number of their inputs are updated.

use std::cell::RefCell;
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
/// [`Emitter::emit`]. Port ids are only meaningful within the instance that
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
///         ctx.out.emit(self.out.unwrap(), self.n);
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
    /// Modules with inputs drain them by iterating [`RunCtx::inputs`];
    /// modules with outputs emit through [`RunCtx::out`].
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
///
/// Every parameter getter goes through [`InitCtx::param`], which records
/// the keys it is asked for: a configured parameter that `init` never
/// looks up fails the build (a misspelt key would otherwise run at its
/// default).
pub struct InitCtx<'a> {
    cfg: &'a InstanceConfig,
    resolved_inputs: &'a [(String, Vec<Arc<OutputMeta>>)],
    outputs: &'a mut Vec<Arc<OutputMeta>>,
    schedule: &'a mut ScheduleSpec,
    read: RefCell<Vec<&'a str>>,
}

impl<'a> InitCtx<'a> {
    pub(crate) fn new(
        cfg: &'a InstanceConfig,
        resolved_inputs: &'a [(String, Vec<Arc<OutputMeta>>)],
        outputs: &'a mut Vec<Arc<OutputMeta>>,
        schedule: &'a mut ScheduleSpec,
    ) -> Self {
        InitCtx {
            cfg,
            resolved_inputs,
            outputs,
            schedule,
            read: RefCell::new(Vec::new()),
        }
    }

    /// The first configured parameter key, in name order, that no getter
    /// has looked up.
    pub(crate) fn unread_param(&self) -> Option<&'a str> {
        let read = self.read.borrow();
        self.cfg
            .params
            .keys()
            .map(String::as_str)
            .filter(|key| !read.contains(key))
            .min()
    }

    /// The instance id from the configuration.
    pub fn instance_id(&self) -> &str {
        &self.cfg.id
    }

    /// Looks up an optional configuration parameter, recording that the
    /// module reads it.
    pub fn param(&self, key: &str) -> Option<&str> {
        let (key, value) = self.cfg.params.get_key_value(key)?;
        self.read.borrow_mut().push(key);
        Some(value)
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

/// Everything a module may do during [`Module::run`]: drain its input
/// queues through [`RunCtx::inputs`] and emit through [`RunCtx::out`].
///
/// The two fields borrow disjointly, so a module can emit while it drains:
///
/// ```
/// # use asdf_core::module::{PortId, RunCtx};
/// # fn run(ctx: &mut RunCtx<'_>, port: PortId) {
/// for (_slot, env) in &mut ctx.inputs {
///     ctx.out.emit_sample(port, env.sample);
/// }
/// # }
/// ```
pub struct RunCtx<'a> {
    /// The queued input envelopes, drained in slot-then-FIFO order.
    pub inputs: Inputs<'a>,
    /// The output side: the engine clock and the emit calls.
    pub out: Emitter<'a>,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(
        now: Timestamp,
        queues: &'a mut [VecDeque<Envelope>],
        emitted: &'a mut Vec<(PortId, Sample)>,
        n_outputs: usize,
    ) -> Self {
        RunCtx {
            inputs: Inputs { queues, slot: 0 },
            out: Emitter {
                now,
                emitted,
                n_outputs,
            },
        }
    }
}

/// A module's input queues as a draining iterator, yielding
/// `(slot_index, envelope)` in slot-then-FIFO order.
///
/// Envelopes are removed as they are yielded; stopping early leaves the
/// remaining ones queued for the next run. A module that only consumes a
/// clock pulse discards its input with `ctx.inputs.by_ref().for_each(drop)`.
pub struct Inputs<'a> {
    queues: &'a mut [VecDeque<Envelope>],
    slot: usize,
}

impl Iterator for Inputs<'_> {
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

/// The output half of a [`RunCtx`]: the engine clock and the emit calls.
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

    /// Emits a pre-stamped sample on `port` (for modules that re-emit
    /// buffered data with original timestamps, like `ibuffer`).
    ///
    /// # Panics
    ///
    /// Panics if `port` was not declared by this instance during `init()`.
    pub fn emit_sample(&mut self, port: PortId, sample: Sample) {
        assert!(
            port.0 < self.n_outputs,
            "emit on undeclared port {} (instance has {} outputs)",
            port.0,
            self.n_outputs
        );
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
        let ctx = InitCtx::new(&cfg, &resolved, &mut outputs, &mut schedule);
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
        let mut ctx = InitCtx::new(&cfg, &resolved, &mut outputs, &mut schedule);
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
        let mut ctx = InitCtx::new(&cfg, &resolved, &mut outputs, &mut schedule);
        ctx.request_periodic(TickDuration::from_secs(5));
        ctx.set_input_trigger(3);
        assert_eq!(schedule.periodic, Some(TickDuration::from_secs(5)));
        assert_eq!(schedule.input_trigger, 3);
    }

    fn envelope(meta: &Arc<OutputMeta>, secs: u64, v: f64) -> Envelope {
        Envelope {
            source: Arc::clone(meta),
            sample: Sample::new(Timestamp::from_secs(secs), v),
        }
    }

    fn upstream() -> Arc<OutputMeta> {
        Arc::new(OutputMeta {
            instance: "up".into(),
            name: "o".into(),
            origin: "up".into(),
        })
    }

    #[test]
    fn run_ctx_take_and_emit() {
        let meta = upstream();
        let mut queues = vec![VecDeque::from(vec![
            envelope(&meta, 1, 1.0),
            envelope(&meta, 2, 2.0),
        ])];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx::new(Timestamp::from_secs(2), &mut queues, &mut emitted, 1);
        assert_eq!(ctx.inputs.size_hint(), (2, Some(2)));
        let got: Vec<(usize, Envelope)> = ctx.inputs.by_ref().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(ctx.inputs.next(), None);
        ctx.out.emit(PortId(0), 9.0);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].1.timestamp, Timestamp::from_secs(2));
    }

    #[test]
    fn run_ctx_drain_all_matches_take_all_order() {
        let meta = upstream();
        let mut queues = vec![
            VecDeque::from(vec![envelope(&meta, 1, 1.0), envelope(&meta, 2, 2.0)]),
            VecDeque::new(),
            VecDeque::from(vec![envelope(&meta, 1, 3.0)]),
        ];
        let reference: Vec<(usize, Envelope)> = queues
            .iter()
            .enumerate()
            .flat_map(|(slot, q)| q.iter().map(move |env| (slot, env.clone())))
            .collect();
        let mut emitted = Vec::new();
        let mut ctx = RunCtx::new(Timestamp::from_secs(2), &mut queues, &mut emitted, 1);
        // A drain stopped early leaves the rest queued, in order.
        let first = ctx.inputs.next().unwrap();
        let rest: Vec<(usize, Envelope)> = ctx.inputs.by_ref().collect();
        assert_eq!(ctx.inputs.size_hint(), (0, Some(0)));
        let mut drained = vec![first];
        drained.extend(rest);
        assert_eq!(drained, reference);
    }

    #[test]
    fn run_ctx_drain_and_emit_interleaves() {
        let meta = upstream();
        let mut queues = vec![VecDeque::from(vec![
            envelope(&meta, 1, 1.0),
            envelope(&meta, 2, 2.0),
        ])];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx::new(Timestamp::from_secs(5), &mut queues, &mut emitted, 1);
        for (_, env) in &mut ctx.inputs {
            ctx.out
                .emit(PortId(0), env.sample.value.as_float().unwrap() * 10.0);
        }
        assert_eq!(ctx.out.now(), Timestamp::from_secs(5));
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[1].1.value.as_float(), Some(20.0));
        assert_eq!(emitted[1].1.timestamp, Timestamp::from_secs(5));
    }

    #[test]
    fn run_ctx_discard_pending_counts_and_clears() {
        let meta = upstream();
        let env = envelope(&meta, 1, 1.0);
        let mut queues = vec![
            VecDeque::from(vec![env.clone(), env.clone()]),
            VecDeque::from(vec![env]),
        ];
        let mut emitted = Vec::new();
        let mut ctx = RunCtx::new(Timestamp::EPOCH, &mut queues, &mut emitted, 0);
        assert_eq!(ctx.inputs.by_ref().count(), 3);
        assert_eq!(ctx.inputs.by_ref().count(), 0);
        assert!(queues.iter().all(VecDeque::is_empty));
    }

    #[test]
    #[should_panic(expected = "undeclared port")]
    fn run_ctx_emit_on_undeclared_port_panics() {
        let mut queues: Vec<VecDeque<Envelope>> = Vec::new();
        let mut emitted = Vec::new();
        let mut ctx = RunCtx::new(Timestamp::EPOCH, &mut queues, &mut emitted, 0);
        ctx.out.emit(PortId(0), 1.0);
    }
}
