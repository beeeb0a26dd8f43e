//! `asdf-core` — the `fpt-core` fingerpointing kernel.
//!
//! This crate reproduces the core of **ASDF** (*An Automated, Online
//! Framework for Diagnosing Performance Problems*, Bare et al.): a
//! multiplexer that wires *data-collection modules* (sources of
//! time-varying samples — OS performance counters, application-log state
//! counts) to *analysis modules* (moving averages, nearest-neighbor
//! classifiers, peer-comparison fingerpointers) through a configuration-
//! defined directed acyclic graph.
//!
//! The crate is deliberately application-agnostic: everything
//! Hadoop-specific lives in companion crates (`asdf-modules`, `hadoop-sim`,
//! `hadoop-logs`). What lives here:
//!
//! * [`module`] — the plug-in API every module implements ([`module::Module`]
//!   with `init()`/`run()`, periodic and input-triggered scheduling):
//!   `init()` reads its parameters through [`module::InitCtx`] (a parameter
//!   it never reads fails the build) and declares its outputs; `run()`
//!   drains one input iterator, `ctx.inputs`, and emits through one
//!   [`module::Emitter`], `ctx.out`;
//! * [`config`] — the paper's INI-style configuration dialect
//!   (`[type]` sections, `input[slot] = instance.output` / `@instance`);
//! * [`registry`] — module-type factories, the pluggability mechanism;
//! * [`dag`] — worklist DAG construction (§3.3 of the paper), resolving
//!   each connection once into the route tables;
//! * [`engine`] — a deterministic simulated-time executor
//!   ([`engine::TickEngine`]) used by the reproduction's experiments;
//! * [`online`] — the same engine paced against a wall clock
//!   ([`online::OnlineEngine`]: one pacer thread calling `tick()` at
//!   absolute deadlines) for genuinely online deployments;
//! * [`value`] / [`time`] — samples, values, and second-resolution time.
//!
//! # Quick start
//!
//! ```
//! use asdf_core::prelude::*;
//!
//! // A source that emits an increasing counter once per second.
//! struct Counter { port: Option<PortId>, n: i64 }
//! impl Module for Counter {
//!     fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
//!         self.port = Some(ctx.declare_output("count"));
//!         ctx.request_periodic(TickDuration::SECOND);
//!         Ok(())
//!     }
//!     fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
//!         self.n += 1;
//!         ctx.out.emit(self.port.unwrap(), self.n);
//!         Ok(())
//!     }
//! }
//!
//! let mut registry = ModuleRegistry::new();
//! registry.register("counter", || Box::new(Counter { port: None, n: 0 }));
//!
//! let config: Config = "[counter]\nid = c\n".parse()?;
//! let dag = Dag::build(&registry, &config)?;
//! let mut engine = TickEngine::new(dag);
//! let tap = engine.tap("c").unwrap();
//! engine.run_for(TickDuration::from_secs(5))?;
//! assert_eq!(tap.drain().len(), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod dag;
pub mod engine;
pub mod error;
pub mod module;
pub mod online;
pub mod registry;
pub mod time;
pub mod value;

/// Convenient glob-import of the types needed to define and run modules.
pub mod prelude {
    pub use crate::config::{Config, Connection, InstanceConfig};
    pub use crate::dag::Dag;
    pub use crate::engine::{TapHandle, TickEngine};
    pub use crate::error::{
        BuildDagError, ModuleError, OnlineStartError, ParseConfigError, RunEngineError,
    };
    pub use crate::module::{
        Emitter, Envelope, InitCtx, Inputs, Module, OutputMeta, PortId, RunCtx, RunReason,
        ScheduleSpec,
    };
    pub use crate::online::OnlineEngine;
    pub use crate::registry::ModuleRegistry;
    pub use crate::time::{TickDuration, Timestamp};
    pub use crate::value::{Sample, Value};
}
