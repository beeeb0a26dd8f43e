//! Shared test fixtures for module unit tests.

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{Envelope, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;

/// A periodic source emitting the vector `[t+1, 2(t+1)]` each second, with
/// origin `test-node`.
pub struct VectorSource {
    port: Option<PortId>,
    n: i64,
}

impl Module for VectorSource {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output_with_origin("out", "test-node"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        self.n += 1;
        let x = self.n as f64;
        ctx.emit(self.port.unwrap(), vec![x, 2.0 * x]);
        Ok(())
    }
}

/// A periodic source emitting the scalar `t+1` each second.
pub struct ScalarSource {
    port: Option<PortId>,
    n: i64,
}

impl Module for ScalarSource {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output_with_origin("out", "test-node"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        self.n += 1;
        ctx.emit(self.port.unwrap(), self.n as f64);
        Ok(())
    }
}

/// A periodic source emitting `burst` two-component rows per second
/// through `emit_row` — the columnar entry point — so batched engines
/// deliver multi-row [`asdf_core::module::RowBlock`]s downstream.
pub struct BurstRowSource {
    port: Option<PortId>,
    burst: usize,
    n: i64,
}

impl Module for BurstRowSource {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output_with_origin("out", "test-node"));
        self.burst = ctx.parse_param_or("burst", 4)?;
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for _ in 0..self.burst {
            self.n += 1;
            let x = self.n as f64;
            ctx.emit_row(self.port.unwrap(), &[x, 2.0 * x]);
        }
        Ok(())
    }
}

/// A periodic source replaying its `rows` parameter — rows separated by
/// `|`, components by `,`, anything `f64` parses (`nan`, `inf`) — one row
/// a second on `out`, origin `test-rack`, then silent. What a rack
/// collector's `frame` port, or a `knn` / `mavgvec` over one, hands on.
pub struct RowReplay {
    port: Option<PortId>,
    rows: std::vec::IntoIter<Vec<f64>>,
}

impl Module for RowReplay {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let rows: Vec<Vec<f64>> = ctx
            .require_param("rows")?
            .split('|')
            .map(|row| {
                let components = row.split(',').map(str::trim).filter(|c| !c.is_empty());
                components.map(|c| c.parse().expect("a number")).collect()
            })
            .collect();
        self.rows = rows.into_iter();
        self.port = Some(ctx.declare_output_with_origin("out", "test-rack"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        if let Some(row) = self.rows.next() {
            ctx.emit(self.port.unwrap(), row);
        }
        Ok(())
    }
}

/// Registers `rowreplay` ([`RowReplay`]) on `reg`.
pub fn register_row_replay(reg: &mut ModuleRegistry) {
    reg.register("rowreplay", || {
        Box::new(RowReplay {
            port: None,
            rows: Vec::new().into_iter(),
        })
    });
}

/// Registry with every standard module plus `vecsource`.
pub fn vector_source_registry() -> ModuleRegistry {
    let mut reg = base_registry();
    reg.register("vecsource", || Box::new(VectorSource { port: None, n: 0 }));
    register_row_replay(&mut reg);
    reg
}

/// Registry with every standard module plus `burstrows`.
pub fn burst_source_registry() -> ModuleRegistry {
    let mut reg = base_registry();
    reg.register("burstrows", || {
        Box::new(BurstRowSource {
            port: None,
            burst: 4,
            n: 0,
        })
    });
    reg
}

/// Registry with every standard module plus `scalarsource`.
pub fn scalar_source_registry() -> ModuleRegistry {
    let mut reg = base_registry();
    reg.register("scalarsource", || {
        Box::new(ScalarSource { port: None, n: 0 })
    });
    reg
}

fn base_registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    crate::register_analysis_modules(&mut reg);
    reg
}

/// Builds the DAG from `cfg`, taps `tap_id`, runs `ticks` seconds, and
/// returns everything the tapped instance emitted.
pub fn run_source_pipeline(
    registry: &ModuleRegistry,
    cfg: &str,
    tap_id: &str,
    ticks: u64,
) -> Vec<Envelope> {
    run_source_pipeline_batched(registry, cfg, tap_id, ticks, 1)
}

/// [`run_source_pipeline`] with an explicit engine batch size, for
/// comparing a module's batched (row-block) path against the per-sample
/// reference.
pub fn run_source_pipeline_batched(
    registry: &ModuleRegistry,
    cfg: &str,
    tap_id: &str,
    ticks: u64,
    batch: usize,
) -> Vec<Envelope> {
    let parsed: Config = cfg.parse().expect("test config parses");
    let dag = Dag::build(registry, &parsed).expect("test config builds");
    let mut engine = TickEngine::new(dag);
    engine.set_batch_size(batch);
    let tap = engine.tap(tap_id).expect("tap target exists");
    engine
        .run_for(TickDuration::from_secs(ticks))
        .expect("test pipeline runs");
    tap.drain()
}
