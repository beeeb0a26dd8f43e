//! Behavioural tests of the online engine's lifecycle semantics.

use std::time::Duration;

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::online::OnlineEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;

struct Pulse {
    port: Option<PortId>,
    n: i64,
}
impl Module for Pulse {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output("out"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        self.n += 1;
        ctx.out.emit(self.port.unwrap(), self.n);
        Ok(())
    }
}

struct Relay {
    port: Option<PortId>,
}
impl Module for Relay {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output("out"));
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for (_, env) in &mut ctx.inputs {
            ctx.out.emit_sample(self.port.unwrap(), env.sample);
        }
        Ok(())
    }
}

fn registry() -> ModuleRegistry {
    let mut reg = ModuleRegistry::new();
    reg.register("pulse", || Box::new(Pulse { port: None, n: 0 }));
    reg.register("relay", || Box::new(Relay { port: None }));
    reg
}

fn chain_dag(depth: usize) -> Dag {
    let mut text = String::from("[pulse]\nid = p\n");
    let mut prev = "p".to_owned();
    for i in 0..depth {
        text.push_str(&format!("\n[relay]\nid = r{i}\ninput[x] = {prev}.out\n"));
        prev = format!("r{i}");
    }
    let cfg: Config = text.parse().unwrap();
    Dag::build(&registry(), &cfg).unwrap()
}

#[test]
fn immediate_stop_is_clean() {
    let engine = OnlineEngine::builder(chain_dag(3))
        .wall_per_tick(Duration::from_millis(5))
        .start()
        .unwrap();
    engine.stop().expect("no failure on immediate stop");
}

#[test]
fn drop_without_stop_shuts_down() {
    let engine = OnlineEngine::builder(chain_dag(2))
        .wall_per_tick(Duration::from_millis(5))
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    drop(engine); // must not hang or panic
}

#[test]
fn samples_traverse_a_deep_relay_chain_in_order() {
    let depth = 8;
    let engine = OnlineEngine::builder(chain_dag(depth))
        .wall_per_tick(Duration::from_millis(4))
        .tap(format!("r{}", depth - 1))
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(160));
    let tap = engine
        .tap_handle(&format!("r{}", depth - 1))
        .unwrap()
        .clone();
    engine.stop().unwrap();
    let values: Vec<i64> = tap
        .drain()
        .iter()
        .map(|e| e.sample.value.as_int().unwrap())
        .collect();
    assert!(values.len() >= 10, "expected many samples: {values:?}");
    for (i, v) in values.iter().enumerate() {
        assert_eq!(*v, i as i64 + 1, "order must be preserved: {values:?}");
    }
}

#[test]
fn multiple_taps_on_one_instance_each_get_everything() {
    let engine = OnlineEngine::builder(chain_dag(1))
        .wall_per_tick(Duration::from_millis(5))
        .tap("r0")
        .tap("r0")
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));
    // Duplicate tap ids coalesce onto one handle — and one delivery each:
    // relayed values must appear exactly once, in order.
    let tap = engine.tap_handle("r0").unwrap().clone();
    engine.stop().unwrap();
    let values: Vec<i64> = tap
        .drain()
        .iter()
        .map(|e| e.sample.value.as_int().unwrap())
        .collect();
    assert!(!values.is_empty());
    for (i, v) in values.iter().enumerate() {
        assert_eq!(*v, i as i64 + 1, "no duplicate deliveries: {values:?}");
    }
}

/// Starts a real-time (1 s per tick) engine and waits out its first tick,
/// which is due at once; the pacer then sleeps towards the second.
fn real_time_engine_after_its_first_tick() -> OnlineEngine {
    let engine = OnlineEngine::builder(chain_dag(2))
        .tap("r1")
        .start()
        .unwrap();
    while engine.now().as_secs() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    engine
}

#[test]
fn stopping_a_real_time_engine_does_not_wait_for_the_next_tick() {
    // A stop request must wake the sleeping pacer, not wait to be noticed
    // when it next wakes by itself.
    let well_under_a_tick = Duration::from_millis(150);

    let engine = real_time_engine_after_its_first_tick();
    let stopping = std::time::Instant::now();
    engine.stop().unwrap();
    let took = stopping.elapsed();
    assert!(took < well_under_a_tick, "stop took {took:?} of a 1 s tick");

    let engine = real_time_engine_after_its_first_tick();
    let tap = engine.tap_handle("r1").unwrap().clone();
    let stopping = std::time::Instant::now();
    engine.flush_and_stop().unwrap();
    let took = stopping.elapsed();
    assert!(
        took < well_under_a_tick,
        "flush took {took:?} of a 1 s tick"
    );
    // The tick at start plus the flush's final one; `stop` runs none.
    assert_eq!(tap.len(), 2);
}
