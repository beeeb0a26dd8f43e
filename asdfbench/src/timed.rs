//! The `Timed` module decorator: per-layer busy time measured from outside.
//!
//! A second [`ModuleRegistry`] is built over the real one; each of its
//! factories wraps `inner.create(type)` in a [`Timed`] that forwards every
//! `Module` method and adds the time spent, and one call, to the counters
//! of its module type. The engine cannot tell the difference (the tests
//! compare tap output bitwise), so a traced run executes the same DAG as
//! an untraced one plus two clock reads per module run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;

/// Busy nanoseconds and run calls per module type, plus the time all
/// `init` calls took. Statistics only, so every atomic is `Relaxed`.
#[derive(Debug)]
pub struct LayerStats {
    types: Vec<String>,
    busy_ns: Vec<AtomicU64>,
    calls: Vec<AtomicU64>,
    init_ns: AtomicU64,
}

/// A copy of the counters at one instant; differences of two snapshots
/// give one tick's share.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSnapshot {
    pub busy_ns: Vec<u64>,
    pub calls: Vec<u64>,
}

impl LayerSnapshot {
    /// `self - earlier`, per type.
    pub fn since(&self, earlier: &LayerSnapshot) -> LayerSnapshot {
        let diff = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        LayerSnapshot {
            busy_ns: diff(&self.busy_ns, &earlier.busy_ns),
            calls: diff(&self.calls, &earlier.calls),
        }
    }
}

impl LayerStats {
    /// The module type names, index-aligned with every snapshot.
    pub fn types(&self) -> &[String] {
        &self.types
    }

    pub fn snapshot(&self) -> LayerSnapshot {
        let load = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        LayerSnapshot {
            busy_ns: load(&self.busy_ns),
            calls: load(&self.calls),
        }
    }

    /// Nanoseconds spent in `Module::init`, all instances together.
    pub fn init_ns(&self) -> u64 {
        self.init_ns.load(Ordering::Relaxed)
    }
}

struct Timed {
    inner: Box<dyn Module>,
    stats: Arc<LayerStats>,
    idx: usize,
}

impl Timed {
    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.busy_ns[self.idx].fetch_add(ns, Ordering::Relaxed);
        self.stats.calls[self.idx].fetch_add(1, Ordering::Relaxed);
    }
}

impl Module for Timed {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let start = Instant::now();
        let result = self.inner.init(ctx);
        self.stats
            .init_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
        let start = Instant::now();
        let result = self.inner.run(ctx, reason);
        self.record(start);
        result
    }

    fn run_batch(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
        let start = Instant::now();
        let result = self.inner.run_batch(ctx, reason);
        self.record(start);
        result
    }

    fn accepts_row_blocks(&self) -> bool {
        self.inner.accepts_row_blocks()
    }
}

/// Wraps every type of `inner` behind [`Timed`]; the returned registry
/// builds the same DAGs, and the returned counters fill as they run.
pub fn timed_registry(inner: ModuleRegistry) -> (ModuleRegistry, Arc<LayerStats>) {
    let types: Vec<String> = inner.type_names().into_iter().map(str::to_owned).collect();
    let zeros = || types.iter().map(|_| AtomicU64::new(0)).collect();
    let stats = Arc::new(LayerStats {
        busy_ns: zeros(),
        calls: zeros(),
        init_ns: AtomicU64::new(0),
        types,
    });
    let inner = Arc::new(inner);
    let mut outer = ModuleRegistry::new();
    for (idx, name) in stats.types.iter().enumerate() {
        let (inner, stats, name) = (Arc::clone(&inner), Arc::clone(&stats), name.clone());
        outer.register(name.clone(), move || {
            Box::new(Timed {
                inner: inner.create(&name).expect("type came from this registry"),
                stats: Arc::clone(&stats),
                idx,
            })
        });
    }
    (outer, stats)
}
