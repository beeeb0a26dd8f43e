//! Shared test fixtures for module unit tests.

use std::sync::{Arc, Mutex, Weak};

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{Envelope, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_core::value::Value;

/// A periodic source emitting the one-node frame `[1, 2, t+1, 2(t+1)]`
/// each second, with origin `test-node`.
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
        ctx.out.emit(self.port.unwrap(), vec![1.0, 2.0, x, 2.0 * x]);
        Ok(())
    }
}

/// A periodic source emitting `burst` one-node frames of two components
/// per second — the `n`-th ever `[1, 2, n, 2n]` — so one run of its
/// consumer can be handed several rows.
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
            ctx.out.emit(self.port.unwrap(), vec![1.0, 2.0, x, 2.0 * x]);
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
            ctx.out.emit(self.port.unwrap(), row);
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

/// Every payload a `framenode` has emitted, by weak reference.
pub type Emitted = Arc<Mutex<Vec<Weak<[f64]>>>>;

/// A rack collector's `frame` port over `k` nodes, one per entry of its
/// `base` parameter (a comma list; `ramp`, the same length, defaults to
/// zeros): every second `[k, dim, x₀, 2·x₀, …, dim·x₀, x₁, …]` (`dim`
/// defaults to 2), `xᵢ = baseᵢ + rampᵢ·(seconds so far)`, origin `n0`.
/// From second `bad_at` on (when set) the frame is broken as `bad` names,
/// one of [`frame_breakages`].
pub struct FrameNode {
    port: Option<PortId>,
    base: Vec<f64>,
    ramp: Vec<f64>,
    dim: usize,
    bad: String,
    bad_at: u64,
    emitted: Emitted,
}

impl Module for FrameNode {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let list = |key: &str| -> Vec<f64> {
            let values = ctx.param(key).unwrap_or("").split(',').map(str::trim);
            values
                .filter(|v| !v.is_empty())
                .map(|v| v.parse().expect("a number"))
                .collect()
        };
        self.base = list("base");
        self.ramp = list("ramp");
        self.ramp.resize(self.base.len(), 0.0);
        self.dim = ctx.parse_param_or("dim", 2)?;
        self.bad = ctx.param("bad").unwrap_or("").to_owned();
        self.bad_at = ctx.parse_param_or("bad_at", u64::MAX)?;
        self.port = Some(ctx.declare_output_with_origin("frame", "n0"));
        // Silent; there so that `@rack` names two ports.
        ctx.declare_output("output0");
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        let (k, dim) = (self.base.len() as f64, self.dim);
        let mut frame = vec![k, dim as f64];
        let row = |x: f64| (1..=dim).map(move |j| j as f64 * x);
        frame.extend(self.base.iter().flat_map(|&x| row(x)));
        if ctx.out.now().as_secs() >= self.bad_at {
            match self.bad.as_str() {
                "empty" => frame.clear(),
                "header" => frame[0] = k + 0.5,
                "nan" => frame[1] = f64::NAN,
                "huge" => frame[0] = 1e300,
                "short" => {
                    frame.pop();
                }
                "long" => frame.push(0.0),
                "extra_node" => {
                    frame[0] = k + 1.0;
                    frame.extend(row(9.0));
                }
                "wider" => {
                    frame = vec![k, dim as f64 + 1.0];
                    let row = |x: f64| std::iter::repeat_n(x, dim + 1);
                    frame.extend(self.base.iter().flat_map(|&x| row(x)));
                }
                "swapped" => frame.swap(0, 1),
                "scalar" => {
                    ctx.out.emit(self.port.unwrap(), 1.0);
                    return Ok(());
                }
                other => panic!("unknown breakage `{other}`"),
            }
        }
        for (x, ramp) in self.base.iter_mut().zip(&self.ramp) {
            *x += ramp;
        }
        let payload: Arc<[f64]> = Arc::from(frame);
        self.emitted.lock().unwrap().push(Arc::downgrade(&payload));
        ctx.out.emit(self.port.unwrap(), Value::Vector(payload));
        Ok(())
    }
}

/// Registry with every standard module plus `framenode` ([`FrameNode`]),
/// whose payloads are recorded in `emitted`.
pub fn frame_node_registry(emitted: &Emitted) -> ModuleRegistry {
    let mut reg = base_registry();
    let emitted = Arc::clone(emitted);
    reg.register("framenode", move || {
        Box::new(FrameNode {
            port: None,
            base: Vec::new(),
            ramp: Vec::new(),
            dim: 2,
            bad: String::new(),
            bad_at: u64::MAX,
            emitted: Arc::clone(&emitted),
        })
    });
    reg
}

/// Every way a [`FrameNode`] of `k` nodes of `dim` values breaks its frame
/// (its `bad` parameter), each with a phrase of the error a frame consumer
/// must answer it with. `swapped` keeps the frame's length, so it breaks
/// it only while `k ≠ dim`.
pub fn frame_breakages(k: usize, dim: usize) -> [(&'static str, String); 10] {
    let (short, long) = (k * dim - 1, k * dim + 1);
    let changed = |to: (usize, usize)| format!("changed shape: {k}x{dim} then {}x{}", to.0, to.1);
    [
        ("empty", "needs [k, dim".to_owned()),
        ("header", "bad rack row header".to_owned()),
        ("nan", "bad rack row header".to_owned()),
        ("huge", "header says".to_owned()),
        (
            "short",
            format!("payload is {short} values, header says {k}x{dim}"),
        ),
        (
            "long",
            format!("payload is {long} values, header says {k}x{dim}"),
        ),
        ("extra_node", changed((k + 1, dim))),
        ("wider", changed((k, dim + 1))),
        ("swapped", changed((dim, k))),
        ("scalar", "expects rack frames, got float".to_owned()),
    ]
}

/// Runs `consumer`, the configuration of an instance `id` reading
/// `rack.frame`, behind a [`FrameNode`] of `k` nodes of `dim` values
/// broken from second 5 on in each of the [`frame_breakages`] ways (after
/// two windows' worth of good frames, so a shape change lands on open
/// accumulators). Each run must end in a [`ModuleError::Other`] of `id` at
/// second 5 that names the problem, with the `before` envelopes `id`
/// emitted on the good frames still in its tap.
pub fn assert_bad_frames_are_module_errors(
    k: usize,
    dim: usize,
    consumer: &str,
    id: &str,
    before: usize,
) {
    assert_ne!(k, dim, "a swapped header would be no breakage");
    let base: Vec<String> = (0..k).map(|i| (1 + 2 * i).to_string()).collect();
    for (bad, says) in frame_breakages(k, dim) {
        let cfg: Config = format!(
            "[framenode]\nid = rack\nbase = {}\ndim = {dim}\nbad = {bad}\nbad_at = 5\n\n{consumer}",
            base.join(",")
        )
        .parse()
        .unwrap();
        let dag = Dag::build(&frame_node_registry(&Emitted::default()), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap(id).unwrap();
        let Err(err) = eng.run_for(TickDuration::from_secs(9)) else {
            panic!("{bad}: {id} took the frame");
        };
        assert_eq!((err.instance.as_str(), err.at_secs), (id, 5), "{bad}");
        let ModuleError::Other(msg) = &err.source else {
            panic!("{bad}: {:?}", err.source);
        };
        assert!(msg.contains(&says), "{bad}: {msg}");
        assert_eq!(
            tap.len(),
            before,
            "{bad}: what the good frames closed stands"
        );
    }
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
    let parsed: Config = cfg.parse().expect("test config parses");
    let dag = Dag::build(registry, &parsed).expect("test config builds");
    let mut engine = TickEngine::new(dag);
    let tap = engine.tap(tap_id).expect("tap target exists");
    engine
        .run_for(TickDuration::from_secs(ticks))
        .expect("test pipeline runs");
    tap.drain()
}

/// Feeds `rows` rows of a `burstrows` source to the module under test —
/// `cfg(burst)` is the config with the source emitting `burst` rows a
/// second — and asserts that the values `tap_id` emits do not depend on how
/// many rows one run is handed: at bursts {2, 7, 9} they are those of one
/// row a second. Returns the one-row-a-second values.
pub fn assert_burst_invariant(
    cfg: impl Fn(usize) -> String,
    tap_id: &str,
    rows: usize,
) -> Vec<Value> {
    let registry = burst_source_registry();
    let values = |burst: usize| -> Vec<Value> {
        let ticks = rows.div_ceil(burst) as u64;
        let out = run_source_pipeline(&registry, &cfg(burst), tap_id, ticks);
        out.into_iter().map(|e| e.sample.value).collect()
    };
    let reference = values(1);
    for burst in [2, 7, 9] {
        let got = values(burst);
        assert!(got.len() >= reference.len(), "burst {burst}");
        assert_eq!(got[..reference.len()], reference[..], "burst {burst}");
    }
    reference
}

#[cfg(test)]
mod tests {
    use super::assert_bad_frames_are_module_errors;

    /// Every module that reads rack frames off an analysis edge, behind
    /// three nodes' frames, answers each breakage at the bad second with a
    /// described `ModuleError` and keeps what the good frames closed
    /// (`rack_agg` and `metric_rank` are held to the same in their own
    /// tests).
    #[test]
    fn every_frame_consumer_answers_a_bad_frame_with_a_module_error() {
        for (dim, consumer, id, before) in [
            // Five frames, five answers.
            (
                2,
                "[knn]\nid = nn\ncentroids = 0,0|3,3|9,9\nstddev = 1,1\ninput[input] = rack.frame\n",
                "nn",
                5,
            ),
            // Window 2, slide 1: four windows.
            (
                2,
                "[mavgvec]\nid = avg\nwindow = 2\nslide = 1\ninput[input] = rack.frame\n",
                "avg",
                4,
            ),
            // Six values a frame, batches of three: ten batches.
            (
                2,
                "[ibuffer]\nid = buf\nsize = 3\ninput[input] = rack.frame\n",
                "buf",
                10,
            ),
            // States 1, 3 and 5, window 2, slide 1: four evaluations of an
            // alarm and a distance per node.
            (
                1,
                "[analysis_bb]\nid = bb\nn_states = 6\nwindow = 2\nslide = 1\n\
                 nodes = n0,n1,n2\ninput[l0] = rack.frame\n",
                "bb",
                24,
            ),
            // One mean and one stddev a node: five evaluations of an alarm
            // and a k_crit per node.
            (
                2,
                "[analysis_wb]\nid = wb\nnodes = n0,n1,n2\ninput[r0] = rack.frame\n",
                "wb",
                30,
            ),
        ] {
            assert_bad_frames_are_module_errors(3, dim, consumer, id, before);
        }
    }
}
