//! The `metric_rank` Orion+-style metric ranker.
//!
//! Node fingerpointing (the `analysis_bb`/`analysis_wb` modules) answers
//! *which node* misbehaves; the operator's next question is *which metric*
//! on that node deviates. Following Orion's approach of ranking metrics by
//! how far they depart from baseline, this module compares every node's
//! windowed per-metric mean against the **peer baseline** — the
//! component-wise median across nodes — and ranks metrics by a robust
//! deviation score:
//!
//! ```text
//! dev(node, metric) = |mean(node, metric) − median_over_nodes(metric)|
//!                     ─────────────────────────────────────────────────
//!                     MAD_over_nodes(metric) + 0.01·(1 + |median|)
//! ```
//!
//! The median-absolute-deviation denominator normalizes metrics of wildly
//! different scales (KB/s counters vs. percentages) without trusting any
//! single node's variance. The floor added to the MAD is *relative to the
//! baseline's own magnitude*: it keeps quiescent metrics (MAD ≈ 0) from
//! amplifying rounding noise into top ranks, while still letting a metric
//! whose peers sit near zero (drop counters, error rates) outrank a large
//! KB/s counter whose absolute deviation is bigger but relatively mild —
//! a genuinely deviant near-zero metric is exactly what a flaky NIC
//! looks like.
//!
//! Configuration parameters:
//!
//! * `nodes` — every ranked node's hostname, in node order (required): it
//!   names the `rank<i>` ports;
//! * `window` — samples per window (default 60);
//! * `slide` — samples between evaluations (default = `window`);
//! * `top` — how many metrics to report per node (default 5).
//!
//! Inputs are rack rows ([`crate::rack`]), in one of two shapes:
//!
//! * **with `window` or `slide`**, one slot: a rack collector's `frame`
//!   port, every node's second as one `[k, dim, …]` row (`k` = the number
//!   of `nodes`). The frames are windowed by the code `rack_agg` runs,
//!   [`crate::rack::FrameWindows`]: a frame's node rows are added to every
//!   open window's running sums and the frame is dropped, so the module
//!   holds `ceil(window / slide)` frames of sums, never a window of
//!   samples, and ranks the rows of the frame a window closes as;
//! * **without**, one slot per rack: `rack_agg` summaries, windowed
//!   already, lined up by second ([`crate::rack::PeerFrames`]) and ranked
//!   in place, node rows in node order, then released: no fleet matrix.
//!
//! Output per node:
//! `rank<i>`, a vector of `2·top` values `[idx0, score0, idx1, score1, …]`
//! — metric indices into the collector's flattened frame, most deviant
//! first, ties broken toward the lower index so results are deterministic.

use asdf_core::error::ModuleError;
use asdf_core::module::{Emitter, InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_core::value::Sample;

use crate::rack::{self, ColumnMedians, FrameWindows, PeerFrames};

/// Where the windowed means come from.
#[derive(Debug)]
enum Input {
    /// A rack frame a second, windowed here.
    Frames(FrameWindows),
    /// `rack_agg` summaries, one slot per rack, aligned by second.
    Summaries(PeerFrames),
}

/// The ranking over node rows of means, whichever [`Input`] holds them.
#[derive(Debug, Default)]
struct Ranker {
    top: usize,
    /// Peer baseline (component-wise median across nodes).
    baseline: Vec<f64>,
    /// Per-metric MAD across nodes.
    mad: Vec<f64>,
    /// Column scratch for the medians.
    medians: ColumnMedians,
    /// Ranking scratch: (metric index, deviation score).
    ranked: Vec<(usize, f64)>,
    /// Emission scratch: `[idx, score, ...]` pairs.
    out_row: Vec<f64>,
    rank_ports: Vec<PortId>,
}

/// Peer-baseline metric deviation ranker.
#[derive(Debug, Default)]
pub struct MetricRank {
    input: Option<Input>,
    ranker: Ranker,
}

impl MetricRank {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        MetricRank::default()
    }
}

impl Ranker {
    /// Peer baseline + MAD + deviation ranking over `means`, one row of
    /// `dim` metrics per node, emitting one `rank<i>` row per node stamped
    /// `t`.
    fn rank_and_emit<'a>(
        &mut self,
        t: u64,
        dim: usize,
        means: impl Iterator<Item = &'a [f64]> + Clone,
        emit: &mut Emitter<'_>,
    ) {
        self.baseline.resize(dim, 0.0);
        self.mad.resize(dim, 0.0);
        let (baseline, mad) = (&mut self.baseline, &mut self.mad);
        rack::peer_baseline_into(means.clone(), baseline, mad, &mut self.medians);
        let ts = Timestamp::from_secs(t);
        for (port, mean) in self.rank_ports.iter().zip(means) {
            self.ranked.clear();
            for (d, m) in mean.iter().enumerate() {
                let dev = rack::deviation(*m, self.baseline[d], self.mad[d]);
                self.ranked.push((d, dev));
            }
            // Only `top` pairs leave, so select them and sort just those.
            // The order is strict and total (no two pairs share an index),
            // hence the selected prefix is the one a full sort would give.
            let by_score_then_index = |a: &(usize, f64), b: &(usize, f64)| {
                b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
            };
            let top = self.top.min(self.ranked.len());
            if top < self.ranked.len() {
                self.ranked.select_nth_unstable_by(top, by_score_then_index);
            }
            self.ranked[..top].sort_unstable_by(by_score_then_index);
            self.out_row.clear();
            for &(d, dev) in &self.ranked[..top] {
                self.out_row.push(d as f64);
                self.out_row.push(dev);
            }
            emit.emit_sample(*port, Sample::new(ts, &self.out_row[..]));
        }
    }
}

impl Module for MetricRank {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let ranker = &mut self.ranker;
        ranker.top = ctx.parse_param_or("top", 5usize)?;
        if ranker.top == 0 {
            return Err(ModuleError::invalid_parameter("top", "must be positive"));
        }
        let (input, origins) = if ctx.param("window").is_some() || ctx.param("slide").is_some() {
            let origins = rack::peer_origins(ctx, ctx.input_slots().len())?;
            let (frames, _) = FrameWindows::init(ctx, "metric_rank", Some(origins.len()))?;
            (Input::Frames(frames), origins)
        } else {
            let (frames, origins) = PeerFrames::init(ctx, "metric_rank")?;
            (Input::Summaries(frames), origins)
        };
        self.input = Some(input);
        for (i, origin) in origins.into_iter().enumerate() {
            let port = ctx.declare_output_with_origin(format!("rank{i}"), origin);
            ranker.rank_ports.push(port);
        }
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let ranker = &mut self.ranker;
        let input = self.input.as_mut().expect("initialized");
        for (slot, env) in &mut ctx.inputs {
            match input {
                Input::Frames(frames) => {
                    // `push` held the frame to `k` = nodes.
                    if let Some(means) = frames.push(&env.sample.value)? {
                        let (t, dim) = (env.sample.timestamp.as_secs(), means[1] as usize);
                        ranker.rank_and_emit(t, dim, means[2..].chunks_exact(dim), &mut ctx.out);
                    }
                }
                Input::Summaries(frames) => frames.push(slot, &env.sample)?,
            }
        }
        // Every aligned set of rack summaries is one evaluation.
        if let Input::Summaries(frames) = input {
            while let Some((t, dim, means)) = frames.pop()? {
                ranker.rank_and_emit(t, dim, means.iter(), &mut ctx.out);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_core::config::Config;
    use asdf_core::dag::Dag;
    use asdf_core::engine::TickEngine;
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;

    use crate::testutil::{assert_bad_frames_are_module_errors, frame_node_registry, Emitted};

    /// Per-node vector source: every node emits [1, 2, 3, 4]; the culprit
    /// adds `bump` to metric 2 after `after` seconds.
    struct VecNode {
        port: Option<PortId>,
        t: u64,
    }
    impl Module for VecNode {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            let origin: String = ctx.require_param("origin")?.to_owned();
            self.port = Some(ctx.declare_output_with_origin("out", origin));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            ctx.out.emit(self.port.unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
            Ok(())
        }
    }

    struct DeviantVecNode {
        port: Option<PortId>,
        t: u64,
        after: u64,
        bump: f64,
    }
    impl Module for DeviantVecNode {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.after = ctx.parse_param("after")?;
            self.bump = ctx.parse_param_or("bump", 50.0)?;
            self.port = Some(ctx.declare_output_with_origin("out", "culprit"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            let mut v = vec![1.0, 2.0, 3.0, 4.0];
            if self.t > self.after {
                v[2] += self.bump;
            }
            ctx.out.emit(self.port.unwrap(), v);
            Ok(())
        }
    }

    /// Stands in for a rack collector's `frame` port: packs the second's
    /// vector of every input, in slot order, into `[k, dim, vectors…]`.
    struct Framer {
        port: Option<PortId>,
    }
    impl Module for Framer {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            let origin = ctx.input_slots()[0].1[0].origin.clone();
            self.port = Some(ctx.declare_output_with_origin("frame", origin));
            ctx.set_input_trigger(ctx.input_slots().len());
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            let vectors: Vec<_> = ctx.inputs.by_ref().collect();
            let dim = vectors[0].1.sample.value.as_vector().unwrap().len();
            let mut frame = vec![vectors.len() as f64, dim as f64];
            for (_, env) in &vectors {
                frame.extend_from_slice(env.sample.value.as_vector().unwrap());
            }
            ctx.out.emit(self.port.unwrap(), frame);
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        reg.register("framer", || Box::new(Framer { port: None }));
        reg.register("vecnode", || Box::new(VecNode { port: None, t: 0 }));
        reg.register("deviantvec", || {
            Box::new(DeviantVecNode {
                port: None,
                t: 0,
                after: 0,
                bump: 0.0,
            })
        });
        reg
    }

    fn three_node_config(after: u64, top: usize) -> String {
        format!(
            "\
[vecnode]
id = n0
origin = peer0

[vecnode]
id = n1
origin = peer1

[deviantvec]
id = n2
after = {after}

[framer]
id = f
input[m0] = n0.out
input[m1] = n1.out
input[m2] = n2.out

[metric_rank]
id = mr
window = 10
top = {top}
nodes = peer0,peer1,culprit
input[frame] = f.frame
"
        )
    }

    fn run(cfg: &str, secs: u64) -> Vec<asdf_core::module::Envelope> {
        let parsed: Config = cfg.parse().unwrap();
        let dag = Dag::build(&registry(), &parsed).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("mr").unwrap();
        eng.run_for(TickDuration::from_secs(secs)).unwrap();
        tap.drain()
    }

    fn ranks_of(out: &[asdf_core::module::Envelope], port: &str) -> Vec<Vec<f64>> {
        out.iter()
            .filter(|e| e.source.name == port)
            .map(|e| e.sample.value.as_vector().unwrap().to_vec())
            .collect()
    }

    #[test]
    fn deviant_metric_tops_the_culprit_ranking() {
        let out = run(&three_node_config(5, 2), 40);
        let culprit = ranks_of(&out, "rank2");
        assert!(!culprit.is_empty());
        let last = culprit.last().unwrap();
        assert_eq!(last.len(), 4, "top=2 emits [idx, score] * 2: {last:?}");
        assert_eq!(last[0], 2.0, "metric 2 must rank first: {last:?}");
        assert!(last[1] > 10.0, "deviation score should be large: {last:?}");
        // Healthy peers see near-zero deviations everywhere.
        for port in ["rank0", "rank1"] {
            let last = ranks_of(&out, port).last().unwrap().clone();
            assert!(last[1] < 1.0, "{port} should be quiet: {last:?}");
        }
    }

    #[test]
    fn healthy_cluster_ranks_deterministically_by_index() {
        // All nodes identical: every deviation is 0, so ties resolve to
        // metric indices in ascending order.
        let out = run(&three_node_config(100_000, 3), 20);
        for port in ["rank0", "rank1", "rank2"] {
            for row in ranks_of(&out, port) {
                assert_eq!(row, vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0], "{port}");
            }
        }
    }

    #[test]
    fn top_beyond_the_metric_count_ranks_every_metric() {
        // top = 9 of 4 metrics: all four, the deviant one first, the tied
        // rest by ascending index.
        let out = run(&three_node_config(5, 9), 40);
        let last = ranks_of(&out, "rank2").last().unwrap().clone();
        let indices: Vec<f64> = last.iter().step_by(2).copied().collect();
        assert_eq!(indices, vec![2.0, 0.0, 1.0, 3.0], "{last:?}");
    }

    #[test]
    fn origin_follows_the_input_node() {
        let out = run(&three_node_config(5, 1), 20);
        let origins: std::collections::HashSet<&str> =
            out.iter().map(|e| e.source.origin.as_str()).collect();
        assert!(origins.contains("peer0"));
        assert!(origins.contains("culprit"));
    }

    #[test]
    fn rack_mode_is_bitwise_equal_to_flat() {
        // Four nodes (one deviant), one frame of all four windowed by
        // `metric_rank` itself vs two racks, each framed as its collector
        // would and tree-reduced through rack_agg: the rank streams must
        // match bitwise.
        let nodes = "\
[vecnode]
id = n0
origin = peer0

[vecnode]
id = n1
origin = peer1

[vecnode]
id = n2
origin = peer2

[deviantvec]
id = n3
after = 5
";
        let flat = format!(
            "{nodes}
[framer]
id = f
input[m0] = n0.out
input[m1] = n1.out
input[m2] = n2.out
input[m3] = n3.out

[metric_rank]
id = mr
window = 10
top = 3
nodes = peer0,peer1,peer2,culprit
input[frame] = f.frame
"
        );
        let rack = format!(
            "{nodes}
[framer]
id = f0
input[m0] = n0.out
input[m1] = n1.out

[rack_agg]
id = ra0
window = 10
input[frame] = f0.frame

[framer]
id = f1
input[m0] = n2.out
input[m1] = n3.out

[rack_agg]
id = ra1
window = 10
input[frame] = f1.frame

[metric_rank]
id = mr
top = 3
nodes = peer0,peer1,peer2,culprit
input[r0] = ra0.sum
input[r1] = ra1.sum
"
        );
        let project =
            |out: &[asdf_core::module::Envelope]| -> Vec<(String, String, u64, Vec<f64>)> {
                out.iter()
                    .map(|e| {
                        (
                            e.source.name.clone(),
                            e.source.origin.clone(),
                            e.sample.timestamp.as_secs(),
                            e.sample.value.as_vector().unwrap().to_vec(),
                        )
                    })
                    .collect()
            };
        let flat_out = project(&run(&flat, 40));
        let rack_out = project(&run(&rack, 40));
        assert!(!flat_out.is_empty());
        assert_eq!(flat_out, rack_out);

        // Overlapping (slide < window) and gapped (slide > window) windows:
        // still equal, and closed on rows max(window, slide) + j * slide
        // (row r is second r - 1).
        for (slide, closing_rows) in [(3, (10..=40).step_by(3)), (14, (14..=40).step_by(14))] {
            let with_slide = |cfg: &str| {
                cfg.replace("window = 10\n", &format!("window = 10\nslide = {slide}\n"))
            };
            let flat_out = project(&run(&with_slide(&flat), 40));
            let rack_out = project(&run(&with_slide(&rack), 40));
            assert_eq!(flat_out, rack_out, "slide {slide}");
            let mut stamps: Vec<u64> = flat_out.iter().map(|(_, _, t, _)| *t).collect();
            stamps.dedup();
            let want: Vec<u64> = closing_rows.map(|r| r - 1).collect();
            assert_eq!(stamps, want, "slide {slide}");
        }
    }

    #[test]
    fn a_nan_counter_is_ranked_not_a_panic() {
        // From t = 5 the culprit's metric 2 is NaN: its windowed mean is
        // NaN, so is one entry of the peer column the medians sort.
        let cfg = three_node_config(5, 2).replace("after = 5", "after = 5\nbump = NaN");
        let out = run(&cfg, 40);
        let culprit = ranks_of(&out, "rank2");
        assert_eq!(culprit.len(), 4, "one ranking per 10 s window");
        for row in &culprit {
            assert_eq!(row.len(), 4);
            assert_eq!(row[0], 2.0, "the NaN metric leads: {row:?}");
            assert!(row[1].is_nan());
        }
        // The peers' medians skip the NaN: they stay quiet and finite.
        for port in ["rank0", "rank1"] {
            for row in ranks_of(&out, port) {
                assert!(row[1] < 1.0, "{port}: {row:?}");
            }
        }
    }

    #[test]
    fn config_validation() {
        let framed = three_node_config(0, 1);
        for (cfg, why) in [
            (
                "[vecnode]\nid = n0\norigin = a\n\n[vecnode]\nid = n1\norigin = b\n\n\
                 [framer]\nid = f\ninput[m0] = n0.out\ninput[m1] = n1.out\n\n\
                 [metric_rank]\nid = mr\nwindow = 10\nnodes = a,b\ninput[frame] = f.frame\n"
                    .to_owned(),
                "too few peers",
            ),
            (framed.replace("window = 10", "window = 0"), "zero window"),
            (framed.replace("window = 10", "slide = 0"), "zero slide"),
            (framed.replace("top = 1", "top = 0"), "zero top"),
            (
                framed.replace("nodes = peer0,peer1,culprit\n", ""),
                "no `nodes`",
            ),
            (
                framed.replace(
                    "input[frame] = f.frame",
                    "input[frame] = f.frame\ninput[other] = n0.out",
                ),
                "`window` with two slots",
            ),
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(Dag::build(&registry(), &parsed).is_err(), "{why}");
        }
    }

    #[test]
    fn scalar_inputs_are_rejected_at_runtime() {
        let cfg = "[framenode]\nid = f\nbase = 1,3,5\nbad = scalar\nbad_at = 0\n\n\
                   [metric_rank]\nid = mr\nwindow = 2\nnodes = a,b,c\ninput[frame] = f.frame\n";
        let reg = frame_node_registry(&Emitted::default());
        let dag = Dag::build(&reg, &cfg.parse().unwrap()).unwrap();
        let mut eng = TickEngine::new(dag);
        let err = eng.run_for(TickDuration::from_secs(5)).unwrap_err();
        assert_eq!(err.instance, "mr");
    }

    #[test]
    fn a_malformed_frame_is_a_module_error_never_a_panic() {
        // Window 2, slide 1: the five good frames close four windows, each
        // ranked on the three nodes' ports.
        let mr = "[metric_rank]\nid = mr\nwindow = 2\nslide = 1\nnodes = n0,n1,n2\n\
                  input[frame] = rack.frame\n";
        assert_bad_frames_are_module_errors(3, 2, mr, "mr", 12);
        // A frame of other than the named nodes fails on the first one.
        let cfg: Config = format!("[framenode]\nid = rack\nbase = 1,3,5\n\n{mr}")
            .replace("nodes = n0,n1,n2", "nodes = n0,n1,n2,n3")
            .parse()
            .unwrap();
        let reg = frame_node_registry(&Emitted::default());
        let mut eng = TickEngine::new(Dag::build(&reg, &cfg).unwrap());
        let err = eng.run_for(TickDuration::from_secs(3)).unwrap_err();
        assert_eq!((err.instance.as_str(), err.at_secs), ("mr", 0));
        let ModuleError::Other(msg) = &err.source else {
            panic!("{:?}", err.source);
        };
        assert!(msg.contains("holds 3 nodes, `nodes` names 4"), "{msg}");
    }
}
