//! The `analysis_bb` black-box fingerpointer.
//!
//! Paper §4.5: each node's metric vector is classified once per second to a
//! workload state (1-NN against k-means centroids — the upstream `knn`
//! module). Over a window of `windowSize` samples, the per-node state
//! histogram `StateVector_j` is formed; a component-wise median across
//! nodes gives `medianStateVector`; "we use the L1 distance of
//! `StateVector_j − medianStateVector` ... and flag a node j as anomalous
//! if \[it\] is greater than a pre-determined threshold." The
//! [`judge`](crate::judge) holds that rule and the confirmation over
//! `consecutive` windows, reads their parameters (`threshold`, default
//! 60; `consecutive`, default 3) and declares the per-node outputs:
//! `alarm<i>` (Bool) and `dist<i>` (Float, the raw L1 distance — lets
//! threshold sweeps reuse one run).
//!
//! Configuration parameters besides the judge's:
//!
//! * `n_states` — number of workload states (centroids) — required;
//! * `window` — samples per window (default 60);
//! * `slide` — samples between evaluations (default = `window`);
//! * `nodes` — comma-separated hostnames of every compared node, in node
//!   order (required).
//!
//! Inputs: slots (`l0`, `l1`, ...) each carrying the per-second state
//! indices of one rack, a `knn`'s frame `[k, 1, indices…]` over the rack's
//! collector frame; the slots' nodes, in slot order, are the compared
//! nodes, so their `k`s must add up to `nodes`
//! ([`crate::rack::PeerFrames`] lines them up).

use std::collections::VecDeque;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, RunCtx, RunReason};

use crate::judge::{Verdicts, BB_THRESHOLD};
use crate::rack::{ColumnMedians, PeerFrames};

/// Black-box peer-comparison fingerpointer.
#[derive(Debug, Default)]
pub struct AnalysisBb {
    n_states: usize,
    window: usize,
    slide: usize,
    /// Every node's state index of a second, from the slots' frames.
    frames: Option<PeerFrames>,
    verdicts: Option<Verdicts>,
    /// Per node, the window's state indices.
    history: Vec<VecDeque<usize>>,
    rows_since_eval: usize,
    /// Per-node state histograms, row-major `nodes × n_states`, zeroed and
    /// refilled every evaluation.
    hists: Vec<f64>,
    /// Component-wise median across nodes.
    medians: ColumnMedians,
}

impl AnalysisBb {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        AnalysisBb::default()
    }
}

impl Module for AnalysisBb {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.n_states = ctx.parse_param("n_states")?;
        if self.n_states == 0 {
            return Err(ModuleError::invalid_parameter(
                "n_states",
                "must be positive",
            ));
        }
        self.window = ctx.parse_param_or("window", 60usize)?;
        if self.window == 0 {
            return Err(ModuleError::invalid_parameter("window", "must be positive"));
        }
        self.slide = ctx.parse_param_or("slide", self.window)?;
        if self.slide == 0 {
            return Err(ModuleError::invalid_parameter("slide", "must be positive"));
        }
        let (frames, origins) = PeerFrames::init(ctx, "analysis_bb")?;
        let n_nodes = origins.len();
        let verdicts = Verdicts::init(ctx, "threshold", BB_THRESHOLD, "dist", origins)?;
        self.verdicts = Some(verdicts);
        self.frames = Some(frames);
        self.history = vec![VecDeque::new(); n_nodes];
        self.hists = vec![0.0; n_nodes * self.n_states];
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let frames = self.frames.as_mut().expect("initialized");
        let verdicts = self.verdicts.as_mut().expect("initialized");
        for (slot, env) in &mut ctx.inputs {
            frames.push(slot, &env.sample)?;
        }

        while let Some((t, width, states)) = frames.pop()? {
            if width != 1 {
                return Err(ModuleError::Other(format!(
                    "analysis_bb compares one state index a node, got {width}"
                )));
            }
            // Also false for NaN, which is in no range.
            let in_range = |x: &f64| x.fract() == 0.0 && (0.0..self.n_states as f64).contains(x);
            if let Some(idx) = states.iter().map(|s| s[0]).find(|x| !in_range(x)) {
                return Err(ModuleError::Other(format!(
                    "state index {idx} outside 0..{}",
                    self.n_states
                )));
            }
            for (history, idx) in self.history.iter_mut().zip(states.iter().map(|s| s[0])) {
                history.push_back(idx as usize);
                if history.len() > self.window {
                    history.pop_front();
                }
            }
            self.rows_since_eval += 1;
            let warm = self.history.iter().all(|h| h.len() >= self.window);
            if !warm || self.rows_since_eval < self.slide {
                continue;
            }
            self.rows_since_eval = 0;

            self.hists.fill(0.0);
            let rows = self.hists.chunks_exact_mut(self.n_states);
            for (hist, history) in rows.zip(&self.history) {
                for &idx in history {
                    hist[idx] += 1.0;
                }
            }
            let hists = self.hists.chunks_exact(self.n_states);
            let median = self.medians.of(hists.clone(), self.n_states);
            for (node, hist) in hists.enumerate() {
                let l1: f64 = hist.iter().zip(median).map(|(a, b)| (a - b).abs()).sum();
                verdicts.emit(ctx, t, node, l1);
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
    use asdf_core::module::PortId;
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;
    use asdf_core::value::Value;

    /// What a one-node rack's `knn` emits, `[1, 1, state]`: node N cycles through healthy
    /// states; an optional deviant node emits a constant rare state after a
    /// start time.
    struct StateSource {
        port: Option<PortId>,
        t: u64,
    }
    impl Module for StateSource {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            let node: String = ctx.require_param("origin")?.to_owned();
            self.port = Some(ctx.declare_output_with_origin("out", node));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            ctx.out
                .emit(self.port.unwrap(), vec![1.0, 1.0, (self.t % 3) as f64]);
            Ok(())
        }
    }

    struct DeviantSource {
        port: Option<PortId>,
        t: u64,
        deviate_after: u64,
    }
    impl Module for DeviantSource {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.deviate_after = ctx.parse_param("after")?;
            self.port = Some(ctx.declare_output_with_origin("out", "culprit"));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            let state = if self.t > self.deviate_after {
                3
            } else {
                self.t % 3
            };
            ctx.out
                .emit(self.port.unwrap(), vec![1.0, 1.0, state as f64]);
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        reg.register("statesource", || Box::new(StateSource { port: None, t: 0 }));
        reg.register("deviant", || {
            Box::new(DeviantSource {
                port: None,
                t: 0,
                deviate_after: 0,
            })
        });
        crate::testutil::register_row_replay(&mut reg);
        reg
    }

    fn three_peer_config(deviant_after: u64, threshold: f64, consecutive: usize) -> String {
        format!(
            "\
[statesource]
id = n0
origin = peer0

[statesource]
id = n1
origin = peer1

[deviant]
id = n2
after = {deviant_after}

[analysis_bb]
id = bb
n_states = 4
window = 10
threshold = {threshold}
consecutive = {consecutive}
nodes = peer0, peer1, culprit
input[l0] = n0.out
input[l1] = n1.out
input[l2] = n2.out
"
        )
    }

    fn run(cfg: &str, secs: u64) -> Vec<asdf_core::module::Envelope> {
        let parsed: Config = cfg.parse().unwrap();
        let dag = Dag::build(&registry(), &parsed).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("bb").unwrap();
        eng.run_for(TickDuration::from_secs(secs)).unwrap();
        tap.drain()
    }

    fn alarms_of<'a>(out: &'a [asdf_core::module::Envelope], port: &str) -> Vec<(&'a str, bool)> {
        out.iter()
            .filter(|e| e.source.name == port)
            .map(|e| (e.source.origin.as_str(), e.sample.value.as_bool().unwrap()))
            .collect()
    }

    #[test]
    fn healthy_peers_raise_no_alarms() {
        let out = run(&three_peer_config(100_000, 5.0, 1), 100);
        for port in ["alarm0", "alarm1", "alarm2"] {
            assert!(
                alarms_of(&out, port).iter().all(|(_, a)| !a),
                "no alarms expected on {port}"
            );
        }
        // Distances exist and are small.
        let dists: Vec<f64> = out
            .iter()
            .filter(|e| e.source.name.starts_with("dist"))
            .map(|e| e.sample.value.as_float().unwrap())
            .collect();
        assert!(!dists.is_empty());
        assert!(dists.iter().all(|&d| d <= 4.0), "{dists:?}");
    }

    #[test]
    fn deviant_node_is_fingerpointed_after_consecutive_windows() {
        let out = run(&three_peer_config(30, 5.0, 3), 120);
        let culprit = alarms_of(&out, "alarm2");
        assert!(
            culprit.iter().any(|(_, a)| *a),
            "culprit should eventually alarm: {culprit:?}"
        );
        assert!(culprit.iter().all(|(o, _)| *o == "culprit"));
        // Peers stay clean.
        assert!(alarms_of(&out, "alarm0").iter().all(|(_, a)| !a));
        assert!(alarms_of(&out, "alarm1").iter().all(|(_, a)| !a));
        // Confirmation takes at least `consecutive` windows after deviation.
        let first_alarm_idx = culprit.iter().position(|(_, a)| *a).unwrap();
        assert!(first_alarm_idx >= 2, "3-window confirmation: {culprit:?}");
    }

    #[test]
    fn consecutive_gating_suppresses_single_window_blips() {
        // Deviation starts so late that only ~2 anomalous windows fit: with
        // consecutive = 3 nothing may fire.
        let out = run(&three_peer_config(105, 5.0, 3), 120);
        assert!(alarms_of(&out, "alarm2").iter().all(|(_, a)| !a));
        // The same trace with consecutive = 1 does fire.
        let out = run(&three_peer_config(105, 5.0, 1), 120);
        assert!(alarms_of(&out, "alarm2").iter().any(|(_, a)| *a));
    }

    /// `secs` frames of what `three_peer_config`'s first `width` sources
    /// emit, as one rack's `knn` would, as a `rowreplay` parameter.
    fn replayed_rows(width: usize, deviant_after: u64, secs: u64) -> String {
        let row = |t: u64| {
            let deviant = if t > deviant_after { 3 } else { t % 3 };
            let states = [t % 3, t % 3, deviant];
            let states: Vec<String> = states[..width].iter().map(u64::to_string).collect();
            format!("{width},1,{}", states.join(","))
        };
        (1..=secs).map(row).collect::<Vec<_>>().join("|")
    }

    #[test]
    fn rack_wide_slots_read_exactly_as_per_node_slots() {
        let per_node = run(&three_peer_config(30, 5.0, 2), 100);
        assert!(alarms_of(&per_node, "alarm2").iter().any(|(_, a)| *a));
        let analysis = "[analysis_bb]\nid = bb\nn_states = 4\nwindow = 10\nthreshold = 5\n\
                        consecutive = 2\nnodes = peer0, peer1, culprit\n";
        // The three nodes as one rack; and as a rack of two beside a node.
        let one_rack = format!(
            "[rowreplay]\nid = rack\nrows = {}\n\n{analysis}input[l0] = rack.out\n",
            replayed_rows(3, 30, 100)
        );
        let rack_and_node = format!(
            "[rowreplay]\nid = rack\nrows = {}\n\n[deviant]\nid = n2\nafter = 30\n\n\
             {analysis}input[l0] = rack.out\ninput[l1] = n2.out\n",
            replayed_rows(2, 30, 100)
        );
        for cfg in [one_rack, rack_and_node] {
            assert!(run(&cfg, 100) == per_node, "{cfg}");
        }
    }

    #[test]
    fn a_mis_sized_or_malformed_rack_row_is_a_module_error_never_a_panic() {
        for (nodes, rows, says) in [
            ("a,b,c", "2,1, 0,1", "cover 2 nodes at t=0, expected 3"),
            ("a,b,c", "4,1, 0,1,2,0", "cover 4 nodes at t=0, expected 3"),
            ("a,b,c", "3,1, 0,1.5,2", "state index 1.5 outside 0..4"),
            ("a,b,c", "3,1, 0,nan,2", "state index NaN outside 0..4"),
            ("a,b,c", "3,1, 0,-1,2", "state index -1 outside 0..4"),
            ("a,b,c", "3,1, 0,4,2", "state index 4 outside 0..4"),
            ("a,b,c", "3,1, 0,1e300,2", "outside 0..4"),
            (
                "a,b,c",
                "3,2, 0,1, 1,2, 2,3",
                "one state index a node, got 2",
            ),
            ("a,b,c", "1,2, 0", "header says 1x2"),
        ] {
            let cfg: Config = format!(
                "[rowreplay]\nid = rack\nrows = {rows}\n\n\
                 [analysis_bb]\nid = bb\nn_states = 4\nnodes = {nodes}\ninput[l0] = rack.out\n"
            )
            .parse()
            .unwrap();
            let mut eng = TickEngine::new(Dag::build(&registry(), &cfg).unwrap());
            let err = eng.run_for(TickDuration::from_secs(3)).unwrap_err();
            assert_eq!(err.instance, "bb", "{rows}");
            let ModuleError::Other(msg) = &err.source else {
                panic!("{rows}: {:?}", err.source);
            };
            assert!(msg.contains(says), "{rows}: {msg}");
        }
        // More slots than named nodes, fewer than three names, no slot.
        for analysis in [
            "nodes = a,b,c\ninput[l0] = r0.out\ninput[l1] = r1.out\ninput[l2] = r2.out\ninput[l3] = r3.out\n",
            "nodes = a,b\ninput[l0] = r0.out\n",
            "nodes = a,b,c\n",
        ] {
            let racks: String = (0..4)
                .map(|i| format!("[rowreplay]\nid = r{i}\nrows = 0\n\n"))
                .collect();
            let cfg: Config = format!("{racks}[analysis_bb]\nid = bb\nn_states = 4\n{analysis}")
                .parse()
                .unwrap();
            assert!(Dag::build(&registry(), &cfg).is_err(), "{analysis}");
        }
    }

    #[test]
    fn config_validation() {
        for cfg in [
            // too few peers
            "[statesource]\nid = n0\norigin = a\n\n[statesource]\nid = n1\norigin = b\n\n[analysis_bb]\nid = bb\nn_states = 4\nnodes = a,b\ninput[l0] = n0.out\ninput[l1] = n1.out\n".to_owned(),
            // no `nodes`
            three_peer_config(0, 5.0, 1).replace("nodes = peer0, peer1, culprit\n", ""),
            // zero n_states
            three_peer_config(0, 5.0, 1).replace("n_states = 4", "n_states = 0"),
            // zero window
            three_peer_config(0, 5.0, 1).replace("window = 10", "window = 0"),
            // a threshold that never or always alarms; zero confirmation
            three_peer_config(0, f64::NAN, 1),
            three_peer_config(0, -1.0, 1),
            three_peer_config(0, 5.0, 0),
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(Dag::build(&registry(), &parsed).is_err(), "should reject");
        }
    }

    #[test]
    fn out_of_range_state_index_is_a_runtime_error() {
        // n_states = 2 but sources emit 0..=3.
        let cfg = three_peer_config(0, 5.0, 1).replace("n_states = 4", "n_states = 2");
        let parsed: Config = cfg.parse().unwrap();
        let dag = Dag::build(&registry(), &parsed).unwrap();
        let mut eng = TickEngine::new(dag);
        let err = eng.run_for(TickDuration::from_secs(20)).unwrap_err();
        assert_eq!(err.instance, "bb");
    }

    #[test]
    fn alarm_values_are_booleans_and_dists_floats() {
        let out = run(&three_peer_config(30, 5.0, 1), 60);
        for e in &out {
            if e.source.name.starts_with("alarm") {
                assert!(matches!(e.sample.value, Value::Bool(_)));
            } else {
                assert!(matches!(e.sample.value, Value::Float(_)));
            }
        }
    }
}
