//! The `analysis_bb` black-box fingerpointer.
//!
//! Paper §4.5: each node's metric vector is classified once per second to a
//! workload state (1-NN against k-means centroids — the upstream `knn`
//! module). Over a window of `windowSize` samples, the per-node state
//! histogram `StateVector_j` is formed; a component-wise median across
//! nodes gives `medianStateVector`; "we use the L1 distance of
//! `StateVector_j − medianStateVector` ... and flag a node j as anomalous
//! if \[it\] is greater than a pre-determined threshold."
//!
//! An alarm is raised only after `consecutive` anomalous windows (the paper
//! "took at least 3 consecutive windows to gain confidence", which sets the
//! ≈200 s fingerpointing-latency floor at windowSize 60).
//!
//! Configuration parameters:
//!
//! * `n_states` — number of workload states (centroids) — required;
//! * `window` — samples per window (default 60);
//! * `slide` — samples between evaluations (default = `window`);
//! * `threshold` — L1 alarm threshold (default 60);
//! * `consecutive` — anomalous windows required before alarming (default 3);
//! * `nodes` — comma-separated hostnames of every compared node, in node
//!   order. Absent, each slot is one node, named by its source.
//!
//! Inputs: slots (`l0`, `l1`, ...) each carrying the per-second state
//! indices of one node (an `Int`) or of one rack (a `knn`'s row over the
//! rack's frame); the slots' nodes, in slot order, are the compared nodes,
//! so their widths must add up to `nodes`. Outputs per node: `alarm<i>`
//! (Bool) and `dist<i>` (Float, the raw L1 distance — lets threshold
//! sweeps reuse one run).

use std::collections::VecDeque;
use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::{Sample, Value};
use hadoop_logs::sync::Aligner;

use crate::kernel::CentroidBlock;
use crate::rack;

/// Black-box peer-comparison fingerpointer.
#[derive(Debug)]
pub struct AnalysisBb {
    n_states: usize,
    window: usize,
    slide: usize,
    threshold: f64,
    consecutive: usize,
    /// One stream per slot: a second's state indices of the slot's nodes,
    /// in node order (a rack's row shares its envelope's allocation).
    aligner: Aligner<Arc<[f64]>>,
    /// Per node, the window's state indices.
    history: Vec<VecDeque<usize>>,
    anomalous_streak: Vec<usize>,
    rows_since_eval: usize,
    /// Per-node state histograms, one row per node — contiguous and
    /// reused (zeroed, not reallocated) every evaluation.
    hists: CentroidBlock,
    /// Component-wise median across nodes, reused every evaluation.
    median_hist: Vec<f64>,
    /// Per-state column scratch for the median.
    col: Vec<f64>,
    alarm_ports: Vec<PortId>,
    dist_ports: Vec<PortId>,
}

impl AnalysisBb {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        AnalysisBb {
            n_states: 0,
            window: 0,
            slide: 0,
            threshold: 0.0,
            consecutive: 0,
            aligner: Aligner::new(1),
            history: Vec::new(),
            anomalous_streak: Vec::new(),
            rows_since_eval: 0,
            hists: CentroidBlock::default(),
            median_hist: Vec::new(),
            col: Vec::new(),
            alarm_ports: Vec::new(),
            dist_ports: Vec::new(),
        }
    }
}

impl Default for AnalysisBb {
    fn default() -> Self {
        AnalysisBb::new()
    }
}

/// The order every peer median is taken in: numbers by value, NaNs (all
/// equal) after every number.
pub(crate) fn nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Component-wise median; for even counts, the mean of the middle pair.
/// NaNs (a counter can arrive as one off the wire) sort after every
/// number, so they shift the median instead of panicking the sort; it is
/// NaN itself only once NaNs reach the middle of the column.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_by(nan_last);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
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
        self.threshold = ctx.parse_param_or("threshold", 60.0)?;
        self.consecutive = ctx.parse_param_or("consecutive", 3usize)?;
        if self.consecutive == 0 {
            return Err(ModuleError::invalid_parameter(
                "consecutive",
                "must be positive",
            ));
        }

        let n_slots = ctx.input_slots().len();
        let origins = rack::peer_origins(ctx, rack::slot_origins(ctx))?;
        let n_nodes = origins.len();
        for (i, origin) in origins.into_iter().enumerate() {
            let alarm = ctx.declare_output_with_origin(format!("alarm{i}"), origin.clone());
            let dist = ctx.declare_output_with_origin(format!("dist{i}"), origin);
            self.alarm_ports.push(alarm);
            self.dist_ports.push(dist);
        }
        self.aligner = Aligner::new(n_slots);
        self.history = vec![VecDeque::new(); n_nodes];
        self.anomalous_streak = vec![0; n_nodes];
        self.hists = CentroidBlock::zeroed(self.n_states, n_nodes);
        self.median_hist = vec![0.0; self.n_states];
        self.col = Vec::with_capacity(n_nodes);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let n_nodes = self.history.len();
        // Borrowing drain: the fan-in hot path ingests everything queued
        // since the last run (one row per slot per tick) into the aligner
        // without a per-run Vec; emissions happen after the drain, once
        // rows align.
        for (slot_idx, env) in ctx.drain_all() {
            let states: Arc<[f64]> = match &env.sample.value {
                Value::Int(idx) => Arc::from([*idx as f64]),
                Value::Vector(row) => Arc::clone(row),
                other => {
                    return Err(ModuleError::Other(format!(
                        "analysis_bb expects integer state indices, got {}",
                        other.type_name()
                    )))
                }
            };
            // Also false for NaN, which is in no range.
            let in_range = |x: &f64| x.fract() == 0.0 && (0.0..self.n_states as f64).contains(x);
            if let Some(idx) = states.iter().find(|x| !in_range(x)) {
                return Err(ModuleError::Other(format!(
                    "state index {idx} outside 0..{}",
                    self.n_states
                )));
            }
            self.aligner
                .push(slot_idx, env.sample.timestamp.as_secs(), states);
        }

        while let Some((t, row)) = self.aligner.pop_aligned() {
            let width: usize = row.iter().map(|states| states.len()).sum();
            if width != n_nodes {
                return Err(ModuleError::Other(format!(
                    "the slots' rows cover {width} nodes at t={t}, expected {n_nodes}"
                )));
            }
            let indices = row.iter().flat_map(|states| states.iter());
            for (history, idx) in self.history.iter_mut().zip(indices) {
                history.push_back(*idx as usize);
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

            // State histograms per node, into the reused contiguous rows.
            self.hists.zero();
            for node in 0..n_nodes {
                let hist = self.hists.row_mut(node);
                for &idx in self.history[node].iter() {
                    hist[idx] += 1.0;
                }
            }
            // Component-wise median across nodes.
            for s in 0..self.n_states {
                self.col.clear();
                self.col.extend(self.hists.rows().map(|h| h[s]));
                self.median_hist[s] = median(&mut self.col);
            }
            // L1 distances and alarms.
            let ts = asdf_core::time::Timestamp::from_secs(t);
            #[allow(clippy::needless_range_loop)] // four parallel per-node arrays
            for node in 0..n_nodes {
                let l1: f64 = self
                    .hists
                    .row(node)
                    .iter()
                    .zip(&self.median_hist)
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                let anomalous = l1 > self.threshold;
                if anomalous {
                    self.anomalous_streak[node] += 1;
                } else {
                    self.anomalous_streak[node] = 0;
                }
                let alarm = self.anomalous_streak[node] >= self.consecutive;
                ctx.emit_sample(self.dist_ports[node], Sample::new(ts, l1));
                ctx.emit_sample(self.alarm_ports[node], Sample::new(ts, alarm));
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
    use asdf_core::value::Value;

    /// Per-node state source: node N cycles through healthy states; an
    /// optional deviant node emits a constant rare state after a start
    /// time.
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
            ctx.emit(self.port.unwrap(), (self.t % 3) as i64);
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
                (self.t % 3) as i64
            };
            ctx.emit(self.port.unwrap(), state);
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

    /// `secs` rows of what `three_peer_config`'s first `width` sources emit,
    /// as a `rowreplay` parameter.
    fn rack_rows(width: usize, deviant_after: u64, secs: u64) -> String {
        let row = |t: u64| {
            let deviant = if t > deviant_after { 3 } else { t % 3 };
            let states = [t % 3, t % 3, deviant];
            states[..width]
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
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
            rack_rows(3, 30, 100)
        );
        let rack_and_node = format!(
            "[rowreplay]\nid = rack\nrows = {}\n\n[deviant]\nid = n2\nafter = 30\n\n\
             {analysis}input[l0] = rack.out\ninput[l1] = n2.out\n",
            rack_rows(2, 30, 100)
        );
        for cfg in [one_rack, rack_and_node] {
            assert!(run(&cfg, 100) == per_node, "{cfg}");
        }
    }

    #[test]
    fn a_mis_sized_or_malformed_rack_row_is_a_module_error_never_a_panic() {
        for (nodes, rows, says) in [
            ("a,b,c", "0,1", "cover 2 nodes at t=0, expected 3"),
            ("a,b,c", "0,1,2,0", "cover 4 nodes at t=0, expected 3"),
            ("a,b,c", "0,1.5,2", "state index 1.5 outside 0..4"),
            ("a,b,c", "0,nan,2", "state index NaN outside 0..4"),
            ("a,b,c", "0,-1,2", "state index -1 outside 0..4"),
            ("a,b,c", "0,4,2", "state index 4 outside 0..4"),
            ("a,b,c", "0,1e300,2", "outside 0..4"),
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
    fn median_is_robust_to_one_outlier() {
        let mut v = [1.0, 100.0, 2.0];
        assert_eq!(median(&mut v), 2.0);
        let mut v = [1.0, 2.0, 3.0, 100.0];
        assert_eq!(median(&mut v), 2.5);
        let mut v = [7.0];
        assert_eq!(median(&mut v), 7.0);
    }

    #[test]
    fn median_sorts_nan_last_instead_of_panicking() {
        let mut v = [1.0, f64::NAN, 2.0];
        assert_eq!(median(&mut v), 2.0);
        let mut v = [f64::NAN, 1.0, 3.0, -f64::NAN, 2.0, 0.5];
        assert_eq!(median(&mut v), 2.5);
        assert!(v[4].is_nan() && v[5].is_nan(), "{v:?}");
        let mut v = [f64::NAN, 1.0];
        assert!(median(&mut v).is_nan());
        // Signed zeros still compare equal: the stable sort leaves them
        // in input order, as it did before NaN was tolerated.
        let mut v = [0.0, -0.0, 1.0];
        assert!(median(&mut v).is_sign_negative());
    }

    #[test]
    fn config_validation() {
        for cfg in [
            // too few peers
            "[statesource]\nid = n0\norigin = a\n\n[statesource]\nid = n1\norigin = b\n\n[analysis_bb]\nid = bb\nn_states = 4\ninput[l0] = n0.out\ninput[l1] = n1.out\n".to_owned(),
            // zero n_states
            three_peer_config(0, 5.0, 1).replace("n_states = 4", "n_states = 0"),
            // zero window
            three_peer_config(0, 5.0, 1).replace("window = 10", "window = 0"),
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
