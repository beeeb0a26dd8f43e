//! The `analysis_wb` white-box fingerpointer.
//!
//! Paper §4.4: per white-box metric, each node's windowed mean
//! (`mean_metric_i`) is compared against the across-node median
//! (`median_mean_metric`); node *i* is flagged when the difference exceeds
//! a threshold for one or more metrics. The threshold is
//! `max(1, k·σ_median)`, where `σ_median` is the median across nodes of the
//! per-node windowed standard deviation — with the explicit `max(1, ·)`
//! floor because "several white-box metrics tend to be constant in several
//! nodes", making the median σ zero and a bare `k·σ` threshold a
//! false-positive machine.
//!
//! Inputs: slot pairs `a<i>` / `d<i>`, the `mean` and `stddev` rows of one
//! `mavgvec` over a rack collector's `frame` rows, whose statistics are the
//! per-node statistics bit for bit ([`crate::rack::window_stats`] reads
//! them); the pairs' nodes, in slot order, are the compared nodes, so
//! their widths must add up to `nodes`.
//! Outputs per node: `alarm<i>` (Bool) and `kcrit<i>` (Float — the smallest
//! `k` at which the node would *stop* being flagged, `+inf` when a
//! deviating metric has zero median-σ; lets k sweeps reuse one run).
//!
//! Configuration parameters:
//!
//! * `k` — threshold multiplier (default 3, the paper's choice);
//! * `consecutive` — anomalous windows required before alarming
//!   (default 3, matching the black-box confirmation depth);
//! * `nodes` — comma-separated hostnames of every compared node, in node
//!   order (required).

use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::value::{Sample, Value};
use hadoop_logs::sync::Aligner;

use crate::analysis_bb::median;
use crate::rack;

/// White-box peer-comparison fingerpointer.
#[derive(Debug)]
pub struct AnalysisWb {
    k: f64,
    consecutive: usize,
    /// Streams 0..s are the slots' means, s..2s their stddevs; a row shares
    /// its envelope's allocation.
    aligner: Aligner<Arc<[f64]>>,
    /// Per node.
    anomalous_streak: Vec<usize>,
    alarm_ports: Vec<PortId>,
    kcrit_ports: Vec<PortId>,
    /// Maps envelope slot index -> aligner stream index.
    slot_to_stream: Vec<usize>,
    /// Row-major `nodes × dim` windowed means and stddevs of the row being
    /// evaluated, and the median scratch: all reused every evaluation.
    means: Vec<f64>,
    sds: Vec<f64>,
    col: Vec<f64>,
    median_mean: Vec<f64>,
    median_sd: Vec<f64>,
}

impl AnalysisWb {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        AnalysisWb {
            k: 0.0,
            consecutive: 0,
            aligner: Aligner::new(1),
            anomalous_streak: Vec::new(),
            alarm_ports: Vec::new(),
            kcrit_ports: Vec::new(),
            slot_to_stream: Vec::new(),
            means: Vec::new(),
            sds: Vec::new(),
            col: Vec::new(),
            median_mean: Vec::new(),
            median_sd: Vec::new(),
        }
    }
}

/// The median across nodes of every metric of a row-major `nodes × dim`
/// matrix, into `medians`; `col` is scratch.
fn column_medians(matrix: &[f64], dim: usize, col: &mut Vec<f64>, medians: &mut Vec<f64>) {
    medians.clear();
    for m in 0..dim {
        col.clear();
        col.extend(matrix.iter().skip(m).step_by(dim));
        medians.push(median(col));
    }
}

impl Default for AnalysisWb {
    fn default() -> Self {
        AnalysisWb::new()
    }
}

impl Module for AnalysisWb {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.k = ctx.parse_param_or("k", 3.0)?;
        if self.k < 0.0 {
            return Err(ModuleError::invalid_parameter("k", "must be non-negative"));
        }
        self.consecutive = ctx.parse_param_or("consecutive", 3usize)?;
        if self.consecutive == 0 {
            return Err(ModuleError::invalid_parameter(
                "consecutive",
                "must be positive",
            ));
        }

        // Slot `a<i>` (means) is aligner stream i, `d<i>` (stddevs) stream
        // s + i; the indices must tile 0..s, each once.
        let slots = ctx.input_slots();
        let n_slots = slots.len() / 2;
        self.slot_to_stream.clear();
        for (name, _) in slots {
            let index = |rest: &str| rest.parse().ok().filter(|i| *i < n_slots);
            let stream = if let Some(i) = name.strip_prefix('a').and_then(index) {
                i
            } else if let Some(i) = name.strip_prefix('d').and_then(index) {
                n_slots + i
            } else {
                return Err(ModuleError::BadInputs(format!(
                    "analysis_wb slots must be a<i> (means) or d<i> (stddevs), \
                     i < {n_slots}, got `{name}`"
                )));
            };
            self.slot_to_stream.push(stream);
        }
        let mut streams = self.slot_to_stream.clone();
        streams.sort_unstable();
        if streams.iter().enumerate().any(|(i, s)| *s != i) {
            return Err(ModuleError::BadInputs(
                "mean slots a0..aN-1 and stddev slots d0..dN-1 must pair up".into(),
            ));
        }
        let origins = rack::peer_origins(ctx, n_slots)?;
        let n = origins.len();
        for (node, origin) in origins.into_iter().enumerate() {
            let alarm = ctx.declare_output_with_origin(format!("alarm{node}"), origin.clone());
            let kcrit = ctx.declare_output_with_origin(format!("kcrit{node}"), origin);
            self.alarm_ports.push(alarm);
            self.kcrit_ports.push(kcrit);
        }
        self.aligner = Aligner::new(2 * n_slots);
        self.anomalous_streak = vec![0; n];
        self.col = Vec::with_capacity(n);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let n = self.anomalous_streak.len();
        for (slot_idx, env) in ctx.drain_all() {
            let Value::Vector(v) = &env.sample.value else {
                return Err(ModuleError::Other(format!(
                    "analysis_wb expects vector samples, got {}",
                    env.sample.value.type_name()
                )));
            };
            self.aligner.push(
                self.slot_to_stream[slot_idx],
                env.sample.timestamp.as_secs(),
                Arc::clone(v),
            );
        }

        while let Some((t, row)) = self.aligner.pop_aligned() {
            // The slots' node rows, concatenated: the `n × dim` matrices.
            let (slot_means, slot_sds) = row.split_at(row.len() / 2);
            self.means.clear();
            self.sds.clear();
            let mut dim = 0;
            for (mean, sd) in slot_means.iter().zip(slot_sds) {
                let (d, means, sds) = rack::window_stats(mean, sd).map_err(ModuleError::Other)?;
                if dim != 0 && d != dim {
                    return Err(ModuleError::Other(
                        "inconsistent metric dimensions across nodes".into(),
                    ));
                }
                dim = d;
                self.means.extend_from_slice(means);
                self.sds.extend_from_slice(sds);
            }
            if self.means.len() != n * dim {
                return Err(ModuleError::Other(format!(
                    "the slots' rows cover {} nodes at t={t}, expected {n}",
                    self.means.len() / dim
                )));
            }
            column_medians(&self.means, dim, &mut self.col, &mut self.median_mean);
            column_medians(&self.sds, dim, &mut self.col, &mut self.median_sd);
            let (means, median_mean, median_sd) = (&self.means, &self.median_mean, &self.median_sd);
            let ts = asdf_core::time::Timestamp::from_secs(t);
            #[allow(clippy::needless_range_loop)] // several parallel per-node arrays
            for node in 0..n {
                // k_crit: the smallest k at which this node is NOT flagged.
                // Per metric: |diff| <= 1 never flags; σ_med = 0 with
                // |diff| > 1 always flags (k_crit = ∞); else flags while
                // k < |diff|/σ_med.
                let mut kcrit: f64 = 0.0;
                for m in 0..dim {
                    let diff = (means[node * dim + m] - median_mean[m]).abs();
                    if diff <= 1.0 {
                        continue;
                    }
                    if median_sd[m] <= 1e-12 {
                        kcrit = f64::INFINITY;
                        break;
                    }
                    kcrit = kcrit.max(diff / median_sd[m]);
                }
                let anomalous = self.k < kcrit;
                if anomalous {
                    self.anomalous_streak[node] += 1;
                } else {
                    self.anomalous_streak[node] = 0;
                }
                let alarm = self.anomalous_streak[node] >= self.consecutive;
                ctx.emit_sample(self.kcrit_ports[node], Sample::new(ts, kcrit));
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

    /// Emits the (mean, stddev) row pair a `mavgvec` over a one-node rack
    /// would, once per second. The `bias` parameter shifts the mean after
    /// `after` seconds; `sd` sets the reported deviation.
    struct WbSource {
        mean_port: Option<PortId>,
        sd_port: Option<PortId>,
        t: u64,
        bias: f64,
        after: u64,
        sd: f64,
    }
    impl Module for WbSource {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.bias = ctx.parse_param_or("bias", 0.0)?;
            self.after = ctx.parse_param_or("after", 0u64)?;
            self.sd = ctx.parse_param_or("sd", 0.5)?;
            let origin: String = ctx.require_param("origin")?.to_owned();
            self.mean_port = Some(ctx.declare_output_with_origin("mean", origin.clone()));
            self.sd_port = Some(ctx.declare_output_with_origin("stddev", origin));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            let bias = if self.t > self.after { self.bias } else { 0.0 };
            // Two metrics: one live, one constant across the cluster, under
            // the frame's `[1, 2]` header and what its variance leaves of it.
            ctx.emit(self.mean_port.unwrap(), vec![1.0, 2.0, 10.0 + bias, 2.0]);
            ctx.emit(self.sd_port.unwrap(), vec![0.0, 0.0, self.sd, 0.0]);
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        reg.register("wbsource", || {
            Box::new(WbSource {
                mean_port: None,
                sd_port: None,
                t: 0,
                bias: 0.0,
                after: 0,
                sd: 0.5,
            })
        });
        crate::testutil::register_row_replay(&mut reg);
        reg
    }

    fn config(culprit_bias: f64, after: u64, k: f64, consecutive: usize) -> String {
        format!(
            "\
[wbsource]
id = n0
origin = peer0

[wbsource]
id = n1
origin = peer1

[wbsource]
id = n2
origin = culprit
bias = {culprit_bias}
after = {after}

[analysis_wb]
id = wb
k = {k}
consecutive = {consecutive}
nodes = peer0, peer1, culprit
input[a0] = n0.mean
input[d0] = n0.stddev
input[a1] = n1.mean
input[d1] = n1.stddev
input[a2] = n2.mean
input[d2] = n2.stddev
"
        )
    }

    fn run(cfg: &str, secs: u64) -> Vec<asdf_core::module::Envelope> {
        let parsed: Config = cfg.parse().unwrap();
        let dag = Dag::build(&registry(), &parsed).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("wb").unwrap();
        eng.run_for(TickDuration::from_secs(secs)).unwrap();
        tap.drain()
    }

    fn alarms(out: &[asdf_core::module::Envelope], port: &str) -> Vec<bool> {
        out.iter()
            .filter(|e| e.source.name == port)
            .map(|e| e.sample.value.as_bool().unwrap())
            .collect()
    }

    #[test]
    fn healthy_cluster_raises_nothing() {
        let out = run(&config(0.0, 0, 3.0, 1), 30);
        for p in ["alarm0", "alarm1", "alarm2"] {
            assert!(alarms(&out, p).iter().all(|a| !a));
        }
    }

    #[test]
    fn biased_node_is_flagged_and_peers_are_not() {
        // Bias 5.0 vs σ_median 0.5: k_crit = 10 > k = 3 → flagged.
        let out = run(&config(5.0, 10, 3.0, 3), 40);
        let culprit = alarms(&out, "alarm2");
        assert!(
            culprit.iter().any(|a| *a),
            "culprit must alarm: {culprit:?}"
        );
        assert!(alarms(&out, "alarm0").iter().all(|a| !a));
        assert!(alarms(&out, "alarm1").iter().all(|a| !a));
        // Confirmation depth: first alarm no sooner than 3 windows in.
        let first = culprit.iter().position(|a| *a).unwrap();
        assert!(first >= 12, "10s dormant + 3 consecutive: {first}");
    }

    #[test]
    fn the_max_1_floor_suppresses_tiny_deviations() {
        // Bias 0.9 < 1: never flagged no matter how small σ is.
        let out = run(&config(0.9, 0, 0.0, 1), 30);
        assert!(alarms(&out, "alarm2").iter().all(|a| !a));
    }

    #[test]
    fn zero_median_sigma_with_real_deviation_always_flags() {
        // All nodes report sd = 0 (constant metrics), culprit deviates by 5.
        let cfg = config(5.0, 0, 100.0, 1).replace("sd = 0.5", "sd = 0.0");
        // Overwrite default sd on all sources.
        let cfg = cfg
            .replace("origin = peer0", "origin = peer0\nsd = 0.0")
            .replace("origin = peer1", "origin = peer1\nsd = 0.0")
            .replace("origin = culprit", "origin = culprit\nsd = 0.0");
        let out = run(&cfg, 20);
        // kcrit = ∞ beats any k.
        assert!(alarms(&out, "alarm2").iter().any(|a| *a));
        let kcrits: Vec<f64> = out
            .iter()
            .filter(|e| e.source.name == "kcrit2")
            .map(|e| e.sample.value.as_float().unwrap())
            .collect();
        assert!(kcrits.iter().any(|k| k.is_infinite()));
    }

    #[test]
    fn kcrit_reports_the_sweepable_boundary() {
        // diff 5.0, σ_median 0.5 → k_crit = 10: flagged for k<10, not k≥10.
        let out_low = run(&config(5.0, 0, 9.9, 1), 20);
        assert!(alarms(&out_low, "alarm2").iter().any(|a| *a));
        let out_high = run(&config(5.0, 0, 10.1, 1), 20);
        assert!(alarms(&out_high, "alarm2").iter().all(|a| !a));
        let kcrits: Vec<f64> = out_low
            .iter()
            .filter(|e| e.source.name == "kcrit2")
            .map(|e| e.sample.value.as_float().unwrap())
            .collect();
        assert!(kcrits.iter().any(|k| (k - 10.0).abs() < 1e-9), "{kcrits:?}");
    }

    /// Two `rowreplay`s, `m<id>` and `s<id>`: `secs` seconds of the mean and
    /// stddev rows a `mavgvec` would emit over a rack holding the sources
    /// `nodes` of `config`, under the frame's `[width, 2]` header and what
    /// its variance leaves of it, `[0, 0]`.
    fn rack_stats(id: usize, nodes: std::ops::Range<usize>, bias: f64, after: u64) -> String {
        let width = nodes.len();
        let mean = |t: u64| {
            let culprit = if t > after { 10.0 + bias } else { 10.0 };
            let of_nodes = [10.0, 10.0, culprit].map(|m| format!("{m},2"));
            format!("{width},2,{}", of_nodes[nodes.clone()].join(","))
        };
        let means: Vec<String> = (1..=40).map(mean).collect();
        let sd = format!("0,0{}", ",0.5,0".repeat(width));
        format!(
            "[rowreplay]\nid = m{id}\nrows = {}\n\n[rowreplay]\nid = s{id}\nrows = {}\n\n",
            means.join("|"),
            vec![sd; 40].join("|")
        )
    }

    #[test]
    fn rack_wide_slots_read_exactly_as_per_node_slots() {
        let per_node = run(&config(5.0, 10, 3.0, 2), 40);
        assert!(alarms(&per_node, "alarm2").iter().any(|a| *a));
        let analysis = "[analysis_wb]\nid = wb\nk = 3\nconsecutive = 2\n\
                        nodes = peer0, peer1, culprit\ninput[a0] = m0.out\ninput[d0] = s0.out\n";
        // The three nodes as one rack; and as a rack of two beside a rack
        // of one.
        let one_rack = format!("{}{analysis}", rack_stats(0, 0..3, 5.0, 10));
        let two_racks = format!(
            "{}{}{analysis}input[a1] = m1.out\ninput[d1] = s1.out\n",
            rack_stats(0, 0..2, 5.0, 10),
            rack_stats(1, 2..3, 5.0, 10)
        );
        for cfg in [one_rack, two_racks] {
            assert!(run(&cfg, 40) == per_node, "{cfg}");
        }
    }

    #[test]
    fn a_mis_sized_or_malformed_rack_row_is_a_module_error_never_a_panic() {
        for (mean, sd, says) in [
            (
                "2,2, 10,2, 10,2",
                "0,0, 1,0, 1,0",
                "cover 2 nodes at t=0, expected 3",
            ),
            (
                "4,1, 1,1,1,1",
                "0,0, 1,1,1,1",
                "cover 4 nodes at t=0, expected 3",
            ),
            ("3,2, 10,2, 10,2", "0,0, 1,0, 1,0", "header says 3x2"),
            ("3,1, 1,1,1", "0,0, 1,1", "against a stddev row of 4"),
            ("1.5,2, 10,2, 10,2", "0,0, 1,0, 1,0", "bad rack row header"),
            ("nan,1, 1,1,1", "0,0, 1,1,1", "bad rack row header"),
            ("7", "7", "rack row needs [k, dim"),
        ] {
            let cfg: Config = format!(
                "[rowreplay]\nid = m\nrows = {mean}\n\n[rowreplay]\nid = s\nrows = {sd}\n\n\
                 [analysis_wb]\nid = wb\nnodes = a,b,c\ninput[a0] = m.out\ninput[d0] = s.out\n"
            )
            .parse()
            .unwrap();
            let mut eng = TickEngine::new(Dag::build(&registry(), &cfg).unwrap());
            let err = eng.run_for(TickDuration::from_secs(3)).unwrap_err();
            assert_eq!(err.instance, "wb", "{mean}");
            let ModuleError::Other(msg) = &err.source else {
                panic!("{mean}: {:?}", err.source);
            };
            assert!(msg.contains(says), "{mean}: {msg}");
        }
        // Fewer than three names; no slot pair at all.
        for analysis in [
            "nodes = a,b\ninput[a0] = m.out\ninput[d0] = s.out\n",
            "nodes = a,b,c\n",
        ] {
            let cfg: Config = format!(
                "[rowreplay]\nid = m\nrows = 1\n\n[rowreplay]\nid = s\nrows = 1\n\n\
                 [analysis_wb]\nid = wb\n{analysis}"
            )
            .parse()
            .unwrap();
            assert!(Dag::build(&registry(), &cfg).is_err(), "{analysis}");
        }
    }

    #[test]
    fn slot_pairing_is_validated() {
        for mutilation in [
            // missing a stddev slot
            ("input[d2] = n2.stddev\n", ""),
            // bad slot name
            ("input[a0] = n0.mean", "input[x0] = n0.mean"),
        ] {
            let cfg = config(0.0, 0, 3.0, 1).replace(mutilation.0, mutilation.1);
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&registry(), &parsed).is_err(),
                "should reject mutilated config"
            );
        }
    }

    #[test]
    fn origins_flow_to_alarm_ports() {
        let out = run(&config(5.0, 0, 1.0, 1), 10);
        let origins: std::collections::HashSet<&str> = out
            .iter()
            .filter(|e| e.source.name.starts_with("alarm"))
            .map(|e| e.source.origin.as_str())
            .collect();
        assert_eq!(origins, ["peer0", "peer1", "culprit"].into_iter().collect());
    }
}
