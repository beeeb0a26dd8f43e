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
//! Each node is scored by `kcrit`, the smallest `k` at which it would
//! *stop* being flagged (`+inf` when a deviating metric has zero
//! median-σ; lets k sweeps reuse one run), and the
//! [`judge`](crate::judge) flags it while `k < kcrit`. The judge holds the
//! confirmation over `consecutive` windows, reads its parameters (`k`,
//! default 3, the paper's choice; `consecutive`, default 3) and declares
//! the per-node outputs: `alarm<i>` (Bool) and `kcrit<i>` (Float).
//!
//! Inputs: one slot per rack, the `stats` frame `[k, 2·dim, per node: dim
//! means, then dim stddevs]` of one `mavgvec` over the rack collector's
//! `frame` rows; the slots' nodes, in slot order, are the compared nodes,
//! so their `k`s must add up to `nodes` ([`crate::rack::PeerFrames`]
//! lines them up). Its one other parameter, `nodes`, names every compared
//! node, comma-separated, in node order (required).

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, RunCtx, RunReason};

use crate::judge::{Verdicts, WB_K};
use crate::rack::{ColumnMedians, PeerFrames};

/// White-box peer-comparison fingerpointer.
#[derive(Debug, Default)]
pub struct AnalysisWb {
    /// Every node's means and stddevs of a second, from the slots' frames.
    frames: Option<PeerFrames>,
    verdicts: Option<Verdicts>,
    /// The medians of every mean, then of every stddev.
    medians: ColumnMedians,
}

impl AnalysisWb {
    /// Creates an unconfigured instance.
    pub fn new() -> Self {
        AnalysisWb::default()
    }
}

impl Module for AnalysisWb {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let (frames, origins) = PeerFrames::init(ctx, "analysis_wb")?;
        self.verdicts = Some(Verdicts::init(ctx, "k", WB_K, "kcrit", origins)?);
        self.frames = Some(frames);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let frames = self.frames.as_mut().expect("initialized");
        let verdicts = self.verdicts.as_mut().expect("initialized");
        for (slot, env) in &mut ctx.inputs {
            frames.push(slot, &env.sample)?;
        }

        while let Some((t, width, stats)) = frames.pop()? {
            if width % 2 != 0 {
                return Err(ModuleError::Other(format!(
                    "analysis_wb reads each node's means then stddevs, got a width of {width}"
                )));
            }
            let dim = width / 2;
            let (median_mean, median_sd) = self.medians.of(stats.iter(), width).split_at(dim);
            for (node, row) in stats.iter().enumerate() {
                // k_crit: the smallest k at which this node is NOT flagged.
                // Per metric: |diff| <= 1 never flags; σ_med = 0 with
                // |diff| > 1 always flags (k_crit = ∞); else flags while
                // k < |diff|/σ_med.
                let mut kcrit: f64 = 0.0;
                for m in 0..dim {
                    let diff = (row[m] - median_mean[m]).abs();
                    if diff <= 1.0 {
                        continue;
                    }
                    if median_sd[m] <= 1e-12 {
                        kcrit = f64::INFINITY;
                        break;
                    }
                    kcrit = kcrit.max(diff / median_sd[m]);
                }
                verdicts.emit(ctx, t, node, kcrit);
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
    use asdf_core::error::BuildDagError;
    use asdf_core::module::PortId;
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;

    /// Emits the `stats` frame a `mavgvec` over a one-node rack would,
    /// once per second. The `bias` parameter shifts the mean after `after`
    /// seconds; `sd` sets the reported deviation.
    struct WbSource {
        port: Option<PortId>,
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
            self.port = Some(ctx.declare_output_with_origin("stats", origin));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            let bias = if self.t > self.after { self.bias } else { 0.0 };
            // Two metrics: one live, one constant across the cluster, each
            // node's means then its stddevs.
            let stats = vec![1.0, 4.0, 10.0 + bias, 2.0, self.sd, 0.0];
            ctx.out.emit(self.port.unwrap(), stats);
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_analysis_modules(&mut reg);
        reg.register("wbsource", || {
            Box::new(WbSource {
                port: None,
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
input[r0] = n0.stats
input[r1] = n1.stats
input[r2] = n2.stats
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

    /// A `rowreplay` `r<id>`: `secs` seconds of the `stats` frames a
    /// `mavgvec` would emit over a rack holding the sources `nodes` of
    /// `config`.
    fn rack_stats(id: usize, nodes: std::ops::Range<usize>, bias: f64, after: u64) -> String {
        let width = nodes.len();
        let stats = |t: u64| {
            let culprit = if t > after { 10.0 + bias } else { 10.0 };
            let of_nodes = [10.0, 10.0, culprit].map(|m| format!("{m},2, 0.5,0"));
            format!("{width},4, {}", of_nodes[nodes.clone()].join(", "))
        };
        let frames: Vec<String> = (1..=40).map(stats).collect();
        format!("[rowreplay]\nid = r{id}\nrows = {}\n\n", frames.join("|"))
    }

    #[test]
    fn rack_wide_slots_read_exactly_as_per_node_slots() {
        let per_node = run(&config(5.0, 10, 3.0, 2), 40);
        assert!(alarms(&per_node, "alarm2").iter().any(|a| *a));
        let analysis = "[analysis_wb]\nid = wb\nk = 3\nconsecutive = 2\n\
                        nodes = peer0, peer1, culprit\ninput[r0] = r0.out\n";
        // The three nodes as one rack; and as a rack of two beside a rack
        // of one.
        let one_rack = format!("{}{analysis}", rack_stats(0, 0..3, 5.0, 10));
        let two_racks = format!(
            "{}{}{analysis}input[r1] = r1.out\n",
            rack_stats(0, 0..2, 5.0, 10),
            rack_stats(1, 2..3, 5.0, 10)
        );
        for cfg in [one_rack, two_racks] {
            assert!(run(&cfg, 40) == per_node, "{cfg}");
        }
    }

    #[test]
    fn a_mis_sized_or_malformed_rack_row_is_a_module_error_never_a_panic() {
        for (stats, says) in [
            (
                "2,4, 10,2,1,0, 10,2,1,0",
                "cover 2 nodes at t=0, expected 3",
            ),
            (
                "4,2, 1,1, 1,1, 1,1, 1,1",
                "cover 4 nodes at t=0, expected 3",
            ),
            ("3,4, 10,2,1,0, 10,2,1,0", "header says 3x4"),
            (
                "3,3, 1,1,1, 1,1,1, 1,1,1",
                "means then stddevs, got a width of 3",
            ),
            ("1.5,4, 10,2,1,0, 10,2,1,0", "bad rack row header"),
            ("nan,2, 1,1, 1,1, 1,1", "bad rack row header"),
            ("7", "rack row needs [k, dim"),
        ] {
            let cfg: Config = format!(
                "[rowreplay]\nid = m\nrows = {stats}\n\n\
                 [analysis_wb]\nid = wb\nnodes = a,b,c\ninput[r0] = m.out\n"
            )
            .parse()
            .unwrap();
            let mut eng = TickEngine::new(Dag::build(&registry(), &cfg).unwrap());
            let err = eng.run_for(TickDuration::from_secs(3)).unwrap_err();
            assert_eq!(err.instance, "wb", "{stats}");
            let ModuleError::Other(msg) = &err.source else {
                panic!("{stats}: {:?}", err.source);
            };
            assert!(msg.contains(says), "{stats}: {msg}");
        }
        // Fewer than three names; no slot at all.
        for analysis in ["nodes = a,b\ninput[r0] = m.out\n", "nodes = a,b,c\n"] {
            let cfg: Config =
                format!("[rowreplay]\nid = m\nrows = 1\n\n[analysis_wb]\nid = wb\n{analysis}")
                    .parse()
                    .unwrap();
            assert!(Dag::build(&registry(), &cfg).is_err(), "{analysis}");
        }
    }

    #[test]
    fn config_validation() {
        for (cfg, key) in [
            // a k that never or always alarms; zero confirmation
            (config(0.0, 0, f64::NAN, 1), "k"),
            (config(0.0, 0, -1.0, 1), "k"),
            (config(0.0, 0, 3.0, 0), "consecutive"),
        ] {
            let err = Dag::build(&registry(), &cfg.parse().unwrap()).unwrap_err();
            let BuildDagError::ModuleInit {
                source: ModuleError::InvalidParameter { key: got, .. },
                ..
            } = err
            else {
                panic!("{cfg}: {err}");
            };
            assert_eq!(got, key, "{cfg}");
        }
    }

    #[test]
    fn one_slot_per_rack_is_validated() {
        // Three racks of one node build; a fourth slot for three nodes
        // does not.
        let three = config(0.0, 0, 3.0, 1);
        let four = three.replace(
            "input[r2] = n2.stats\n",
            "input[r2] = n2.stats\ninput[r3] = n2.stats\n",
        );
        assert!(Dag::build(&registry(), &three.parse().unwrap()).is_ok());
        assert!(
            Dag::build(&registry(), &four.parse().unwrap()).is_err(),
            "should reject a slot beyond the nodes"
        );
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
