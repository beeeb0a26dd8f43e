//! Property test: `mavgvec`'s windowed statistics match a direct
//! computation for arbitrary input streams and window geometry, laid out
//! per node in its `stats` frame.

use asdf_core::config::{Config, InstanceConfig};
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use proptest::prelude::*;

/// Replays a fixed sequence of vectors, one per second, each as the frame
/// of a rack of `NODES` nodes.
struct Replay {
    data: Vec<Vec<f64>>,
    idx: usize,
    port: Option<PortId>,
}

impl Module for Replay {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.port = Some(ctx.declare_output("out"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }
    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        if self.idx < self.data.len() {
            let mut frame = vec![NODES as f64, (DIM / NODES) as f64];
            frame.extend_from_slice(&self.data[self.idx]);
            ctx.out.emit(self.port.unwrap(), frame);
            self.idx += 1;
        }
        Ok(())
    }
}

/// Components a second, split evenly over the rack's nodes.
const DIM: usize = 6;
const NODES: usize = 2;

fn expected_windows(data: &[Vec<f64>], window: usize, slide: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut out = Vec::new();
    let mut since = 0;
    for end in 0..data.len() {
        since += 1;
        if end + 1 >= window && since >= slide {
            since = 0;
            let win = &data[end + 1 - window..=end];
            let dim = win[0].len();
            let n = window as f64;
            let mut mean = vec![0.0; dim];
            for v in win {
                for (m, x) in mean.iter_mut().zip(v) {
                    *m += x;
                }
            }
            for m in &mut mean {
                *m /= n;
            }
            let mut sd = vec![0.0; dim];
            for v in win {
                for ((s, m), x) in sd.iter_mut().zip(&mean).zip(v) {
                    let d = x - m;
                    *s += d * d;
                }
            }
            for s in &mut sd {
                *s = (*s / n).sqrt();
            }
            out.push((mean, sd));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_stats_match_direct_computation(
        data in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, DIM),
            4..40,
        ),
        window in 1usize..8,
        slide in 1usize..8,
    ) {
        let data_clone = data.clone();
        let mut reg = ModuleRegistry::new();
        asdf_modules::register_analysis_modules(&mut reg);
        reg.register("replay", move || {
            Box::new(Replay {
                data: data_clone.clone(),
                idx: 0,
                port: None,
            })
        });
        let mut cfg = Config::new();
        cfg.push(InstanceConfig::new("replay", "src")).unwrap();
        cfg.push(
            InstanceConfig::new("mavgvec", "avg")
                .with_param("window", window)
                .with_param("slide", slide)
                .with_input("input", "src", "out"),
        )
        .unwrap();
        let dag = Dag::build(&reg, &cfg).expect("builds");
        let mut engine = TickEngine::new(dag);
        let tap = engine.tap("avg").unwrap();
        engine
            .run_for(TickDuration::from_secs(data.len() as u64))
            .expect("runs");

        // Each node's means, then its stddevs, under `[NODES, 2·dim]`.
        let per_node = DIM / NODES;
        let mut got_means = Vec::new();
        let mut got_sds = Vec::new();
        for e in tap.drain() {
            prop_assert_eq!(e.source.name.as_str(), "stats");
            let stats = e.sample.value.as_vector().unwrap();
            prop_assert_eq!(&stats[..2], &[NODES as f64, (2 * per_node) as f64][..]);
            let nodes = stats[2..].chunks_exact(2 * per_node);
            got_means.push(nodes.clone().flat_map(|n| n[..per_node].to_vec()).collect::<Vec<f64>>());
            got_sds.push(nodes.flat_map(|n| n[per_node..].to_vec()).collect::<Vec<f64>>());
        }

        let expected = expected_windows(&data, window, slide);
        prop_assert_eq!(got_means.len(), expected.len(), "window count");
        prop_assert_eq!(got_sds.len(), expected.len());
        for ((gm, gs), (em, es)) in got_means.iter().zip(&got_sds).zip(&expected) {
            prop_assert_eq!((gm.len(), gs.len()), (DIM, DIM));
            for (a, b) in gm.iter().zip(em) {
                prop_assert!((a - b).abs() < 1e-9, "mean {a} vs {b}");
            }
            for (a, b) in gs.iter().zip(es) {
                prop_assert!((a - b).abs() < 1e-9, "stddev {a} vs {b}");
            }
        }
    }
}
