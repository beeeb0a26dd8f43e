//! Property test: one `knn` over a rack's frames answers, in a frame
//! `[n, 1, indices…]`, exactly what the model's classifier answers for each
//! of the frames' node rows — at any rack size, vector width and burst, on
//! any values a counter can arrive as (NaN, infinities and negatives
//! included).

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_modules::kernel::CentroidBlock;
use asdf_modules::training::BlackBoxModel;
use proptest::prelude::*;

/// A rack collector's port: `burst` seconds' worth of rows per tick, each
/// second as one `frame` row `[n, dim, node rows…]`.
struct Rack {
    /// `seconds[s][node]` is that node's vector.
    seconds: Vec<Vec<Vec<f64>>>,
    burst: usize,
    at: usize,
    frame: Option<PortId>,
}

impl Module for Rack {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.frame = Some(ctx.declare_output("frame"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        for second in self.seconds.iter().skip(self.at).take(self.burst) {
            let mut frame = vec![second.len() as f64, second[0].len() as f64];
            for row in second {
                frame.extend_from_slice(row);
            }
            ctx.out.emit(self.frame.unwrap(), frame);
        }
        self.at += self.burst;
        Ok(())
    }
}

/// What a counter can arrive as off the wire: mostly a magnitude, now and
/// then a negative, a zero, a NaN or an infinity.
fn counter() -> impl Strategy<Value = f64> {
    (0u8..11, 0.0f64..5_000.0).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -x / 100.0,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_knn_over_frames_equals_one_knn_per_node(
        (n, dim, seconds) in (1usize..6, 1usize..7, 1usize..9).prop_flat_map(|(n, dim, secs)| {
            let second = proptest::collection::vec(proptest::collection::vec(counter(), dim), n);
            (n..n + 1, dim..dim + 1, proptest::collection::vec(second, secs))
        }),
        centroids in proptest::collection::vec(proptest::collection::vec(0.0f64..9.0, 6), 1..5),
        stddev in proptest::collection::vec(0.1f64..3.0, 6),
        burst in 1usize..4,
    ) {
        let model = BlackBoxModel {
            stddev: stddev[..dim].to_vec(),
            centroids: CentroidBlock::from_rows(
                &centroids.iter().map(|c| c[..dim].to_vec()).collect::<Vec<_>>(),
            ),
        };
        let cfg = format!(
            "[rack]\nid = src\n\n[knn]\nid = rack\ncentroids = {}\nstddev = {}\ninput[input] = src.frame\n",
            model.centroids_param(),
            model.stddev_param()
        );
        let cfg: Config = cfg.parse().expect("parses");

        let mut reg = ModuleRegistry::new();
        asdf_modules::register_analysis_modules(&mut reg);
        let data = seconds.clone();
        reg.register("rack", move || {
            Box::new(Rack {
                seconds: data.clone(),
                burst,
                at: 0,
                frame: None,
            })
        });
        let mut engine = TickEngine::new(Dag::build(&reg, &cfg).expect("builds"));
        let rack = engine.tap("rack").unwrap();
        engine
            .run_for(TickDuration::from_secs(seconds.len() as u64 + 1))
            .expect("runs");

        let mut classifier = model.into_classifier();
        let rows = rack.drain();
        prop_assert_eq!(rows.len(), seconds.len());
        for (s, (env, second)) in rows.iter().zip(&seconds).enumerate() {
            let got = env.sample.value.as_vector().expect("a frame is answered with a frame");
            prop_assert_eq!(got.len(), 2 + n, "one index a node");
            prop_assert_eq!(&got[..2], &[n as f64, 1.0][..], "[n, 1, indices…]");
            let want: Vec<f64> = second.iter().map(|row| classifier.classify(row) as f64).collect();
            prop_assert_eq!(&got[2..], &want[..], "second {}", s);
            prop_assert_eq!(env.sample.timestamp.as_secs(), (s / burst) as u64);
        }
    }
}
