//! Extending ASDF with a custom analysis module.
//!
//! The paper's core claim is pluggability: "ASDF's support for pluggable
//! algorithms can accelerate testing and deployment of new analysis
//! algorithms." This example adds a module type the framework has never
//! seen — a per-node EWMA spike detector over one black-box metric — wires
//! it into a pipeline *written in the paper's own configuration dialect*,
//! and runs it against the simulated cluster.
//!
//! Run with: `cargo run -p asdf-examples --bin custom_module --release`

use asdf_core::config::Config;
use asdf_core::dag::Dag;
use asdf_core::engine::TickEngine;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use procsim::metrics::node_idx;

/// A custom analysis module: flags samples where one metric exceeds its
/// own exponentially-weighted moving average by a configurable factor.
///
/// Parameters: `metric` (index into the node's sadc vector), `alpha` (EWMA
/// weight, default 0.05), `factor` (spike multiplier, default 3). A key
/// `init` never looks up (say, a misspelt `alhpa`) fails the DAG build.
struct EwmaSpike {
    metric: usize,
    alpha: f64,
    factor: f64,
    ewma: Option<f64>,
    alarm: Option<PortId>,
}

impl EwmaSpike {
    fn new() -> Self {
        EwmaSpike {
            metric: 0,
            alpha: 0.05,
            factor: 3.0,
            ewma: None,
            alarm: None,
        }
    }
}

impl Module for EwmaSpike {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.metric = ctx.parse_param("metric")?;
        self.alpha = ctx.parse_param_or("alpha", 0.05)?;
        self.factor = ctx.parse_param_or("factor", 3.0)?;
        ctx.expect_input_count(1)?;
        let origin = ctx.input_slots()[0].1[0].origin.clone();
        self.alarm = Some(ctx.declare_output_with_origin("alarm0", origin));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        // `ctx.inputs` drains the queued frames; `ctx.out` emits while the
        // drain is live (the two fields borrow separately).
        for (_, env) in &mut ctx.inputs {
            // A one-node `sadc` frame, `[1, dim, row…]`: its one row.
            let Some(row) = env.sample.value.as_vector().and_then(|v| v.get(2..)) else {
                continue;
            };
            let x = *row.get(self.metric).ok_or_else(|| {
                ModuleError::Other(format!("metric index {} out of range", self.metric))
            })?;
            let baseline = *self.ewma.get_or_insert(x.max(1.0));
            let spike = x > self.factor * baseline && baseline > 1.0;
            self.ewma = Some(baseline + self.alpha * (x - baseline));
            ctx.out.emit(self.alarm.unwrap(), spike);
        }
        Ok(())
    }
}

fn main() {
    // A cluster with a disk hog arriving at t=120 on node 2.
    let fault = FaultSpec {
        node: 2,
        kind: FaultKind::DiskHog,
        start_at: 120,
    };
    let cluster = Cluster::new(ClusterConfig::new(4, 9), vec![fault]);
    let handle = ClusterHandle::new(cluster);

    // Register the stock modules plus our new type — that is the entire
    // integration surface.
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());
    registry.register("ewma_spike", || Box::new(EwmaSpike::new()));

    // The pipeline, in the paper's configuration dialect (Figure 3 style).
    let config_text = format!(
        "\
# Watch disk write sectors (bwrtn/s) on node 2 with the custom module.
[cluster_driver]
id = drv

[sadc]
id = sadc2
nodes = 2..3
input[clock] = drv.tick

[ewma_spike]
id = spike2
metric = {bwrtn}
factor = 4
input[input] = sadc2.frame

[print]
id = DiskAlarm
input[a] = spike2.alarm0
",
        bwrtn = node_idx::BWRTN
    );
    println!("fpt-core configuration:\n{config_text}");
    let config: Config = config_text.parse().expect("config parses");
    let dag = Dag::build(&registry, &config).expect("DAG builds");
    println!("DAG:\n{}", dag.describe());

    let mut engine = TickEngine::new(dag);
    let tap = engine.tap("spike2").expect("tap");
    engine
        .run_for(TickDuration::from_secs(360))
        .expect("pipeline runs");

    let alarms: Vec<u64> = tap
        .drain()
        .into_iter()
        .filter(|e| e.sample.value.as_bool() == Some(true))
        .map(|e| e.sample.timestamp.as_secs())
        .collect();
    match alarms.first() {
        Some(first) => println!(
            "custom module flagged the disk hog {} s after injection ({} spike samples total)",
            first.saturating_sub(120),
            alarms.len()
        ),
        None => println!("no spikes flagged (unexpected — the hog writes 20 GB)"),
    }
    assert!(
        alarms.iter().any(|&t| t >= 120),
        "the disk hog should trip the spike detector"
    );
}
