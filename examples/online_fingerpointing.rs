//! Online fingerpointing with the wall-clock engine.
//!
//! The paper's deployment: periodic collectors, analyses triggered as data
//! arrives, alarms raised while the monitored system runs. This example
//! builds the same DAG the deterministic experiments use and executes it
//! on [`asdf_core::online::OnlineEngine`] — the tick engine behind one
//! pacer thread (the paper spawns a thread per module instance; DESIGN.md
//! §1 records the deviation) — with compressed time (25 ms of wall time
//! per monitored second, so a 12-minute observation finishes in ~18 s of
//! wall time), and prints alarms as they are raised.
//!
//! Run with: `cargo run -p asdf-examples --bin online_fingerpointing --release`

use std::time::Duration;

use asdf::experiments::{self, CampaignConfig};
use asdf_core::dag::Dag;
use asdf_core::online::OnlineEngine;
use asdf_core::registry::ModuleRegistry;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

fn main() {
    let cfg = CampaignConfig {
        run_secs: 720,
        injection_at: 240,
        consecutive: 2,
        ..CampaignConfig::smoke()
    };
    println!("training workload model (offline, fault-free)...");
    let model = experiments::train_model(&cfg);

    // Build the fingerpointing DAG over a cluster with a fault scheduled.
    let fault = FaultSpec {
        node: cfg.fault_node,
        kind: FaultKind::Hadoop1036,
        start_at: cfg.injection_at,
    };
    let cluster = Cluster::new(ClusterConfig::new(cfg.slaves, 77), vec![fault]);
    let culprit_name = cluster.slave_name(cfg.fault_node).to_owned();
    let handle = ClusterHandle::new(cluster);
    let mut registry = ModuleRegistry::new();
    asdf_modules::register_all(&mut registry, handle.clone());

    let builder = asdf::pipeline::AsdfBuilder::new(asdf::pipeline::AsdfOptions {
        window: cfg.window,
        slide: cfg.window,
        bb_threshold: cfg.bb_threshold,
        wb_k: cfg.wb_k,
        consecutive: cfg.consecutive,
        black_box: true,
        white_box: true,
        metric_rank: false,
        rank_top: 5,
        racks: 0,
        ..asdf::pipeline::AsdfOptions::default()
    })
    .with_model(model);
    let config = builder.config(cfg.slaves);
    let dag = Dag::build(&registry, &config).expect("pipeline builds");

    println!(
        "starting online engine: {} module instances on one pacer thread, {}x compressed time",
        dag.len(),
        1000 / 25
    );
    let engine = OnlineEngine::builder(dag)
        .wall_per_tick(Duration::from_millis(25))
        .tap("bb")
        .tap("wb_tt")
        .tap("wb_dn")
        .start()
        .expect("engine starts");

    println!(
        "fault {} will hit {culprit_name} at t+{} s; watching alarms live...\n",
        FaultKind::Hadoop1036,
        cfg.injection_at
    );

    let mut alarmed: std::collections::HashSet<String> = std::collections::HashSet::new();
    while engine.now().as_secs() < cfg.run_secs {
        std::thread::sleep(Duration::from_millis(100));
        for tap_id in ["bb", "wb_tt", "wb_dn"] {
            let Some(tap) = engine.tap_handle(tap_id) else {
                continue;
            };
            for env in tap.drain() {
                if env.source.name.starts_with("alarm") && env.sample.value.as_bool() == Some(true)
                {
                    let key = format!("{tap_id}:{}", env.source.origin);
                    if alarmed.insert(key) {
                        println!(
                            "  [{}] {} fingerpoints {}",
                            env.sample.timestamp, tap_id, env.source.origin
                        );
                    }
                }
            }
        }
    }
    engine.stop().expect("clean shutdown");

    let verdict: Vec<&str> = alarmed
        .iter()
        .map(String::as_str)
        .filter(|k| k.ends_with(&culprit_name))
        .collect();
    println!(
        "\ndone: culprit {culprit_name} was fingerpointed by {} analysis path(s); \
         {} spurious node(s) alarmed",
        verdict.len(),
        alarmed
            .iter()
            .filter(|k| !k.ends_with(&culprit_name))
            .count()
    );
}
