//! The `mitigate` action module — the paper's second future-work item
//! (§5): "equip ASDF with the ability to actively mitigate the
//! consequences of a performance problem once it is detected."
//!
//! The module consumes alarm streams (any number of slots, typically
//! `input[a] = @bb` and `input[b] = @wb_tt`) and, when an alarm names a
//! node, decommissions that node: the jobtracker stops assigning work to
//! it, so its running attempts drain (or time out) and the cluster routes
//! around the problem — while monitoring of the node continues.
//!
//! Configuration parameters:
//!
//! * `max_actions` — safety valve: at most this many nodes may be
//!   decommissioned by this instance (default 1, so a misbehaving analysis
//!   cannot take down the cluster);
//! * `cooldown` — seconds to ignore further alarms after acting
//!   (default 300).
//!
//! Outputs: `action0` — a `Text` record of each mitigation taken.

use std::collections::HashSet;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::Timestamp;
use asdf_rpc::daemons::ClusterHandle;

/// Alarm-driven node decommissioner.
pub struct Mitigate {
    cluster: ClusterHandle,
    max_actions: usize,
    cooldown: u64,
    acted_on: HashSet<usize>,
    last_action_at: Option<Timestamp>,
    out: Option<PortId>,
}

impl Mitigate {
    /// Creates a mitigator bound to `cluster`.
    pub fn new(cluster: ClusterHandle) -> Self {
        Mitigate {
            cluster,
            max_actions: 1,
            cooldown: 300,
            acted_on: HashSet::new(),
            last_action_at: None,
            out: None,
        }
    }

    /// Node indices this instance has decommissioned.
    pub fn acted_on(&self) -> &HashSet<usize> {
        &self.acted_on
    }
}

impl Module for Mitigate {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.max_actions = ctx.parse_param_or("max_actions", 1usize)?;
        self.cooldown = ctx.parse_param_or("cooldown", 300u64)?;
        if ctx.input_slots().is_empty() {
            return Err(ModuleError::BadInputs(
                "mitigate needs at least one alarm input".into(),
            ));
        }
        self.out = Some(ctx.declare_output("action0"));
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        let port = self.out.expect("initialized");
        for (_, env) in &mut ctx.inputs {
            if env.sample.value.as_bool() != Some(true) {
                continue;
            }
            if self.acted_on.len() >= self.max_actions {
                continue;
            }
            if let Some(last) = self.last_action_at {
                if env.sample.timestamp.saturating_since(last).as_secs() < self.cooldown {
                    continue;
                }
            }
            let origin = env.source.origin.clone();
            let node = self.cluster.with(|c| c.node_index_of(&origin));
            let Some(node) = node else {
                return Err(ModuleError::Other(format!(
                    "alarm origin `{origin}` names no cluster node"
                )));
            };
            if self.acted_on.contains(&node) {
                continue;
            }
            self.cluster.with(|c| c.decommission(node));
            self.acted_on.insert(node);
            self.last_action_at = Some(env.sample.timestamp);
            ctx.out.emit(
                port,
                format!(
                    "[{}] decommissioned {origin} (alarm from {})",
                    env.sample.timestamp, env.source.instance
                ),
            );
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
    use hadoop_sim::cluster::{Cluster, ClusterConfig};

    /// Raises an alarm naming a configured node at a configured time.
    struct AlarmAt {
        port: Option<PortId>,
        at: u64,
        t: u64,
    }
    impl Module for AlarmAt {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            self.at = ctx.parse_param("at")?;
            let origin: String = ctx.require_param("origin")?.to_owned();
            self.port = Some(ctx.declare_output_with_origin("alarm0", origin));
            ctx.request_periodic(TickDuration::SECOND);
            Ok(())
        }
        fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            self.t += 1;
            ctx.out.emit(self.port.unwrap(), self.t > self.at);
            Ok(())
        }
    }

    fn setup(cfg_text: &str) -> (ClusterHandle, TickEngine) {
        let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(4, 3), Vec::new()));
        let mut reg = ModuleRegistry::new();
        crate::register_all(&mut reg, handle.clone());
        reg.register("alarm_at", || {
            Box::new(AlarmAt {
                port: None,
                at: 0,
                t: 0,
            })
        });
        let cfg: Config = cfg_text.parse().unwrap();
        let dag = Dag::build(&reg, &cfg).unwrap();
        (handle, TickEngine::new(dag))
    }

    #[test]
    fn alarm_triggers_decommission_of_the_named_node() {
        let (handle, mut eng) = setup(
            "\
[cluster_driver]
id = drv

[alarm_at]
id = det
at = 10
origin = slave02

[mitigate]
id = fix
input[a] = det.alarm0
",
        );
        let tap = eng.tap("fix").unwrap();
        eng.run_for(TickDuration::from_secs(20)).unwrap();
        assert!(handle.with(|c| c.is_decommissioned(2)));
        assert!(!handle.with(|c| c.is_decommissioned(0)));
        let actions = tap.drain();
        assert_eq!(actions.len(), 1, "exactly one action record");
        assert!(actions[0]
            .sample
            .value
            .as_text()
            .unwrap()
            .contains("decommissioned slave02"));
    }

    #[test]
    fn max_actions_caps_the_blast_radius() {
        let (handle, mut eng) = setup(
            "\
[cluster_driver]
id = drv

[alarm_at]
id = det1
at = 5
origin = slave01

[alarm_at]
id = det2
at = 8
origin = slave03

[mitigate]
id = fix
max_actions = 1
cooldown = 0
input[a] = det1.alarm0
input[b] = det2.alarm0
",
        );
        eng.run_for(TickDuration::from_secs(20)).unwrap();
        let decommissioned: Vec<bool> =
            handle.with(|c| (0..4).map(|i| c.is_decommissioned(i)).collect());
        assert_eq!(
            decommissioned.iter().filter(|&&d| d).count(),
            1,
            "only one node may be taken out: {decommissioned:?}"
        );
    }

    #[test]
    fn unknown_origin_is_a_runtime_error() {
        let (_, mut eng) = setup(
            "\
[cluster_driver]
id = drv

[alarm_at]
id = det
at = 2
origin = not-a-node

[mitigate]
id = fix
input[a] = det.alarm0
",
        );
        let err = eng.run_for(TickDuration::from_secs(10)).unwrap_err();
        assert_eq!(err.instance, "fix");
    }

    #[test]
    fn decommissioned_node_receives_no_new_tasks() {
        let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(4, 11), Vec::new()));
        handle.with(|c| {
            c.advance(120);
            c.decommission(1);
        });
        // Drain logs, run on, and verify no new launches on node 1.
        handle.with(|c| {
            let _ = c.drain_logs(1);
            c.advance(300);
            let (tt, _) = c.drain_logs(1);
            assert!(
                !tt.iter().any(|l| l.contains("LaunchTaskAction")),
                "no tasks may start on a decommissioned node"
            );
            // The cluster keeps making progress elsewhere.
            assert!(c.stats().maps_done > 0);
        });
    }
}
