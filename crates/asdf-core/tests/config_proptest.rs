//! Property-based tests for the configuration dialect and DAG construction.

use std::collections::HashMap;
use std::sync::Arc;

use asdf_core::config::{Config, Connection, InstanceConfig};
use asdf_core::dag::Dag;
use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use proptest::prelude::*;

/// Identifier strategy: the dialect treats ids as opaque tokens without
/// whitespace, brackets, dots, `@`, or `=`.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn param_value() -> impl Strategy<Value = String> {
    // No leading/trailing whitespace (trimmed by the parser), no newlines.
    "[a-zA-Z0-9_.:/ -]{0,16}".prop_map(|s| s.trim().to_owned())
}

prop_compose! {
    fn arb_instance(existing_n: usize)
        (ty in ident(),
         n_params in 0usize..4,
         keys in proptest::collection::hash_set("[a-z][a-z0-9_]{0,6}", 0..4),
         values in proptest::collection::vec(param_value(), 4),
         n_inputs in 0usize..3,
         slots in proptest::collection::hash_set("[a-z][a-z0-9]{0,4}", 0..3),
         upstream_sel in proptest::collection::vec((0usize..usize::MAX, any::<bool>(), 0usize..4), 3))
        -> (String, Vec<(String, String)>, Vec<(String, usize, bool, usize)>)
    {
        let params: Vec<(String, String)> = keys
            .into_iter()
            .filter(|k| k != "id" && !k.starts_with("input"))
            .take(n_params)
            .zip(values)
            .collect();
        let inputs: Vec<(String, usize, bool, usize)> = if existing_n == 0 {
            Vec::new()
        } else {
            slots
                .into_iter()
                .take(n_inputs)
                .zip(upstream_sel)
                .map(|(slot, (up, wildcard, port))| (slot, up % existing_n, wildcard, port % 3))
                .collect()
        };
        (ty, params, inputs)
    }
}

/// Builds a random but *valid* layered configuration: instance `i` may only
/// reference instances `< i`, so the graph is acyclic by construction.
fn arb_config() -> impl Strategy<Value = Config> {
    proptest::collection::vec(any::<u64>(), 1..8).prop_flat_map(|seeds| {
        let n = seeds.len();
        let mut strategies = Vec::new();
        for i in 0..n {
            strategies.push(arb_instance(i));
        }
        strategies.prop_map(move |instances| {
            let mut cfg = Config::new();
            for (i, (ty, params, inputs)) in instances.into_iter().enumerate() {
                let mut inst = InstanceConfig::new(ty, format!("inst{i}"));
                for (k, v) in params {
                    inst = inst.with_param(k, v);
                }
                for (slot, upstream, wildcard, port) in inputs {
                    if wildcard {
                        inst = inst.with_input_all(slot, format!("inst{upstream}"));
                    } else {
                        inst = inst.with_input(
                            slot,
                            format!("inst{upstream}"),
                            format!("output{port}"),
                        );
                    }
                }
                cfg.push(inst).expect("unique ids by construction");
            }
            cfg
        })
    })
}

proptest! {
    /// render() followed by parse() reproduces the configuration exactly.
    #[test]
    fn render_parse_round_trip(cfg in arb_config()) {
        let rendered = cfg.render();
        let reparsed: Config = rendered.parse().expect("rendered config must parse");
        prop_assert_eq!(cfg, reparsed);
    }

    /// Connection display/parse round-trips for both forms.
    #[test]
    fn connection_round_trip(inst in ident(), out in ident(), wildcard in any::<bool>()) {
        let conn = if wildcard {
            Connection::AllOutputs { instance: inst }
        } else {
            Connection::Port { instance: inst, output: out }
        };
        let reparsed: Connection = conn.to_string().parse().expect("round trip");
        prop_assert_eq!(conn, reparsed);
    }
}

/// The output names [`Universal`] declares on every instance.
const UNIVERSAL_OUTPUTS: [&str; 3] = ["output0", "output1", "output2"];

/// Permissive module used for DAG property tests: reads every parameter key
/// the configuration uses anywhere (a build fails on a parameter its module
/// never reads), accepts any inputs, declares three outputs.
struct Universal {
    keys: Arc<Vec<String>>,
}
impl Module for Universal {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        for key in self.keys.iter() {
            ctx.param(key);
        }
        for name in UNIVERSAL_OUTPUTS {
            ctx.declare_output(name);
        }
        Ok(())
    }
    fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
        Ok(())
    }
}

proptest! {
    /// Every layered (acyclic-by-construction) configuration builds, the
    /// DAG's topological order respects every edge, and every slot's
    /// sources and every port's routes equal a reference resolved by name:
    /// (producer id, port name) -> (consumer, slot) in consumer order, then
    /// slot order, then source order, wildcards expanded in port order.
    #[test]
    fn layered_configs_always_build_in_topo_order(cfg in arb_config()) {
        let keys: Arc<Vec<String>> = Arc::new(
            cfg.instances().iter().flat_map(|inst| inst.params.keys().cloned()).collect(),
        );
        let mut registry = ModuleRegistry::new();
        for inst in cfg.instances() {
            let keys = Arc::clone(&keys);
            registry.register(inst.module_type.clone(), move || {
                Box::new(Universal { keys: Arc::clone(&keys) })
            });
        }
        let dag = Dag::build(&registry, &cfg).expect("layered config must build");
        prop_assert_eq!(dag.len(), cfg.instances().len());

        // Topological property: every upstream of a node appears earlier.
        let order: Vec<&str> = dag.topo_ids();
        let pos = |id: &str| order.iter().position(|x| *x == id).unwrap();
        for inst in cfg.instances() {
            for (_, conn) in &inst.inputs {
                prop_assert!(pos(conn.instance()) < pos(&inst.id),
                    "edge {} -> {} violates topo order", conn.instance(), inst.id);
            }
        }

        // The reference wiring, by name.
        let mut routes: HashMap<(String, String), Vec<(usize, usize)>> = HashMap::new();
        for (consumer, node) in dag.iter().enumerate() {
            let inst = cfg.instance(&node.id).unwrap();
            prop_assert_eq!(node.slots.len(), inst.inputs.len());
            for (slot_idx, ((slot, conn), spec)) in inst.inputs.iter().zip(&node.slots).enumerate() {
                let ports: Vec<&str> = match conn {
                    Connection::Port { output, .. } => vec![output.as_str()],
                    Connection::AllOutputs { .. } => UNIVERSAL_OUTPUTS.to_vec(),
                };
                let expected: Vec<(String, String)> = ports
                    .iter()
                    .map(|port| (conn.instance().to_owned(), (*port).to_owned()))
                    .collect();
                let got: Vec<(String, String)> = spec
                    .sources
                    .iter()
                    .map(|meta| (meta.instance.clone(), meta.name.clone()))
                    .collect();
                prop_assert_eq!(&spec.name, slot);
                prop_assert_eq!(&got, &expected);
                for key in expected {
                    routes.entry(key).or_default().push((consumer, slot_idx));
                }
            }
        }
        for node in dag.iter() {
            prop_assert_eq!(node.routes.len(), node.outputs.len());
            for (port, meta) in node.outputs.iter().enumerate() {
                let expected = routes
                    .remove(&(node.id.clone(), meta.name.clone()))
                    .unwrap_or_default();
                prop_assert_eq!(&node.routes[port], &expected, "routes of {}", meta);
            }
        }
        prop_assert!(routes.is_empty(), "sources with no producing port: {:?}", routes);
    }
}
