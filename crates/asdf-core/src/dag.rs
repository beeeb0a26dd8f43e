//! DAG construction from a parsed configuration (§3.3 of the paper).
//!
//! `fpt-core` models the flow of data between modules as a directed acyclic
//! graph: module instances are vertices, and edges carry samples from output
//! ports to input slots. Construction follows the paper's worklist
//! algorithm:
//!
//! 1. assign a vertex to each configured module instance;
//! 2. annotate each vertex with its unsatisfied upstream dependencies and
//!    queue the fully-satisfied ones (output-only modules);
//! 3. initialize queued instances — `init()` verifies parameters/inputs and
//!    *declares outputs*, which may satisfy other instances' inputs, which
//!    are then queued in turn;
//! 4. repeat until every instance is initialized; if construction stalls
//!    (a cycle, or a reference to an output nobody produces), fail.
//!
//! The resulting [`Dag`] stores instances in initialization order, which is
//! a topological order — the deterministic tick engine exploits this to
//! process each tick in a single sweep.

use std::collections::HashMap;
use std::sync::Arc;

use crate::config::{Config, Connection};
use crate::error::{BuildDagError, ModuleError};
use crate::module::{InitCtx, Module, OutputMeta, ScheduleSpec};
use crate::registry::ModuleRegistry;

/// One wired input slot of an instantiated module: its name and the upstream
/// output ports feeding it.
#[derive(Debug, Clone)]
pub struct SlotSpec {
    /// The slot name (the `x` of `input[x] = ...`).
    pub name: String,
    /// The upstream ports connected to this slot, in resolution order.
    pub sources: Vec<Arc<OutputMeta>>,
}

/// A fully initialized module instance: a vertex of the [`Dag`].
pub struct DagNode {
    /// Instance id.
    pub id: String,
    /// Module type (configuration section name).
    pub module_type: String,
    /// The module itself, already initialized.
    pub module: Box<dyn Module>,
    /// Output ports declared during `init()`, in declaration order.
    pub outputs: Vec<Arc<OutputMeta>>,
    /// Wired input slots, in configuration order.
    pub slots: Vec<SlotSpec>,
    /// Scheduling the module requested during `init()`.
    pub schedule: ScheduleSpec,
    /// Routing table: for each output port (by index), the downstream
    /// `(node index, slot index)` pairs it feeds.
    pub routes: Vec<Vec<(usize, usize)>>,
}

impl std::fmt::Debug for DagNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagNode")
            .field("id", &self.id)
            .field("module_type", &self.module_type)
            .field("outputs", &self.outputs.len())
            .field("slots", &self.slots.len())
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

/// The constructed module graph, ready to be executed by an engine.
///
/// # Examples
///
/// Building the graph for a trivial two-module pipeline:
///
/// ```
/// use asdf_core::config::Config;
/// use asdf_core::dag::Dag;
/// use asdf_core::registry::ModuleRegistry;
/// use asdf_core::module::{InitCtx, Module, RunCtx, RunReason, PortId};
/// use asdf_core::error::ModuleError;
/// use asdf_core::time::TickDuration;
///
/// struct Src(Option<PortId>);
/// impl Module for Src {
///     fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
///         self.0 = Some(ctx.declare_output("out"));
///         ctx.request_periodic(TickDuration::SECOND);
///         Ok(())
///     }
///     fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
///         ctx.out.emit(self.0.unwrap(), 1.0);
///         Ok(())
///     }
/// }
/// struct Sink;
/// impl Module for Sink {
///     fn init(&mut self, _: &mut InitCtx<'_>) -> Result<(), ModuleError> { Ok(()) }
///     fn run(&mut self, ctx: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
///         ctx.inputs.by_ref().for_each(drop);
///         Ok(())
///     }
/// }
///
/// let mut reg = ModuleRegistry::new();
/// reg.register("src", || Box::new(Src(None)));
/// reg.register("sink", || Box::new(Sink));
/// let cfg: Config = "[src]\nid = s\n\n[sink]\nid = k\ninput[i] = s.out\n".parse()?;
/// let dag = Dag::build(&reg, &cfg)?;
/// assert_eq!(dag.len(), 2);
/// assert_eq!(dag.topo_ids(), ["s", "k"]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Dag {
    pub(crate) nodes: Vec<DagNode>,
    pub(crate) by_id: HashMap<String, usize>,
}

impl std::fmt::Debug for Dag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dag").field("nodes", &self.nodes).finish()
    }
}

impl Dag {
    /// Constructs and initializes the module graph described by `config`,
    /// creating instances via `registry`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildDagError`] when a module type is unregistered, a
    /// connection references a missing instance or output, a wildcard
    /// connects to an output-less instance, a module's `init()` fails, or
    /// construction stalls on a dependency cycle.
    pub fn build(registry: &ModuleRegistry, config: &Config) -> Result<Dag, BuildDagError> {
        let instances = config.instances();
        let mut id_to_cfg: HashMap<&str, usize> = HashMap::new();
        for (idx, inst) in instances.iter().enumerate() {
            id_to_cfg.insert(inst.id.as_str(), idx);
        }

        // Eager validation: types registered, referenced instances exist.
        // Modules are created up front — a registry miss surfaces as the
        // registry's own error (which lists the registered types),
        // propagated rather than re-derived here — and handed to the
        // worklist below for initialization.
        let mut created: Vec<Option<Box<dyn Module>>> = Vec::with_capacity(instances.len());
        for inst in instances {
            let module = registry.create(&inst.module_type).map_err(|source| {
                BuildDagError::UnknownModuleType {
                    instance: inst.id.clone(),
                    source,
                }
            })?;
            created.push(Some(module));
            for (slot, conn) in &inst.inputs {
                if !id_to_cfg.contains_key(conn.instance()) {
                    return Err(BuildDagError::UnknownInstance {
                        instance: inst.id.clone(),
                        input: slot.clone(),
                        upstream: conn.instance().to_owned(),
                    });
                }
            }
        }

        // Worklist initialization in dependency order. Each pass walks the
        // instances in configuration order and initializes every one whose
        // upstreams are all done; `node_of[i]` is instance `i`'s node index
        // (its position in initialization order) once it is done. A node is
        // assembled as soon as it is initialized, and each of its sources is
        // recorded as (producer node, port, consumer node, slot), in node,
        // then slot, then source order: the order the route lists keep.
        let n = instances.len();
        let deps: Vec<Vec<usize>> = instances
            .iter()
            .map(|inst| {
                inst.inputs
                    .iter()
                    .map(|(_, conn)| id_to_cfg[conn.instance()])
                    .collect()
            })
            .collect();
        let mut node_of: Vec<Option<usize>> = vec![None; n];
        let mut nodes: Vec<DagNode> = Vec::with_capacity(n);
        let mut edges: Vec<(usize, usize, usize, usize)> = Vec::new();

        while nodes.len() < n {
            let before = nodes.len();
            for (cfg_idx, inst) in instances.iter().enumerate() {
                if node_of[cfg_idx].is_some() || deps[cfg_idx].iter().any(|&d| node_of[d].is_none())
                {
                    continue;
                }

                // Resolve this instance's inputs against upstream outputs,
                // recording each source's producer as (node, port).
                let node_idx = nodes.len();
                let mut resolved: Vec<(String, Vec<Arc<OutputMeta>>)> =
                    Vec::with_capacity(inst.inputs.len());
                for (slot_idx, (slot, conn)) in inst.inputs.iter().enumerate() {
                    let up = node_of[id_to_cfg[conn.instance()]].expect("upstream initialized");
                    let outputs = &nodes[up].outputs;
                    let ports = match conn {
                        Connection::Port { output, .. } => {
                            let Some(port) = outputs.iter().position(|m| m.name == *output) else {
                                return Err(BuildDagError::UnknownOutput {
                                    instance: inst.id.clone(),
                                    input: slot.clone(),
                                    upstream: conn.instance().to_owned(),
                                    output: output.clone(),
                                });
                            };
                            port..port + 1
                        }
                        Connection::AllOutputs { .. } => {
                            if outputs.is_empty() {
                                return Err(BuildDagError::EmptyWildcard {
                                    instance: inst.id.clone(),
                                    input: slot.clone(),
                                    upstream: conn.instance().to_owned(),
                                });
                            }
                            0..outputs.len()
                        }
                    };
                    edges.extend(ports.clone().map(|port| (up, port, node_idx, slot_idx)));
                    resolved.push((slot.clone(), outputs[ports].to_vec()));
                }

                // Initialize the module created during eager validation.
                let mut module = created[cfg_idx]
                    .take()
                    .expect("each instance is created once and initialized once");
                let mut outputs: Vec<Arc<OutputMeta>> = Vec::new();
                let mut schedule = ScheduleSpec::default();
                let init_err = |source| BuildDagError::ModuleInit {
                    instance: inst.id.clone(),
                    source,
                };
                {
                    let mut ctx = InitCtx::new(inst, &resolved, &mut outputs, &mut schedule);
                    module.init(&mut ctx).map_err(init_err)?;
                    if let Some(key) = ctx.unread_param() {
                        return Err(init_err(ModuleError::invalid_parameter(
                            key,
                            format!("not a parameter of `{}`", inst.module_type),
                        )));
                    }
                }

                nodes.push(DagNode {
                    id: inst.id.clone(),
                    module_type: inst.module_type.clone(),
                    module,
                    routes: vec![Vec::new(); outputs.len()],
                    outputs,
                    slots: resolved
                        .into_iter()
                        .map(|(name, sources)| SlotSpec { name, sources })
                        .collect(),
                    schedule,
                });
                node_of[cfg_idx] = Some(node_idx);
            }
            if nodes.len() == before {
                let stalled = instances
                    .iter()
                    .zip(&node_of)
                    .filter(|(_, node)| node.is_none())
                    .map(|(inst, _)| inst.id.clone())
                    .collect();
                return Err(BuildDagError::UnsatisfiedInputs { instances: stalled });
            }
        }

        // The route lists are filled once every module is initialized, so
        // they sit together on the heap rather than among the modules' own
        // allocations: every tick walks them, and filled during the
        // worklist they cost `fleet5000_rank` 7-12% more wall time per
        // monitored second in same-session pairs on 2 vCPU.
        for (up, port, node, slot) in edges {
            nodes[up].routes[port].push((node, slot));
        }
        let by_id = nodes
            .iter()
            .enumerate()
            .map(|(idx, node)| (node.id.clone(), idx))
            .collect();
        Ok(Dag { nodes, by_id })
    }

    /// Number of instances in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no instances.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Instance ids in topological (initialization) order.
    pub fn topo_ids(&self) -> Vec<&str> {
        self.nodes.iter().map(|n| n.id.as_str()).collect()
    }

    /// Looks up a node by instance id.
    pub fn node(&self, id: &str) -> Option<&DagNode> {
        self.by_id.get(id).map(|&i| &self.nodes[i])
    }

    /// The node index of an instance id, if present.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.by_id.get(id).copied()
    }

    /// Iterates over the nodes in topological order.
    pub fn iter(&self) -> impl Iterator<Item = &DagNode> {
        self.nodes.iter()
    }

    /// Renders the graph structure as a human-readable listing, one line per
    /// edge — useful for debugging configurations.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for node in &self.nodes {
            let _ = writeln!(
                out,
                "{} ({}) outputs={} schedule={:?}",
                node.id,
                node.module_type,
                node.outputs.len(),
                node.schedule
            );
            for (port_idx, targets) in node.routes.iter().enumerate() {
                for &(dst, slot) in targets {
                    let _ = writeln!(
                        out,
                        "  {}.{} -> {}[{}]",
                        node.id,
                        node.outputs[port_idx].name,
                        self.nodes[dst].id,
                        self.nodes[dst].slots[slot].name
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModuleError;
    use crate::module::{PortId, RunCtx, RunReason};
    use crate::time::TickDuration;

    /// Test module: declares `outputs` named output ports, accepts anything.
    struct Fan {
        n_outputs: usize,
        ports: Vec<PortId>,
    }

    impl Fan {
        fn new(n: usize) -> Self {
            Fan {
                n_outputs: n,
                ports: Vec::new(),
            }
        }
    }

    impl Module for Fan {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            for i in 0..self.n_outputs {
                let p = ctx.declare_output(format!("output{i}"));
                self.ports.push(p);
            }
            if self.n_outputs > 0 {
                ctx.request_periodic(TickDuration::SECOND);
            }
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            Ok(())
        }
    }

    struct FailInit;
    impl Module for FailInit {
        fn init(&mut self, _: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            Err(ModuleError::MissingParameter("required".into()))
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            Ok(())
        }
    }

    /// Test module: reads the optional `threshold` parameter.
    struct Thresholded;
    impl Module for Thresholded {
        fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
            ctx.parse_param_or("threshold", 1.0f64)?;
            Ok(())
        }
        fn run(&mut self, _: &mut RunCtx<'_>, _: RunReason) -> Result<(), ModuleError> {
            Ok(())
        }
    }

    fn registry() -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        reg.register("src2", || Box::new(Fan::new(2)));
        reg.register("src0", || Box::new(Fan::new(0)));
        reg.register("sink", || Box::new(Fan::new(0)));
        reg.register("relay", || Box::new(Fan::new(1)));
        reg.register("failinit", || Box::new(FailInit));
        reg.register("thresholded", || Box::new(Thresholded));
        reg
    }

    #[test]
    fn builds_in_topological_order_regardless_of_file_order() {
        // Sink listed first; DAG construction must still succeed.
        let cfg: Config = "\
[sink]
id = k
input[a] = r.output0

[relay]
id = r
input[x] = s.output1

[src2]
id = s
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(), &cfg).unwrap();
        assert_eq!(dag.topo_ids(), ["s", "r", "k"]);
        // Edge s.output1 -> r, r.output0 -> k.
        let s = dag.node("s").unwrap();
        assert_eq!(s.routes[1], vec![(1, 0)]);
        assert_eq!(s.routes[0], Vec::<(usize, usize)>::new());
        let r = dag.node("r").unwrap();
        assert_eq!(r.routes[0], vec![(2, 0)]);
    }

    #[test]
    fn wildcard_connects_all_outputs() {
        let cfg: Config = "[src2]\nid = s\n\n[sink]\nid = k\ninput[a] = @s\n"
            .parse()
            .unwrap();
        let dag = Dag::build(&registry(), &cfg).unwrap();
        let k = dag.node("k").unwrap();
        assert_eq!(k.slots[0].sources.len(), 2);
        let s = dag.node("s").unwrap();
        assert_eq!(s.routes[0], vec![(1, 0)]);
        assert_eq!(s.routes[1], vec![(1, 0)]);
    }

    #[test]
    fn unknown_module_type_is_reported() {
        let cfg: Config = "[nope]\nid = x\n".parse().unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        assert!(matches!(err, BuildDagError::UnknownModuleType { .. }));
    }

    #[test]
    fn unknown_instance_reference_is_reported() {
        let cfg: Config = "[sink]\nid = k\ninput[a] = ghost.output0\n"
            .parse()
            .unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        assert!(
            matches!(err, BuildDagError::UnknownInstance { ref upstream, .. } if upstream == "ghost")
        );
    }

    #[test]
    fn unknown_output_port_is_reported() {
        let cfg: Config = "[src2]\nid = s\n\n[sink]\nid = k\ninput[a] = s.output9\n"
            .parse()
            .unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        assert!(
            matches!(err, BuildDagError::UnknownOutput { ref output, .. } if output == "output9")
        );
    }

    #[test]
    fn wildcard_on_outputless_instance_is_reported() {
        let cfg: Config = "[src0]\nid = s\n\n[sink]\nid = k\ninput[a] = @s\n"
            .parse()
            .unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        assert!(matches!(err, BuildDagError::EmptyWildcard { .. }));
    }

    #[test]
    fn dependency_cycle_stalls_construction() {
        let mut reg = registry();
        reg.register("loopy", || Box::new(Fan::new(1)));
        let cfg: Config = "\
[loopy]
id = a
input[x] = b.output0

[loopy]
id = b
input[x] = a.output0
"
        .parse()
        .unwrap();
        let err = Dag::build(&reg, &cfg).unwrap_err();
        let BuildDagError::UnsatisfiedInputs { instances } = err else {
            panic!("expected UnsatisfiedInputs, got {err:?}");
        };
        assert_eq!(instances, ["a", "b"]);
    }

    #[test]
    fn self_loop_stalls_construction() {
        let mut reg = registry();
        reg.register("loopy", || Box::new(Fan::new(1)));
        let cfg: Config = "[loopy]\nid = a\ninput[x] = a.output0\n".parse().unwrap();
        let err = Dag::build(&reg, &cfg).unwrap_err();
        assert!(matches!(err, BuildDagError::UnsatisfiedInputs { .. }));
    }

    #[test]
    fn module_init_failure_is_attributed() {
        let cfg: Config = "[failinit]\nid = f\n".parse().unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        assert!(matches!(err, BuildDagError::ModuleInit { ref instance, .. } if instance == "f"));
    }

    #[test]
    fn unread_parameter_fails_the_build() {
        for ok in [
            "[thresholded]\nid = j\n",
            "[thresholded]\nid = j\nthreshold = 2\n",
        ] {
            let cfg: Config = ok.parse().unwrap();
            Dag::build(&registry(), &cfg).unwrap();
        }
        // A misspelt key is never looked up; the first unread key in name
        // order is named.
        let cfg: Config = "[thresholded]\nid = j\nthreshold = 2\nzeta = 1\ntreshold = 0.5\n"
            .parse()
            .unwrap();
        let err = Dag::build(&registry(), &cfg).unwrap_err();
        let BuildDagError::ModuleInit { instance, source } = &err else {
            panic!("expected ModuleInit, got {err:?}");
        };
        assert_eq!(instance, "j");
        assert!(
            matches!(source, ModuleError::InvalidParameter { key, .. } if key == "treshold"),
            "{source:?}"
        );
        assert!(err.to_string().contains("treshold"), "{err}");
    }

    #[test]
    fn describe_renders_edges() {
        let cfg: Config = "[src2]\nid = s\n\n[sink]\nid = k\ninput[a] = @s\n"
            .parse()
            .unwrap();
        let dag = Dag::build(&registry(), &cfg).unwrap();
        let text = dag.describe();
        assert!(text.contains("s.output0 -> k[a]"));
        assert!(text.contains("s.output1 -> k[a]"));
    }

    #[test]
    fn diamond_topology_routes_correctly() {
        let cfg: Config = "\
[src2]
id = s

[relay]
id = left
input[x] = s.output0

[relay]
id = right
input[x] = s.output1

[sink]
id = k
input[l] = left.output0
input[r] = right.output0
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(), &cfg).unwrap();
        assert_eq!(dag.len(), 4);
        let k = dag.node("k").unwrap();
        assert_eq!(k.slots.len(), 2);
        assert_eq!(k.slots[0].name, "l");
        assert_eq!(k.slots[1].name, "r");
        // Both relays route into distinct slots of k.
        let left = dag.node("left").unwrap();
        let right = dag.node("right").unwrap();
        let k_idx = dag.index_of("k").unwrap();
        assert_eq!(left.routes[0], vec![(k_idx, 0)]);
        assert_eq!(right.routes[0], vec![(k_idx, 1)]);
    }
}
