//! Data-collection modules: `cluster_driver`, `sadc`, `hadoop_log` and
//! `strace`.
//!
//! The collection side of the paper's Figure 4 DAGs. In the reproduction
//! the monitored system is the simulated cluster, so one extra module
//! exists that a real deployment would not have: `cluster_driver`, which
//! advances the simulation by one second per engine tick and emits a clock
//! pulse (output `tick`, Int = simulation time). Collector modules wired to
//! that pulse sample *after* the tick, giving the same data/collection
//! ordering a real deployment gets from wall-clock scheduling.
//!
//! The three collectors are one module body, [`RangeCollector`]:
//!
//! * `sadc` — a node's flattened 120-metric vector from `sadc_rpcd`;
//! * `hadoop_log` — param `daemon` (`tasktracker`/`datanode`): the per-state
//!   count vector of that daemon's log from `hadoop_log_rpcd`;
//! * `strace` — per-category syscall counts of the node's tasktracker
//!   process tree from `strace_rpcd` (the paper's §5 future-work module).
//!
//! Each takes `node = i` (the paper's Figure 3 dialect: the one-element
//! range) or `nodes = lo..hi` (a half-open index range), and an optional
//! input `clock`. One instance holds one daemon connection per node and
//! polls them all under one cluster lock per pulse. Outputs: one per node,
//! `output0`, `output1`, … in node order = that node's vector, origin =
//! that node's hostname. With `nodes`, one more output, `frame` = the whole
//! range's second as one row `[k, dim, node₀ values…, node₁ values…]` (the
//! layout of [`crate::rack::RackSummary`], samples where the means go),
//! origin = the first node's hostname: the edge a rack's `knn`, `mavgvec`
//! or `rack_agg` listens to. A per-node port that nobody wires or taps
//! costs nothing — the engine drops its rows before they are built
//! (`RunCtx::emit_row`) — so a deployment moves one row per rack per
//! second, and a tap on `output3` still gets exactly node 3's stream.

use std::ops::Range;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::TickDuration;
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd, StraceRpcd};
use asdf_rpc::wire::WireError;

/// Advances the simulated cluster one second per engine tick and emits a
/// clock pulse that downstream collectors trigger on.
pub struct ClusterDriver {
    cluster: ClusterHandle,
    out: Option<PortId>,
}

impl ClusterDriver {
    /// Creates a driver for `cluster`.
    pub fn new(cluster: ClusterHandle) -> Self {
        ClusterDriver { cluster, out: None }
    }
}

impl Module for ClusterDriver {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        ctx.expect_input_count(0)?;
        self.out = Some(ctx.declare_output("tick"));
        ctx.request_periodic(TickDuration::SECOND);
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        self.cluster.tick();
        ctx.emit(self.out.unwrap(), self.cluster.now() as i64 - 1);
        Ok(())
    }
}

/// Connects one node's daemon of a kind, reading whatever parameters the
/// kind has (`hadoop_log`'s `daemon`).
type Connect<D> = fn(&InitCtx<'_>, ClusterHandle, usize) -> Result<D, ModuleError>;

/// The collector body: polls one daemon kind for one node (`node = i`) or a
/// contiguous range of nodes (`nodes = lo..hi`).
///
/// Every node keeps what the paper's one-instance-per-node deployment gives
/// it — its own connection, its own request and response on the wire, its
/// own byte accounting, its own output port whose origin is its hostname —
/// and the instance takes the cluster lock once per clock pulse for all of
/// them. A range also leaves as one row on the `frame` port (see the
/// module docs); nothing is allocated per node per second either way, and
/// the per-node poll is a static call on `D`.
pub struct RangeCollector<D> {
    cluster: ClusterHandle,
    connect: Connect<D>,
    /// One daemon and its output port per monitored node, in node order.
    daemons: Vec<(D, PortId)>,
    /// Every poll decodes into this one buffer; `emit_row` copies it out
    /// for whoever listens to the node's port.
    buf: Vec<f64>,
    /// `nodes = lo..hi` only: the `frame` port.
    frame_port: Option<PortId>,
    /// The second's frame as it is assembled: `[k, dim, values…]`.
    frame: Vec<f64>,
}

/// The black-box collector: `sadc_rpcd` metric vectors.
pub type Sadc = RangeCollector<SadcRpcd>;
/// The white-box collector: `hadoop_log_rpcd` state counts of one daemon's
/// log (`daemon = tasktracker|datanode`).
pub type HadoopLog = RangeCollector<HadoopLogRpcd>;
/// The syscall-trace collector: `strace_rpcd` per-category counts, into the
/// same `mavgvec` → `analysis_wb` peer comparison (a hung-but-spinning
/// task's syscall profile flatlines relative to its peers).
pub type Strace = RangeCollector<StraceRpcd>;

impl Sadc {
    /// Creates a `sadc` collector for `cluster`.
    pub fn new(cluster: ClusterHandle) -> Self {
        RangeCollector::of(cluster, |_, cluster, node| {
            SadcRpcd::connect(cluster, node).map_err(|e| connect_failed("sadc", e))
        })
    }
}

impl HadoopLog {
    /// Creates a `hadoop_log` collector for `cluster`.
    pub fn new(cluster: ClusterHandle) -> Self {
        RangeCollector::of(cluster, |ctx, cluster, node| {
            let which = match ctx.require_param("daemon")? {
                "tasktracker" => LogDaemon::TaskTracker,
                "datanode" => LogDaemon::DataNode,
                other => {
                    return Err(ModuleError::invalid_parameter(
                        "daemon",
                        format!("expected tasktracker|datanode, got `{other}`"),
                    ))
                }
            };
            HadoopLogRpcd::connect(cluster, node, which)
                .map_err(|e| connect_failed("hadoop_log", e))
        })
    }
}

impl Strace {
    /// Creates a `strace` collector for `cluster`.
    pub fn new(cluster: ClusterHandle) -> Self {
        RangeCollector::of(cluster, |_, cluster, node| {
            StraceRpcd::connect(cluster, node).map_err(|e| connect_failed("strace", e))
        })
    }
}

fn connect_failed(kind: &str, e: WireError) -> ModuleError {
    ModuleError::Other(format!("{kind}_rpcd connect failed: {e}"))
}

impl<D> RangeCollector<D> {
    fn of(cluster: ClusterHandle, connect: Connect<D>) -> Self {
        RangeCollector {
            cluster,
            connect,
            daemons: Vec::new(),
            buf: Vec::new(),
            frame_port: None,
            frame: Vec::new(),
        }
    }

    /// The monitored node indices: `node = i` is the one-element range.
    fn node_range(&self, ctx: &InitCtx<'_>) -> Result<Range<usize>, ModuleError> {
        let n_slaves = self.cluster.n_slaves();
        let (key, range) = match ctx.param("nodes") {
            Some(_) if ctx.param("node").is_some() => {
                return Err(ModuleError::invalid_parameter(
                    "nodes",
                    "give either `node` or `nodes`, not both",
                ))
            }
            Some(raw) => {
                let bounds = raw
                    .split_once("..")
                    .and_then(|(lo, hi)| Some(lo.trim().parse().ok()?..hi.trim().parse().ok()?));
                let Some(range) = bounds else {
                    return Err(ModuleError::invalid_parameter(
                        "nodes",
                        format!("expected `lo..hi`, got `{raw}`"),
                    ));
                };
                ("nodes", range)
            }
            None => {
                let node: usize = ctx.parse_param("node")?;
                ("node", node..node.saturating_add(1))
            }
        };
        if range.is_empty() {
            return Err(ModuleError::invalid_parameter(
                key,
                format!("{}..{} holds no node", range.start, range.end),
            ));
        }
        if range.end > n_slaves {
            return Err(ModuleError::invalid_parameter(
                key,
                format!("cluster has {n_slaves} slaves"),
            ));
        }
        Ok(range)
    }
}

impl<D: Collector + Send> Module for RangeCollector<D> {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let nodes = self.node_range(ctx)?;
        let first = nodes.start;
        for (j, node) in nodes.enumerate() {
            let daemon = (self.connect)(ctx, self.cluster.clone(), node)?;
            let origin = self.cluster.slave_name(node);
            let port = ctx.declare_output_with_origin(format!("output{j}"), origin);
            self.daemons.push((daemon, port));
        }
        if ctx.param("nodes").is_some() {
            // After the node ports, so `output{j}` stays port j.
            let origin = self.cluster.slave_name(first);
            self.frame_port = Some(ctx.declare_output_with_origin("frame", origin));
        }
        // Free-run once per second without a clock input, trigger per
        // pulse with one.
        match ctx.input_slots().len() {
            0 => ctx.request_periodic(TickDuration::SECOND),
            1 => ctx.set_input_trigger(1),
            n => {
                return Err(ModuleError::BadInputs(format!(
                    "{} takes at most one clock input, got {n}",
                    self.daemons[0].0.kind()
                )))
            }
        }
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        ctx.discard_pending();
        let RangeCollector {
            cluster,
            daemons,
            buf,
            frame_port,
            frame,
            ..
        } = self;
        let k = daemons.len();
        frame.clear();
        let polled = cluster.with(|c| {
            let mut polled = 0;
            for (daemon, port) in daemons.iter_mut() {
                let sample = daemon.poll_into_locked(c, buf).map_err(|e| {
                    ModuleError::Other(format!("{}_rpcd poll failed: {e}", daemon.kind()))
                })?;
                if sample.is_none() {
                    continue;
                }
                polled += 1;
                ctx.emit_row(*port, buf);
                if frame_port.is_some() {
                    if frame.is_empty() {
                        frame.extend([k as f64, buf.len() as f64]);
                    }
                    frame.extend_from_slice(buf);
                }
            }
            Ok(polled)
        })?;
        // Under the one lock every node has rendered its second or (before
        // the first simulated one) none has: a frame is whole or absent.
        if let Some(port) = frame_port.filter(|_| polled == k) {
            ctx.emit_row(port, frame);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use asdf_core::config::Config;
    use asdf_core::dag::Dag;
    use asdf_core::engine::{TapHandle, TickEngine};
    use asdf_core::registry::ModuleRegistry;
    use asdf_core::time::TickDuration;
    use asdf_rpc::daemons::ClusterHandle;
    use hadoop_sim::cluster::{Cluster, ClusterConfig};

    fn handle(slaves: usize) -> ClusterHandle {
        ClusterHandle::new(Cluster::new(ClusterConfig::new(slaves, 31), Vec::new()))
    }

    fn registry(h: &ClusterHandle) -> ModuleRegistry {
        let mut reg = ModuleRegistry::new();
        crate::register_all(&mut reg, h.clone());
        reg
    }

    #[test]
    fn driver_ticks_the_cluster_once_per_engine_second() {
        let h = handle(2);
        let cfg: Config = "[cluster_driver]\nid = drv\n".parse().unwrap();
        let dag = Dag::build(&registry(&h), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        eng.run_for(TickDuration::from_secs(10)).unwrap();
        assert_eq!(h.now(), 10);
    }

    #[test]
    fn sadc_emits_metric_vectors_with_node_origin() {
        let h = handle(3);
        let cfg: Config = "\
[cluster_driver]
id = drv

[sadc]
id = sadc1
node = 1
input[clock] = drv.tick
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(&h), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("sadc1").unwrap();
        eng.run_for(TickDuration::from_secs(5)).unwrap();
        let out = tap.drain();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].source.origin, "slave01");
        assert_eq!(out[0].sample.value.as_vector().unwrap().len(), 120);
    }

    #[test]
    fn hadoop_log_emits_per_daemon_state_vectors() {
        let h = handle(2);
        let cfg: Config = "\
[cluster_driver]
id = drv

[hadoop_log]
id = hl_tt
node = 0
daemon = tasktracker
input[clock] = drv.tick

[hadoop_log]
id = hl_dn
node = 0
daemon = datanode
input[clock] = drv.tick
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(&h), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tt = eng.tap("hl_tt").unwrap();
        let dn = eng.tap("hl_dn").unwrap();
        eng.run_for(TickDuration::from_secs(120)).unwrap();
        let tt_out = tt.drain();
        let dn_out = dn.drain();
        assert_eq!(tt_out.len(), 120);
        assert_eq!(tt_out[0].sample.value.as_vector().unwrap().len(), 6);
        assert_eq!(dn_out[0].sample.value.as_vector().unwrap().len(), 3);
        // Some task activity must be visible over two minutes.
        let total: f64 = tt_out
            .iter()
            .flat_map(|e| e.sample.value.as_vector().unwrap().to_vec())
            .sum();
        assert!(total > 0.0);
    }

    #[test]
    fn invalid_node_or_daemon_fails_init() {
        let h = handle(2);
        for cfg in [
            "[sadc]\nid = s\nnode = 9\n",
            "[hadoop_log]\nid = hl\nnode = 0\ndaemon = bogus\n",
            "[hadoop_log]\nid = hl\nnode = 0\n",
        ] {
            let parsed: Config = cfg.parse().unwrap();
            assert!(
                Dag::build(&registry(&h), &parsed).is_err(),
                "should reject: {cfg}"
            );
        }
    }

    /// `(origin, timestamp, value bits)` of every envelope a tap captured
    /// from the port named `port`.
    fn port_stream(tap: &TapHandle, port: &str) -> Vec<(String, u64, Vec<u64>)> {
        tap.snapshot()
            .iter()
            .filter(|e| e.source.name == port)
            .map(|e| {
                let bits = e.sample.value.as_vector().unwrap();
                (
                    e.source.origin.clone(),
                    e.sample.timestamp.as_secs(),
                    bits.iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// Every collector kind as `(type, its own parameters, vector width,
    /// whether a poll before the first simulated second is empty)` — the
    /// log daemon always answers, with zero counts.
    fn kinds() -> [(&'static str, &'static str, usize, bool); 4] {
        [
            ("sadc", "", 120, true),
            ("hadoop_log", "daemon = tasktracker\n", 6, false),
            ("hadoop_log", "daemon = datanode\n", 3, false),
            (
                "strace",
                "",
                procsim::syscalls::SYSCALL_CATEGORY_COUNT,
                true,
            ),
        ]
    }

    /// Seconds the range tests run: long enough for tasks to start.
    const SECS: u64 = 40;

    #[test]
    fn node_range_is_bitwise_equal_per_port_to_one_instance_per_node() {
        // Clocked by the driver, and free-running *ahead* of it: listed
        // first, the collectors' run at t=0 precedes the first simulation
        // tick, a `sadc` or `strace` polls `Ok(None)`, and must emit nothing.
        let clocked = (
            "[cluster_driver]\nid = drv\n\n",
            "input[clock] = drv.tick\n",
            "",
        );
        let ahead = ("", "", "\n[cluster_driver]\nid = drv\n");
        for (kind, params, _, silent_at_first) in kinds() {
            for (head, clock, tail) in [clocked, ahead] {
                let rack =
                    format!("{head}[{kind}]\nid = rack\n{params}nodes = 1..4\n{clock}{tail}");
                let per_node = (1..4)
                    .map(|i| format!("[{kind}]\nid = s{i}\n{params}node = {i}\n{clock}\n"))
                    .collect::<String>();
                let per_node = format!("{head}{per_node}{tail}");
                // Without the clock edge nothing orders collectors and driver
                // on a sharded engine, so only the serial one runs that form.
                let thread_counts: &[usize] = if clock.is_empty() { &[1] } else { &[1, 2] };
                for batch in [1, 64] {
                    for &threads in thread_counts {
                        let run = |cfg: &str, ids: &[&str]| {
                            let h = handle(5);
                            let dag = Dag::build(&registry(&h), &cfg.parse().unwrap()).unwrap();
                            let mut eng = TickEngine::with_threads(dag, threads);
                            eng.set_batch_size(batch);
                            let taps: Vec<TapHandle> =
                                ids.iter().map(|id| eng.tap(id).unwrap()).collect();
                            eng.run_for(TickDuration::from_secs(SECS)).unwrap();
                            taps
                        };
                        let rack_tap = &run(&rack, &["rack"])[0];
                        let node_taps = run(&per_node, &["s1", "s2", "s3"]);
                        for (j, node_tap) in node_taps.iter().enumerate() {
                            let expected = port_stream(node_tap, "output0");
                            let skipped = u64::from(clock.is_empty() && silent_at_first);
                            assert_eq!(expected.len() as u64, SECS - skipped, "{kind}");
                            assert_eq!(expected[0].0, format!("slave{:02}", j + 1));
                            assert_eq!(
                                port_stream(rack_tap, &format!("output{j}")),
                                expected,
                                "{kind} port {j}, batch {batch}, threads {threads}"
                            );
                        }
                        let frames = port_stream(rack_tap, "frame").len();
                        assert_eq!(frames, node_taps[0].len(), "one frame a second");
                        assert_eq!(
                            rack_tap.len() - frames,
                            3 * node_taps[0].len(),
                            "no other port but `frame`"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_range_frame_is_every_node_port_of_the_second_bitwise() {
        // Clocked, and free-running ahead of the driver: there the run at
        // t=0 polls `Ok(None)` from every `sadc` or `strace` node, and no
        // frame may leave.
        for (kind, params, dim, silent_at_first) in kinds() {
            let clocked = format!(
                "[cluster_driver]\nid = drv\n\n\
                 [{kind}]\nid = rack\n{params}nodes = 1..4\ninput[clock] = drv.tick\n"
            );
            let ahead = format!(
                "[{kind}]\nid = rack\n{params}nodes = 1..4\n\n[cluster_driver]\nid = drv\n"
            );
            for (cfg, first_second, thread_counts) in [
                (clocked, 0, &[1, 2][..]),
                (ahead, u64::from(silent_at_first), &[1][..]),
            ] {
                for batch in [1, 64] {
                    for &threads in thread_counts {
                        let h = handle(5);
                        let dag = Dag::build(&registry(&h), &cfg.parse().unwrap()).unwrap();
                        let mut eng = TickEngine::with_threads(dag, threads);
                        eng.set_batch_size(batch);
                        let tap = eng.tap("rack").unwrap();
                        eng.run_for(TickDuration::from_secs(SECS)).unwrap();

                        let frames = port_stream(&tap, "frame");
                        let seconds: Vec<u64> = frames.iter().map(|(_, t, _)| *t).collect();
                        assert_eq!(seconds, (first_second..SECS).collect::<Vec<_>>());
                        let nodes: Vec<_> = (0..3)
                            .map(|j| port_stream(&tap, &format!("output{j}")))
                            .collect();
                        for (i, (origin, t, frame)) in frames.iter().enumerate() {
                            assert_eq!(origin, "slave01", "the range's first node");
                            let mut want = vec![3f64.to_bits(), (dim as f64).to_bits()];
                            for node in &nodes {
                                assert_eq!(node[i].1, *t);
                                want.extend_from_slice(&node[i].2);
                            }
                            assert_eq!(want.len(), 2 + 3 * dim);
                            assert_eq!(
                                *frame, want,
                                "{kind} t={t}, batch {batch}, threads {threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_node_collector_declares_no_frame_port() {
        let h = handle(3);
        let cfg = "[sadc]\nid = s\nnode = 1\n\n[print]\nid = p\ninput[a] = s.frame\n";
        assert!(Dag::build(&registry(&h), &cfg.parse().unwrap()).is_err());
        let cfg = cfg.replace("node = 1", "nodes = 1..2");
        assert!(Dag::build(&registry(&h), &cfg.parse().unwrap()).is_ok());
    }

    #[test]
    fn node_and_nodes_parameters_are_validated() {
        let h = handle(4);
        for (params, why) in [
            ("node = 1\nnodes = 0..2", "both forms"),
            ("nodes = 2..2", "empty range"),
            ("nodes = 3..1", "reversed range"),
            ("nodes = 2..5", "hi > n_slaves"),
            ("nodes = 2", "not a range"),
            ("nodes = a..b", "not numbers"),
            ("node = 4", "node >= n_slaves"),
            ("", "neither form"),
        ] {
            let cfg: Config = format!("[sadc]\nid = s\n{params}\n").parse().unwrap();
            assert!(
                Dag::build(&registry(&h), &cfg).is_err(),
                "should reject {why}"
            );
        }
        for params in ["nodes = 0..4", "nodes = 3..4", "node = 3"] {
            let cfg: Config = format!("[sadc]\nid = s\n{params}\n").parse().unwrap();
            assert!(
                Dag::build(&registry(&h), &cfg).is_ok(),
                "should accept {params}"
            );
        }
    }

    #[test]
    fn collectors_can_free_run_periodically_without_a_clock() {
        let h = handle(2);
        let cfg: Config = "[cluster_driver]\nid = drv\n\n[sadc]\nid = s\nnode = 0\n"
            .parse()
            .unwrap();
        let dag = Dag::build(&registry(&h), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("s").unwrap();
        eng.run_for(TickDuration::from_secs(4)).unwrap();
        // Driver is listed first, so the frame exists by the time sadc runs.
        assert_eq!(tap.drain().len(), 4);
    }

    #[test]
    fn strace_emits_syscall_vectors_with_node_origin() {
        let h = handle(3);
        let cfg: Config = "\
[cluster_driver]
id = drv

[strace]
id = st1
node = 1
input[clock] = drv.tick
"
        .parse()
        .unwrap();
        let dag = Dag::build(&registry(&h), &cfg).unwrap();
        let mut eng = TickEngine::new(dag);
        let tap = eng.tap("st1").unwrap();
        eng.run_for(TickDuration::from_secs(30)).unwrap();
        let out = tap.drain();
        assert_eq!(out.len(), 30);
        assert_eq!(out[0].source.origin, "slave01");
        assert_eq!(
            out[0].sample.value.as_vector().unwrap().len(),
            procsim::syscalls::SYSCALL_CATEGORY_COUNT
        );
    }
}
