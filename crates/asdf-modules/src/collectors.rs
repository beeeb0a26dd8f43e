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
//! Each takes `nodes = lo..hi` (a half-open index range, a rack; `i..i+1`
//! is node `i` alone) and an optional input `clock`. One instance holds one
//! daemon connection per node and polls them all under one cluster lock
//! per pulse ([`poll_frame`]) into the second's frame, `[k, dim, node₀
//! values…, node₁ values…]` (the rack frame every analysis edge carries,
//! [`crate::rack::frame_shape`]) — whole, or absent when some node has
//! nothing for the second. The frame is the payload that leaves: each
//! node's response is decoded straight into its row of it, so a
//! node-second is copied once on its way from the wire to the consumer. It
//! leaves on the one output, `frame`, origin = the first node's hostname:
//! the edge a rack's `knn`, `mavgvec`, `rack_agg` or `metric_rank` listens
//! to.

use std::ops::Range;
use std::sync::Arc;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, PortId, RunCtx, RunReason};
use asdf_core::time::TickDuration;
use asdf_core::value::Value;
use asdf_rpc::daemons::{ClusterHandle, Collector, HadoopLogRpcd, LogDaemon, SadcRpcd, StraceRpcd};
use asdf_rpc::wire::WireError;
use hadoop_sim::cluster::Cluster;

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
        ctx.out
            .emit(self.out.unwrap(), self.cluster.now() as i64 - 1);
        Ok(())
    }
}

/// Connects one node's daemon of a kind, reading whatever parameters the
/// kind has (`hadoop_log`'s `daemon`).
type Connect<D> = fn(&InitCtx<'_>, ClusterHandle, usize) -> Result<D, ModuleError>;

/// The collector body: polls one daemon kind for a contiguous range of
/// nodes (`nodes = lo..hi`).
///
/// Every node keeps what the paper's one-instance-per-node deployment gives
/// it — its own connection, its own request and response on the wire, its
/// own byte accounting — and the instance takes the cluster lock once per
/// clock pulse for all of them. The second leaves as one row (see the
/// module docs), allocated once per second for the whole range and
/// emitted as it was filled; the per-node poll is a static call on `D`.
pub struct RangeCollector<D> {
    cluster: ClusterHandle,
    connect: Connect<D>,
    /// One daemon per monitored node, in node order.
    daemons: Vec<D>,
    /// The one output, `frame`.
    port: Option<PortId>,
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

/// Parses a collector's `nodes = lo..hi` parameter: `None` unless `raw`
/// is two node indices around `..`. The range may be empty; the
/// collectors refuse that at init.
pub fn parse_node_range(raw: &str) -> Option<Range<usize>> {
    let (lo, hi) = raw.split_once("..")?;
    Some(lo.trim().parse().ok()?..hi.trim().parse().ok()?)
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
            port: None,
        }
    }

    /// The monitored node indices, the `nodes = lo..hi` parameter.
    fn node_range(&self, ctx: &InitCtx<'_>) -> Result<Range<usize>, ModuleError> {
        let raw = ctx.require_param("nodes")?;
        let Some(range) = parse_node_range(raw) else {
            return Err(ModuleError::invalid_parameter(
                "nodes",
                format!("expected `lo..hi`, got `{raw}`"),
            ));
        };
        if range.is_empty() {
            return Err(ModuleError::invalid_parameter(
                "nodes",
                format!("{}..{} holds no node", range.start, range.end),
            ));
        }
        let n_slaves = self.cluster.n_slaves();
        if range.end > n_slaves {
            return Err(ModuleError::invalid_parameter(
                "nodes",
                format!("cluster has {n_slaves} slaves"),
            ));
        }
        Ok(range)
    }
}

/// A zeroed frame for `k` nodes of `dim` values each, `2 + k × dim` long,
/// in the one allocation the emitted payload lives in.
fn new_frame(k: usize, dim: usize) -> Arc<[f64]> {
    std::iter::repeat_n(0.0, 2 + k * dim).collect()
}

/// Polls every daemon, in node order, under the held cluster lock, each
/// straight into its row of `frame`, the second's `[k, dim, node₀ values…,
/// node₁ values…]`: `frame` is `2 + k × dim` long for `k` daemons of
/// [`Collector::width`] `dim`. Returns the second's timestamp only when
/// every node answered (`frame` is unspecified otherwise): a second is
/// whole or absent, so its peers share a time point (paper §3.7).
///
/// # Errors
///
/// The first response that fails to decode, or holds other than `dim`
/// values.
///
/// # Panics
///
/// Panics if there is no daemon, or `frame` is not `2 + k × dim` long.
pub fn poll_frame<'a, D: Collector + ?Sized + 'a>(
    cluster: &mut Cluster,
    daemons: impl ExactSizeIterator<Item = &'a mut D>,
    frame: &mut [f64],
) -> Result<Option<u64>, WireError> {
    let k = daemons.len();
    let (header, rows) = frame.split_at_mut(2);
    let dim = rows.len() / k;
    assert!(
        dim > 0 && rows.len() == k * dim,
        "a frame of {k} rows, not {} values",
        rows.len()
    );
    header.copy_from_slice(&[k as f64, dim as f64]);
    let mut second = Some(0);
    for (daemon, row) in daemons.zip(rows.chunks_exact_mut(dim)) {
        // Polled whatever its peers answered: a node's bytes are its own.
        second = second.and(daemon.poll_into_locked(cluster, row)?);
    }
    Ok(second)
}

impl<D: Collector + Send> Module for RangeCollector<D> {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        let nodes = self.node_range(ctx)?;
        let origin = self.cluster.slave_name(nodes.start);
        self.port = Some(ctx.declare_output_with_origin("frame", origin));
        for node in nodes {
            self.daemons
                .push((self.connect)(ctx, self.cluster.clone(), node)?);
        }
        // Free-run once per second without a clock input, trigger per
        // pulse with one.
        match ctx.input_slots().len() {
            0 => ctx.request_periodic(TickDuration::SECOND),
            1 => ctx.set_input_trigger(1),
            n => {
                return Err(ModuleError::BadInputs(format!(
                    "{} takes at most one clock input, got {n}",
                    self.daemons[0].kind()
                )))
            }
        }
        Ok(())
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, _reason: RunReason) -> Result<(), ModuleError> {
        ctx.inputs.by_ref().for_each(drop);
        let mut frame = new_frame(self.daemons.len(), self.daemons[0].width());
        let rows = Arc::get_mut(&mut frame).expect("a new frame is unshared");
        let daemons = &mut self.daemons;
        let polled = self
            .cluster
            .with(|c| poll_frame(c, daemons.iter_mut(), rows));
        let kind = self.daemons[0].kind();
        let polled =
            polled.map_err(|e| ModuleError::Other(format!("{kind}_rpcd poll failed: {e}")))?;
        if polled.is_some() {
            ctx.out
                .emit(self.port.expect("declared in init"), Value::Vector(frame));
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
nodes = 1..2
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
        let frame = out[0].sample.value.as_vector().unwrap();
        assert_eq!(frame[..2], [1.0, 120.0]);
        assert_eq!(frame.len(), 2 + 120);
    }

    #[test]
    fn hadoop_log_emits_per_daemon_state_vectors() {
        let h = handle(2);
        let cfg: Config = "\
[cluster_driver]
id = drv

[hadoop_log]
id = hl_tt
nodes = 0..1
daemon = tasktracker
input[clock] = drv.tick

[hadoop_log]
id = hl_dn
nodes = 0..1
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
        assert_eq!(tt_out[0].sample.value.as_vector().unwrap().len(), 2 + 6);
        assert_eq!(dn_out[0].sample.value.as_vector().unwrap().len(), 2 + 3);
        // Some task activity must be visible over two minutes.
        let total: f64 = tt_out
            .iter()
            .flat_map(|e| e.sample.value.as_vector().unwrap()[2..].to_vec())
            .sum();
        assert!(total > 0.0);
    }

    #[test]
    fn invalid_node_or_daemon_fails_init() {
        let h = handle(2);
        for cfg in [
            "[sadc]\nid = s\nnodes = 9..10\n",
            "[hadoop_log]\nid = hl\nnodes = 0..1\ndaemon = bogus\n",
            "[hadoop_log]\nid = hl\nnodes = 0..1\n",
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
    fn node_range_frame_is_one_headed_row_a_second() {
        // Clocked, and free-running *ahead* of the driver: listed first, the
        // collector's run at t=0 precedes the first simulation tick, every
        // `sadc` or `strace` node polls `Ok(None)`, and no frame may leave.
        // (`collection_streams` pins the frames' values.)
        let driver = "[cluster_driver]\nid = drv\n\n";
        for (kind, params, dim, silent_at_first) in kinds() {
            for (clock, first_second) in [
                ("input[clock] = drv.tick\n", 0),
                ("", u64::from(silent_at_first)),
            ] {
                let collector = format!("[{kind}]\nid = c\n{params}nodes = 1..4\n{clock}\n");
                let cfg = if clock.is_empty() {
                    format!("{collector}{driver}")
                } else {
                    format!("{driver}{collector}")
                };
                let dag = Dag::build(&registry(&handle(5)), &cfg.parse().unwrap()).unwrap();
                // A range declares one port, its frame.
                let ports = &dag.node("c").unwrap().outputs;
                assert_eq!(ports.len(), 1, "{kind}");
                assert_eq!(ports[0].name, "frame");
                let mut eng = TickEngine::new(dag);
                let tap = eng.tap("c").unwrap();
                eng.run_for(TickDuration::from_secs(SECS)).unwrap();

                let frames = port_stream(&tap, "frame");
                assert_eq!(frames.len(), tap.len(), "nothing but frames leave");
                let seconds: Vec<u64> = frames.iter().map(|(_, t, _)| *t).collect();
                assert_eq!(seconds, (first_second..SECS).collect::<Vec<_>>(), "{kind}");
                let header = [3f64.to_bits(), (dim as f64).to_bits()];
                for (origin, t, frame) in &frames {
                    assert_eq!(origin, "slave01", "the range's first node");
                    assert_eq!(frame[..2], header, "{kind} t={t}");
                    assert_eq!(frame.len(), 2 + 3 * dim);
                }
            }
        }
    }

    #[test]
    fn node_and_nodes_parameters_are_validated() {
        let h = handle(4);
        for (params, why) in [
            ("nodes = 2..2", "empty range"),
            ("nodes = 3..1", "reversed range"),
            ("nodes = 2..5", "hi > n_slaves"),
            ("nodes = 2", "not a range"),
            ("nodes = a..b", "not numbers"),
            ("", "no range"),
        ] {
            let cfg: Config = format!("[sadc]\nid = s\n{params}\n").parse().unwrap();
            assert!(
                Dag::build(&registry(&h), &cfg).is_err(),
                "should reject {why}"
            );
        }
        for params in ["nodes = 0..4", "nodes = 3..4"] {
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
        let cfg: Config = "[cluster_driver]\nid = drv\n\n[sadc]\nid = s\nnodes = 0..1\n"
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
nodes = 1..2
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
            2 + procsim::syscalls::SYSCALL_CATEGORY_COUNT
        );
    }
}
