//! The collector RPC daemons: `sadc_rpcd` and `hadoop_log_rpcd`.
//!
//! On a real deployment (paper §4.3) every slave runs two daemons that the
//! ASDF control node polls once per second over ICE RPC: `sadc_rpcd`
//! returns `/proc` statistics via `libsadc`, and `hadoop_log_rpcd` returns
//! Hadoop state counts from the log parser. Here the daemons front the
//! simulated cluster: each poll encodes its response onto the accounted
//! wire ([`crate::transport::Connection`]), then decodes it back — so Table
//! 4's bandwidth numbers are measured on bytes that are actually moved and
//! parsed.
//!
//! A poll allocates nothing once its buffers have grown, and stages
//! nothing: the request and the response are encoded into one byte buffer
//! the connection keeps — `sadc`'s straight from the node's rendered
//! metric frame — and the response is decoded straight into the caller's
//! row ([`Collector::poll_into_locked`]), which a rack collector points at
//! the node's place in the second's frame. The caller holds the cluster,
//! so one collector polling many nodes takes the lock once per second, not
//! once per node.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

use asdf_obs::{Histogram, SpanHandle};
use parking_lot::Mutex;

use hadoop_logs::parser::LogParser;
use hadoop_logs::states::HadoopState;
use hadoop_sim::cluster::Cluster;

use crate::transport::{BandwidthStats, Connection};
use crate::wire::{FrameReader, MessageBuilder, WireError};

/// One daemon kind's poll-latency site: every poll (cluster access +
/// encode + wire accounting + decode) is timed into the shared
/// `rpc.poll_ns.<kind>` histogram.
///
/// The span name and the histogram are resolved once per kind per process,
/// not once per connect; [`PollSite::span`] gives each connection its own
/// sampling ticker over them, so daemons polled from different threads
/// write no shared cache line.
struct PollSite {
    kind: &'static str,
    resolved: OnceLock<(Arc<str>, Arc<Histogram>)>,
}

impl PollSite {
    const fn new(kind: &'static str) -> Self {
        PollSite {
            kind,
            resolved: OnceLock::new(),
        }
    }

    /// A fresh span for one connection.
    fn span(&self) -> SpanHandle {
        let (name, hist) = self.resolved.get_or_init(|| {
            let hist = asdf_obs::registry().histogram(&format!("rpc.poll_ns.{}", self.kind));
            (Arc::from(format!("{}.poll", self.kind)), hist)
        });
        SpanHandle::new("rpc", Arc::clone(name), Arc::clone(hist))
    }
}

static SADC_POLL: PollSite = PollSite::new("sadc");
static HADOOP_LOG_POLL: PollSite = PollSite::new("hadoop_log");
static STRACE_POLL: PollSite = PollSite::new("strace");

/// Shared, thread-safe handle to the simulated cluster.
///
/// The cluster driver module ticks the simulation through one handle clone
/// while collector daemons sample it through others.
#[derive(Clone)]
pub struct ClusterHandle {
    inner: Arc<Mutex<Cluster>>,
}

impl ClusterHandle {
    /// Wraps a cluster.
    pub fn new(cluster: Cluster) -> Self {
        ClusterHandle {
            inner: Arc::new(Mutex::new(cluster)),
        }
    }

    /// Runs `f` with exclusive access to the cluster.
    pub fn with<R>(&self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Advances the simulation one second.
    pub fn tick(&self) {
        self.inner.lock().tick();
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.inner.lock().now()
    }

    /// Number of slave nodes.
    pub fn n_slaves(&self) -> usize {
        self.inner.lock().n_slaves()
    }

    /// Hostname of slave `node`.
    pub fn slave_name(&self, node: usize) -> String {
        self.inner.lock().slave_name(node).to_owned()
    }
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle").finish_non_exhaustive()
    }
}

/// One decoded sample from any collector daemon, in the shape every kind
/// shares: a simulation timestamp plus a flat `f64` vector (metrics, state
/// counts, or syscall counts, depending on the kind).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorSample {
    /// Simulation time of the sample.
    pub timestamp: u64,
    /// The kind-specific value vector.
    pub values: Vec<f64>,
}

/// The shared contract of the collector RPC daemons.
///
/// Every daemon kind does the same four things per second — poll the
/// monitored system, encode the response onto the accounted wire, account
/// the bytes, decode it back — and differs only in *what* it samples. The
/// trait lets the serve loop and the batch pipeline drive any kind
/// generically, and it is the only way to poll one: [`SadcRpcd`],
/// [`HadoopLogRpcd`], and [`StraceRpcd`] add only their constructors and
/// schema accessors.
pub trait Collector {
    /// Short kind name (`sadc`, `hadoop_log`, `strace`) for metric names
    /// and error messages.
    fn kind(&self) -> &'static str;

    /// The slave node index this daemon monitors.
    fn node(&self) -> usize;

    /// The cluster this daemon samples.
    fn cluster(&self) -> &ClusterHandle;

    /// Values in every sample: the width of the schema the daemon
    /// announced at handshake.
    fn width(&self) -> usize;

    /// Polls one second of data under the caller's cluster lock, decoding
    /// the values straight into `out`, which is [`Collector::width`] long,
    /// and returns the sample's simulation timestamp. Returns `Ok(None)`,
    /// leaving `out` unspecified, when the monitored source has produced
    /// nothing yet (e.g. before the first simulation tick).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the response fails to decode, or holds
    /// other than `out.len()` values.
    fn poll_into_locked(
        &mut self,
        cluster: &mut Cluster,
        out: &mut [f64],
    ) -> Result<Option<u64>, WireError>;

    /// One poll into a fresh vector, taking the cluster lock: for callers
    /// that want an owned sample per poll.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the response fails to decode.
    fn poll_sample(&mut self) -> Result<Option<CollectorSample>, WireError> {
        let cluster = self.cluster().clone();
        let mut values = vec![0.0; self.width()];
        let timestamp = cluster.with(|c| self.poll_into_locked(c, &mut values))?;
        Ok(timestamp.map(|timestamp| CollectorSample { timestamp, values }))
    }

    /// Bandwidth accounting for Table 4.
    fn bandwidth(&self) -> BandwidthStats;

    /// Closes the connection.
    fn close(&mut self);
}

thread_local! {
    /// The bytes of the message in flight. A message lives here from its
    /// encode to its decode and no connection keeps bytes between polls,
    /// so one buffer per polling thread serves every connection, and a
    /// fleet's polls run through the same cache lines.
    static WIRE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// What every daemon kind keeps per monitored node: its own accounted
/// connection.
#[derive(Debug)]
struct Session {
    node: usize,
    conn: Connection,
}

impl Session {
    /// Opens the connection and sends `hello` as its schema handshake,
    /// then reads the protocol tag back as the control node would.
    /// `shared_len` is the length of an announcement that follows `hello`
    /// in the same frame but is encoded once for all connections (the
    /// `sadc` metric names): this connection is charged for it all the same.
    fn open(node: usize, hello: MessageBuilder, shared_len: usize) -> Result<Self, WireError> {
        let mut conn = Connection::open();
        let wire = hello.into_frame();
        conn.send_handshake(wire.len() + shared_len);
        FrameReader::new(&wire)?.get_str()?;
        Ok(Session { node, conn })
    }

    /// One poll's request and response over the accounted wire, as the
    /// control node sees them: the request (`opcode`, node) and then the
    /// response (`t`, `values`, and whatever `trailer` appends) are
    /// encoded, the connection is charged for both, and the response is
    /// decoded back — its timestamp returned, its values into `out`.
    fn round_trip(
        &mut self,
        opcode: u8,
        t: u64,
        values: &[f64],
        trailer: impl FnOnce(&mut MessageBuilder),
        out: &mut [f64],
    ) -> Result<u64, WireError> {
        WIRE.with_borrow_mut(|wire| {
            let mut req = MessageBuilder::reusing(std::mem::take(wire));
            req.put_u8(opcode).put_u32(self.node as u32);
            let req = req.into_frame();
            let req_len = req.len();
            let mut resp = MessageBuilder::reusing(req);
            resp.put_u64(t).put_f64_slice(values);
            trailer(&mut resp);
            *wire = resp.into_frame();
            self.conn.exchange(req_len, wire.len());
            let mut r = FrameReader::new(wire)?;
            let timestamp = r.get_u64()?;
            r.get_f64_slice_to(out)?;
            Ok(timestamp)
        })
    }
}

/// The metric names every `sadc_rpcd` announces at handshake.
///
/// The schema is static ([`procsim::metrics::sadc_names`]), so it is
/// encoded and decoded once per process and shared, instead of once per
/// node. Each connection is still charged `wire_len` bytes for it.
#[derive(Debug)]
struct SadcSchema {
    names: Arc<[String]>,
    /// Encoded size of the announcement: the `u32` count and the names.
    wire_len: usize,
}

fn sadc_schema() -> Result<&'static SadcSchema, WireError> {
    static SCHEMA: OnceLock<Result<SadcSchema, WireError>> = OnceLock::new();
    SCHEMA
        .get_or_init(|| {
            let names = procsim::metrics::sadc_names();
            let mut b = MessageBuilder::new();
            b.put_u32(names.len() as u32);
            for n in &names {
                b.put_str(n);
            }
            let wire_len = b.len();

            // Decode it back, as the control node would.
            let frame = b.into_frame();
            let mut r = FrameReader::new(&frame)?;
            let n = r.get_u32()? as usize;
            let names = (0..n)
                .map(|_| r.get_str().map(str::to_owned))
                .collect::<Result<_, _>>()?;
            Ok(SadcSchema { names, wire_len })
        })
        .as_ref()
        .map_err(Clone::clone)
}

/// The black-box collector daemon for one slave node.
///
/// # Examples
///
/// ```
/// use asdf_rpc::daemons::{ClusterHandle, Collector, SadcRpcd};
/// use hadoop_sim::cluster::{Cluster, ClusterConfig};
///
/// let handle = ClusterHandle::new(Cluster::new(ClusterConfig::new(3, 1), Vec::new()));
/// let mut daemon = SadcRpcd::connect(handle.clone(), 0)?;
/// handle.tick();
/// let sample = daemon.poll_sample()?.expect("frame exists after a tick");
/// assert_eq!(sample.values.len(), daemon.metric_names().len());
/// # Ok::<(), asdf_rpc::wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct SadcRpcd {
    cluster: ClusterHandle,
    session: Session,
    metric_names: Arc<[String]>,
    span: SpanHandle,
}

impl SadcRpcd {
    /// Opens the connection and performs the schema handshake (the daemon
    /// announces its node name and full metric-name list; this is the bulk
    /// of Table 4's static overhead).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the handshake fails to decode (cannot
    /// happen unless the wire layer is broken — surfaced for realism).
    pub fn connect(cluster: ClusterHandle, node: usize) -> Result<Self, WireError> {
        let schema = sadc_schema()?;
        let mut hello = MessageBuilder::new();
        hello.put_str("sadc/1");
        hello.put_str(&cluster.slave_name(node));
        Ok(SadcRpcd {
            cluster,
            session: Session::open(node, hello, schema.wire_len)?,
            metric_names: Arc::clone(&schema.names),
            span: SADC_POLL.span(),
        })
    }

    /// The metric names announced at handshake.
    pub fn metric_names(&self) -> &[String] {
        &self.metric_names
    }
}

/// Which daemon's log a `hadoop_log_rpcd` instance tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogDaemon {
    /// The TaskTracker log (states: MapTask, ReduceTask, ReduceCopy,
    /// ReduceSort, ReduceReducer).
    TaskTracker,
    /// The DataNode log (states: ReadBlock, WriteBlock, DeleteBlock).
    DataNode,
}

impl LogDaemon {
    /// The states this daemon reports, in output order.
    pub fn states(self) -> &'static [HadoopState] {
        match self {
            LogDaemon::TaskTracker => &HadoopState::TASKTRACKER,
            LogDaemon::DataNode => &HadoopState::DATANODE,
        }
    }

    /// Short name used in instance ids and reports.
    pub fn short(self) -> &'static str {
        match self {
            LogDaemon::TaskTracker => "tt",
            LogDaemon::DataNode => "dn",
        }
    }
}

/// The white-box collector daemon: tails one Hadoop log on one node,
/// parses it incrementally, and serves per-second state vectors.
#[derive(Debug)]
pub struct HadoopLogRpcd {
    cluster: ClusterHandle,
    session: Session,
    daemon: LogDaemon,
    parser: LogParser,
    /// The second's state counts, as the daemon sends them.
    counts: Vec<f64>,
    span: SpanHandle,
}

impl HadoopLogRpcd {
    /// Opens the connection and announces the state schema.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the handshake fails to decode.
    pub fn connect(
        cluster: ClusterHandle,
        node: usize,
        daemon: LogDaemon,
    ) -> Result<Self, WireError> {
        let mut hello = MessageBuilder::new();
        hello.put_str("hadoop_log/1");
        hello.put_str(&cluster.slave_name(node));
        hello.put_str(match daemon {
            LogDaemon::TaskTracker => "tasktracker",
            LogDaemon::DataNode => "datanode",
        });
        hello.put_u32(daemon.states().len() as u32);
        for s in daemon.states() {
            hello.put_str(s.name());
        }
        Ok(HadoopLogRpcd {
            cluster,
            session: Session::open(node, hello, 0)?,
            daemon,
            // Instant events (task failures, block deletions) are reported
            // as occurrence counts over a two-minute rolling horizon:
            // failures arrive in bursts (a job burns its retry budget on a
            // sick node within ~30 s, then pauses until the next job), and
            // a shorter horizon lets the count drop to zero between
            // bursts, resetting the analysis's confirmation streak.
            parser: LogParser::with_instant_horizon(120),
            counts: Vec::new(),
            span: HADOOP_LOG_POLL.span(),
        })
    }

    /// The daemon variant (TaskTracker or DataNode).
    pub fn daemon(&self) -> LogDaemon {
        self.daemon
    }
}

/// The syscall-trace collector daemon — the paper's future-work strace
/// module (§5): per-second counts of system calls, by category, made by
/// the monitored tasktracker process tree on one node.
#[derive(Debug)]
pub struct StraceRpcd {
    cluster: ClusterHandle,
    session: Session,
    span: SpanHandle,
}

impl StraceRpcd {
    /// Opens the connection and announces the traced category schema.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the handshake fails to decode.
    pub fn connect(cluster: ClusterHandle, node: usize) -> Result<Self, WireError> {
        let mut hello = MessageBuilder::new();
        hello.put_str("strace/1");
        hello.put_str(&cluster.slave_name(node));
        hello.put_u32(procsim::syscalls::SYSCALL_CATEGORY_COUNT as u32);
        for c in procsim::syscalls::SYSCALL_CATEGORIES {
            hello.put_str(c);
        }
        Ok(StraceRpcd {
            cluster,
            session: Session::open(node, hello, 0)?,
            span: STRACE_POLL.span(),
        })
    }
}

impl Collector for SadcRpcd {
    fn kind(&self) -> &'static str {
        "sadc"
    }

    fn node(&self) -> usize {
        self.session.node
    }

    fn cluster(&self) -> &ClusterHandle {
        &self.cluster
    }

    fn width(&self) -> usize {
        self.metric_names.len()
    }

    fn poll_into_locked(
        &mut self,
        cluster: &mut Cluster,
        out: &mut [f64],
    ) -> Result<Option<u64>, WireError> {
        let _timer = self.span.enter();
        let t = cluster.now().saturating_sub(1);
        let Some(frame) = cluster.latest_frame(self.session.node) else {
            return Ok(None);
        };
        // Encoded from the node's frame, decoded into the caller's row.
        let values = frame.values();
        self.session
            .round_trip(0x01, t, values, |_| {}, out)
            .map(Some)
    }

    fn bandwidth(&self) -> BandwidthStats {
        self.session.conn.stats()
    }

    fn close(&mut self) {
        self.session.conn.close();
    }
}

impl Collector for HadoopLogRpcd {
    fn kind(&self) -> &'static str {
        "hadoop_log"
    }

    fn node(&self) -> usize {
        self.session.node
    }

    fn cluster(&self) -> &ClusterHandle {
        &self.cluster
    }

    fn width(&self) -> usize {
        self.daemon.states().len()
    }

    /// The log daemon always has a sample: an idle second is a vector of
    /// zero counts, not an absence of data.
    fn poll_into_locked(
        &mut self,
        cluster: &mut Cluster,
        out: &mut [f64],
    ) -> Result<Option<u64>, WireError> {
        let _timer = self.span.enter();
        let node = self.session.node;
        let lines = match self.daemon {
            LogDaemon::TaskTracker => cluster.drain_tasktracker_log(node),
            LogDaemon::DataNode => cluster.drain_datanode_log(node),
        };
        let t = cluster.now().saturating_sub(1);
        self.parser.feed_lines(lines.iter().map(String::as_str));
        let v = self.parser.sample(t);
        self.counts.clear();
        self.counts
            .extend(self.daemon.states().iter().map(|s| v[*s]));
        // Diagnostics a real daemon ships along: live instances, line stats.
        let live = self.parser.live_instances() as u32;
        let (seen, parsed) = self.parser.line_stats();
        let trailer = |resp: &mut MessageBuilder| {
            resp.put_u32(live).put_u64(seen).put_u64(parsed);
        };
        let counts = &self.counts;
        self.session
            .round_trip(0x02, t, counts, trailer, out)
            .map(Some)
    }

    fn bandwidth(&self) -> BandwidthStats {
        self.session.conn.stats()
    }

    fn close(&mut self) {
        self.session.conn.close();
    }
}

impl Collector for StraceRpcd {
    fn kind(&self) -> &'static str {
        "strace"
    }

    fn node(&self) -> usize {
        self.session.node
    }

    fn cluster(&self) -> &ClusterHandle {
        &self.cluster
    }

    fn width(&self) -> usize {
        procsim::syscalls::SYSCALL_CATEGORY_COUNT
    }

    fn poll_into_locked(
        &mut self,
        cluster: &mut Cluster,
        out: &mut [f64],
    ) -> Result<Option<u64>, WireError> {
        let _timer = self.span.enter();
        let t = cluster.now().saturating_sub(1);
        let Some(counts) = cluster.latest_tt_syscalls(self.session.node) else {
            return Ok(None);
        };
        self.session
            .round_trip(0x03, t, counts, |_| {}, out)
            .map(Some)
    }

    fn bandwidth(&self) -> BandwidthStats {
        self.session.conn.stats()
    }

    fn close(&mut self) {
        self.session.conn.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadoop_sim::cluster::ClusterConfig;

    fn handle(slaves: usize, seed: u64) -> ClusterHandle {
        ClusterHandle::new(Cluster::new(ClusterConfig::new(slaves, seed), Vec::new()))
    }

    #[test]
    fn sadc_poll_returns_full_metric_vector() {
        let h = handle(3, 1);
        let mut d = SadcRpcd::connect(h.clone(), 1).unwrap();
        assert!(
            d.poll_sample().unwrap().is_none(),
            "no frame before first tick"
        );
        h.tick();
        let snap = d.poll_sample().unwrap().unwrap();
        assert_eq!(snap.values.len(), 64 + 18 + 2 * 19);
        assert_eq!(snap.timestamp, 0);
        assert_eq!(d.metric_names().len(), snap.values.len());
        assert_eq!(d.metric_names()[0], "%user");
    }

    #[test]
    fn sadc_bandwidth_matches_table_4_shape() {
        let h = handle(2, 2);
        let mut d = SadcRpcd::connect(h.clone(), 0).unwrap();
        for _ in 0..30 {
            h.tick();
            d.poll_sample().unwrap();
        }
        let bw = d.bandwidth();
        assert_eq!(bw.iterations, 30);
        // Paper: ~1.98 kB static, ~1.22 kB/s per iteration. Ours must be
        // the same order of magnitude.
        assert!(
            bw.static_kb() > 0.5 && bw.static_kb() < 8.0,
            "static {}",
            bw.static_kb()
        );
        assert!(
            bw.per_iteration_kb() > 0.5 && bw.per_iteration_kb() < 4.0,
            "per-iter {}",
            bw.per_iteration_kb()
        );
    }

    #[test]
    fn log_daemons_report_their_own_states_only() {
        let h = handle(3, 3);
        let mut tt = HadoopLogRpcd::connect(h.clone(), 0, LogDaemon::TaskTracker).unwrap();
        let mut dn = HadoopLogRpcd::connect(h.clone(), 0, LogDaemon::DataNode).unwrap();
        let mut tt_any = 0.0;
        let mut dn_any = 0.0;
        for _ in 0..240 {
            h.tick();
            let s = tt.poll_sample().unwrap().unwrap();
            assert_eq!(s.values.len(), 6);
            tt_any += s.values.iter().sum::<f64>();
            let s = dn.poll_sample().unwrap().unwrap();
            assert_eq!(s.values.len(), 3);
            dn_any += s.values.iter().sum::<f64>();
        }
        assert!(tt_any > 0.0, "tasktracker states should be active");
        assert!(dn_any > 0.0, "datanode states should be active");
    }

    #[test]
    fn log_bandwidth_is_much_smaller_than_sadc() {
        let h = handle(2, 4);
        let mut sadc = SadcRpcd::connect(h.clone(), 0).unwrap();
        let mut hl = HadoopLogRpcd::connect(h.clone(), 0, LogDaemon::DataNode).unwrap();
        for _ in 0..60 {
            h.tick();
            sadc.poll_sample().unwrap();
            hl.poll_sample().unwrap();
        }
        // Paper Table 4: sadc 1.22 kB/s vs hl-dn 0.31 kB/s.
        assert!(
            hl.bandwidth().per_iteration_kb() < 0.5 * sadc.bandwidth().per_iteration_kb(),
            "hl {} vs sadc {}",
            hl.bandwidth().per_iteration_kb(),
            sadc.bandwidth().per_iteration_kb()
        );
    }

    #[test]
    fn two_daemons_drain_independently() {
        // A TaskTracker daemon must not steal the DataNode daemon's lines.
        let h = handle(2, 5);
        let mut tt = HadoopLogRpcd::connect(h.clone(), 0, LogDaemon::TaskTracker).unwrap();
        let mut dn = HadoopLogRpcd::connect(h.clone(), 0, LogDaemon::DataNode).unwrap();
        h.with(|c| c.advance(120));
        tt.poll_sample().unwrap();
        let dn_sample = dn.poll_sample().unwrap().unwrap();
        // DataNode lines were still there for the dn daemon.
        assert_eq!(dn_sample.values.len(), 3);
    }

    #[test]
    fn cluster_handle_is_cloneable_and_shared() {
        let h = handle(2, 6);
        let h2 = h.clone();
        h.tick();
        h2.tick();
        assert_eq!(h.now(), 2);
        assert_eq!(h2.n_slaves(), 2);
        assert_eq!(h.slave_name(1), "slave01");
    }

    #[test]
    fn every_daemon_kind_drives_through_the_collector_trait() {
        // The generic contract: all three kinds poll through one vtable.
        let h = handle(3, 7);
        let mut collectors: Vec<Box<dyn Collector + Send>> = vec![
            Box::new(SadcRpcd::connect(h.clone(), 1).unwrap()),
            Box::new(HadoopLogRpcd::connect(h.clone(), 1, LogDaemon::TaskTracker).unwrap()),
            Box::new(StraceRpcd::connect(h.clone(), 1).unwrap()),
        ];
        assert_eq!(
            collectors.iter().map(|c| c.kind()).collect::<Vec<_>>(),
            ["sadc", "hadoop_log", "strace"]
        );
        assert!(collectors.iter().all(|c| c.node() == 1));
        h.with(|c| c.advance(30));
        for c in &mut collectors {
            let s = c.poll_sample().unwrap().expect("sample after 30 ticks");
            assert_eq!(s.timestamp, 29, "{} timestamp", c.kind());
            assert!(!s.values.is_empty(), "{} values", c.kind());
            assert!(c.bandwidth().iterations >= 1, "{} accounted", c.kind());
            c.close();
        }
    }

    #[test]
    fn strace_polls_syscall_category_counts() {
        let h = handle(2, 41);
        let mut d = StraceRpcd::connect(h.clone(), 0).unwrap();
        assert!(
            d.poll_sample().unwrap().is_none(),
            "no trace before first tick"
        );
        h.with(|c| c.advance(90));
        let snap = d.poll_sample().unwrap().unwrap();
        assert_eq!(snap.values.len(), procsim::syscalls::SYSCALL_CATEGORY_COUNT);
        // The tasktracker event loop polls even when idle.
        assert!(
            snap.values[3] > 0.0,
            "epoll_wait baseline: {:?}",
            snap.values
        );
        assert!(d.bandwidth().per_iteration_kb() > 0.0);
    }

    /// What `SadcRpcd::connect` sent before the metric names were shared:
    /// protocol tag, node name, count and all 120 names in one frame, plus
    /// the per-message overhead, on top of the session bytes every
    /// connection is charged at open.
    fn unshared_sadc_static_bytes(node_name: &str, names: &[String]) -> u64 {
        let mut b = MessageBuilder::new();
        b.put_str("sadc/1");
        b.put_str(node_name);
        b.put_u32(names.len() as u32);
        for n in names {
            b.put_str(n);
        }
        Connection::open().stats().static_bytes + b.into_frame().len() as u64 + 66
    }

    #[test]
    fn shared_schema_charges_each_connection_the_full_handshake() {
        // Node names of different lengths: the handshake carries the name.
        let h = handle(101, 12);
        h.tick();
        let frame_names = procsim::metrics::sadc_names();
        assert_eq!(
            h.with(|c| c.latest_frame(0).unwrap().values().len()),
            frame_names.len()
        );
        for node in [0, 7, 100] {
            let d = SadcRpcd::connect(h.clone(), node).unwrap();
            assert_eq!(d.metric_names(), frame_names, "schema is the frame's");
            assert_eq!(
                d.bandwidth().static_bytes,
                unshared_sadc_static_bytes(&h.slave_name(node), &frame_names),
                "node {node}"
            );
        }
        let a = SadcRpcd::connect(h.clone(), 0).unwrap();
        let b = SadcRpcd::connect(h.clone(), 1).unwrap();
        assert!(Arc::ptr_eq(&a.metric_names, &b.metric_names));
    }

    #[test]
    fn per_iteration_wire_bytes_are_exactly_table_4s() {
        // Request 9 B; response 4 + 8 + (4 + 8n) B, plus 20 B of parser
        // diagnostics from the log daemons; 66 B overhead per message.
        // 1117 + 225 + 201 = the 1543 B per node per second of Table 4's sum.
        let h = handle(3, 13);
        let mut sadc = SadcRpcd::connect(h.clone(), 1).unwrap();
        let mut tt = HadoopLogRpcd::connect(h.clone(), 1, LogDaemon::TaskTracker).unwrap();
        let mut dn = HadoopLogRpcd::connect(h.clone(), 1, LogDaemon::DataNode).unwrap();
        for _ in 0..5 {
            h.tick();
            sadc.poll_sample().unwrap();
            tt.poll_sample().unwrap();
            dn.poll_sample().unwrap();
        }
        let per_iter = |bw: BandwidthStats| (bw.iterations, bw.call_bytes / bw.iterations);
        assert_eq!(per_iter(sadc.bandwidth()), (5, 1117));
        assert_eq!(per_iter(tt.bandwidth()), (5, 225));
        assert_eq!(per_iter(dn.bandwidth()), (5, 201));
    }

    #[test]
    fn every_poll_form_moves_the_same_bytes_and_values() {
        // Two same-seed clusters, one polled through `poll_sample` (a fresh
        // vector per poll, the lock per poll), one through
        // `poll_into_locked` into the rows of one frame (the lock held by
        // the caller): same samples, same per-node accounting, every kind.
        let (ha, hb) = (handle(3, 14), handle(3, 14));
        let mut a: Vec<Box<dyn Collector>> = Vec::new();
        let mut sadc = Vec::new();
        let mut logs = Vec::new();
        let mut strace = Vec::new();
        for node in 0..3 {
            a.push(Box::new(SadcRpcd::connect(ha.clone(), node).unwrap()));
            a.push(Box::new(
                HadoopLogRpcd::connect(ha.clone(), node, LogDaemon::TaskTracker).unwrap(),
            ));
            a.push(Box::new(StraceRpcd::connect(ha.clone(), node).unwrap()));
            sadc.push(SadcRpcd::connect(hb.clone(), node).unwrap());
            logs.push(HadoopLogRpcd::connect(hb.clone(), node, LogDaemon::TaskTracker).unwrap());
            strace.push(StraceRpcd::connect(hb.clone(), node).unwrap());
        }
        let widths = [sadc[0].width(), logs[0].width(), strace[0].width()];
        assert_eq!(widths, [120, 6, procsim::syscalls::SYSCALL_CATEGORY_COUNT]);
        // The three kinds' rows of all three nodes side by side, in node
        // order, so a row that spilled would overwrite its neighbour.
        let stride: usize = widths.iter().sum();
        let mut frame = vec![f64::NAN; 3 * stride];
        // Step 0 polls before the first tick: sadc and strace have nothing.
        for step in 0..40 {
            if step > 0 {
                ha.tick();
                hb.tick();
            }
            let owned: Vec<_> = a.iter_mut().map(|c| c.poll_sample().unwrap()).collect();
            let polled = hb.with(|c| {
                let mut polled = Vec::new();
                for node in 0..3 {
                    let mut at = node * stride;
                    for (kind, width) in widths.iter().enumerate() {
                        let range = at..at + width;
                        let row = &mut frame[range.clone()];
                        let t = match kind {
                            0 => sadc[node].poll_into_locked(c, row),
                            1 => logs[node].poll_into_locked(c, row),
                            _ => strace[node].poll_into_locked(c, row),
                        };
                        polled.push((t.unwrap(), range));
                        at += width;
                    }
                }
                polled
            });
            for ((t, range), expected) in polled.into_iter().zip(&owned) {
                assert_eq!(t, expected.as_ref().map(|s| s.timestamp), "step {step}");
                if let Some(s) = expected {
                    assert_eq!(frame[range], s.values, "step {step}");
                }
            }
        }
        for node in 0..3 {
            assert_eq!(a[node * 3].bandwidth(), sadc[node].bandwidth());
            assert_eq!(a[node * 3 + 1].bandwidth(), logs[node].bandwidth());
            assert_eq!(a[node * 3 + 2].bandwidth(), strace[node].bandwidth());
            assert_eq!(sadc[node].bandwidth().iterations, 39);
            assert_eq!(logs[node].bandwidth().iterations, 40);
        }
    }

    #[test]
    fn a_row_of_the_wrong_width_is_a_decode_error() {
        let h = handle(2, 15);
        h.tick();
        let mut sadc = SadcRpcd::connect(h.clone(), 0).unwrap();
        let mut row = vec![0.0; sadc.width() - 1];
        let err = h.with(|c| sadc.poll_into_locked(c, &mut row)).unwrap_err();
        assert_eq!(
            err,
            WireError::ArrayLength {
                expected: 119,
                got: 120
            }
        );
        // The bytes went over the wire all the same.
        assert_eq!(sadc.bandwidth().iterations, 1);
    }
}
