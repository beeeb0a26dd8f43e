//! The per-node metric synthesizer.
//!
//! [`NodeSim`] turns a stream of realized [`Activity`] reports (one per
//! second), with the realized usage of the node's `datanode` and
//! `tasktracker` daemons, into the `sadc` row of [`crate::metrics`]: 64
//! node-level metrics, 18 for the `eth0` interface, and 19 for each
//! daemon, [`crate::metrics::SADC_WIDTH`] values. The synthesis is
//! deterministic for a given seed; measurement noise is multiplicative with
//! a small configurable amplitude, mirroring the jitter of real `/proc`
//! sampling.
//!
//! A caller that samples every second renders in place:
//! [`NodeSim::tick_into`] and [`NodeSim::syscall_rates_into`] write the next
//! second over the last one's storage, so a fleet of simulated nodes
//! allocates nothing per node per second. [`NodeSim::tick`] and
//! [`NodeSim::syscall_rates`] are the same code into a fresh frame.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::activity::{Activity, ProcessActivity};
use crate::metrics::{iface_idx, node_idx, process_idx};
use crate::metrics::{IFACE_METRIC_COUNT, NODE_METRIC_COUNT, PROCESS_METRIC_COUNT, SADC_WIDTH};

/// CPU cores of every simulated node: the paper's evaluation hardware,
/// Amazon EC2 "Large" instances with two dual-core CPUs.
pub const NODE_CORES: u32 = 4;
/// Physical memory of every simulated node, in megabytes (7.5 GB).
pub const NODE_MEM_MB: u64 = 7_680;
/// Sequential disk bandwidth of every simulated node, in KB/s (~80 MB/s).
pub const NODE_DISK_KBPS: f64 = 80_000.0;
/// Network line rate of every simulated node, in KB/s (~1 Gbit/s).
pub const NODE_NET_KBPS: f64 = 125_000.0;

/// A simulated node: an EC2 "Large" instance ([`NODE_CORES`],
/// [`NODE_MEM_MB`], [`NODE_DISK_KBPS`], [`NODE_NET_KBPS`]) known by its
/// hostname.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Hostname, used as sample origin throughout the pipeline.
    pub name: String,
}

impl NodeSpec {
    /// The paper's evaluation hardware, named `name`.
    pub fn ec2_large(name: impl Into<String>) -> Self {
        NodeSpec { name: name.into() }
    }
}

/// One second's worth of rendered metrics for a node, in one buffer.
///
/// The values are the `sadc` row the black-box collector ships to
/// analysis, named by [`crate::metrics::sadc_names`]: the 64 node-level
/// metrics, then 18 for `eth0`, then 19 for the `datanode` and 19 for the
/// `tasktracker`, each block ordered as its inventory in
/// [`crate::metrics`]. [`MetricFrame::node`], [`MetricFrame::iface`] and
/// [`MetricFrame::process`] are views into it.
///
/// The default frame is empty; [`NodeSim::tick_into`] sizes it on first
/// use and writes every later second over the same buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricFrame {
    values: Vec<f64>,
}

impl MetricFrame {
    /// Every metric, node, interface and process blocks in order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The 64 node-level metrics, ordered as [`crate::metrics::NODE_METRICS`].
    pub fn node(&self) -> &[f64] {
        &self.values[..NODE_METRIC_COUNT]
    }

    /// The `eth0` interface's 18 metrics, ordered as
    /// [`crate::metrics::IFACE_METRICS`].
    pub fn iface(&self) -> &[f64] {
        &self.values[NODE_METRIC_COUNT..][..IFACE_METRIC_COUNT]
    }

    /// The 19 metrics of the `datanode` (`i = 0`) or the `tasktracker`
    /// (`i = 1`), ordered as [`crate::metrics::PROCESS_METRICS`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is neither.
    pub fn process(&self, i: usize) -> &[f64] {
        let start = NODE_METRIC_COUNT + IFACE_METRIC_COUNT + i * PROCESS_METRIC_COUNT;
        &self.values[start..][..PROCESS_METRIC_COUNT]
    }
}

/// Deterministic synthesizer of sysstat metrics for one node.
///
/// # Examples
///
/// ```
/// use procsim::activity::{Activity, ProcessActivity};
/// use procsim::node::{NodeSim, NodeSpec};
/// use procsim::metrics::node_idx;
///
/// let mut node = NodeSim::new(NodeSpec::ec2_large("node1"), 42);
/// let busy = Activity::idle().with_cpu_user(3.0); // 3 of 4 cores busy
/// let daemon = ProcessActivity::default();
/// let frame = node.tick(&busy, &daemon, &daemon);
/// assert!(frame.node()[node_idx::CPU_USER] > 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct NodeSim {
    spec: NodeSpec,
    rng: SmallRng,
    /// Separate stream for syscall-trace jitter so that enabling syscall
    /// tracing does not perturb the metric noise sequence.
    sys_rng: SmallRng,
    noise_amp: f64,
    // Slow state carried across ticks.
    load1: f64,
    load5: f64,
    load15: f64,
    cached_kb: f64,
    dirty_kb: f64,
}

impl NodeSim {
    /// Creates a node simulator with the default 3% measurement noise.
    pub fn new(spec: NodeSpec, seed: u64) -> Self {
        // Per-node seed mixing keeps distinct nodes decorrelated even when a
        // cluster constructs them from sequential seeds.
        let mixed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(spec.name.bytes().map(u64::from).sum::<u64>());
        NodeSim {
            rng: SmallRng::seed_from_u64(mixed),
            sys_rng: SmallRng::seed_from_u64(mixed ^ 0x5ca1_1ab1_e5ca_11ab),
            noise_amp: 0.03,
            load1: 0.1,
            load5: 0.1,
            load15: 0.1,
            cached_kb: 400_000.0,
            dirty_kb: 2_000.0,
            spec,
        }
    }

    /// Overrides the multiplicative noise amplitude (0 disables noise,
    /// useful for exact-value tests).
    #[must_use]
    pub fn with_noise(mut self, amp: f64) -> Self {
        self.noise_amp = amp;
        self
    }

    /// The node's description.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Advances one second: renders the metric frame implied by `activity`
    /// and the realized usage of the `datanode` and `tasktracker` daemons.
    pub fn tick(
        &mut self,
        activity: &Activity,
        datanode: &ProcessActivity,
        tasktracker: &ProcessActivity,
    ) -> MetricFrame {
        let mut frame = MetricFrame::default();
        self.tick_into(activity, datanode, tasktracker, &mut frame);
        frame
    }

    /// [`NodeSim::tick`] into `frame`, replacing its contents and reusing
    /// its storage: once `frame` has held one second, the next is written
    /// over it without an allocation. The random draws are the ones `tick`
    /// makes, in the same order, so the frame is the same bits either way.
    pub fn tick_into(
        &mut self,
        activity: &Activity,
        datanode: &ProcessActivity,
        tasktracker: &ProcessActivity,
        frame: &mut MetricFrame,
    ) {
        frame.values.resize(SADC_WIDTH, 0.0);
        let (node, rest) = frame.values.split_at_mut(NODE_METRIC_COUNT);
        let (iface, daemons) = rest.split_at_mut(IFACE_METRIC_COUNT);
        self.render_node(activity, node);
        self.render_iface(activity, iface);
        // One call site for both daemons: two call sites measured 5-7%
        // slower per render (2-vCPU x86-64), from how the renderer inlines.
        for (p, m) in [datanode, tasktracker]
            .into_iter()
            .zip(daemons.chunks_exact_mut(PROCESS_METRIC_COUNT))
        {
            self.render_process(p, m);
        }
    }

    /// Synthesizes one second of per-category syscall counts for a
    /// process with realized activity `p`
    /// (see [`crate::syscalls::syscall_rates`]).
    pub fn syscall_rates(&mut self, p: &ProcessActivity) -> Vec<f64> {
        crate::syscalls::syscall_rates(p, &mut self.sys_rng)
    }

    /// [`NodeSim::syscall_rates`] into `out`, replacing its contents and
    /// reusing its allocation.
    pub fn syscall_rates_into(&mut self, p: &ProcessActivity, out: &mut Vec<f64>) {
        crate::syscalls::syscall_rates_into(p, &mut self.sys_rng, out);
    }

    /// The noise source for one render call: a copy of the metric
    /// generator, written back by [`NodeSim::put_noise`] once the call is
    /// done. A local copy stays in registers across the draws instead of
    /// being loaded from and stored to the node on every one.
    fn take_noise(&self) -> Noise {
        Noise {
            rng: self.rng.clone(),
            amp: self.noise_amp,
        }
    }

    /// Stores the generator state a render call advanced.
    fn put_noise(&mut self, noise: Noise) {
        self.rng = noise.rng;
    }

    fn render_node(&mut self, a: &Activity, m: &mut [f64]) {
        let mut nz = self.take_noise();
        let cores = f64::from(NODE_CORES);
        m.fill(0.0);

        // --- CPU ---
        // Baseline OS hum of ~0.5% plus realized usage, clamped to capacity.
        let user_frac = ((a.cpu_user / cores) * 100.0).min(100.0);
        let sys_frac = ((a.cpu_system / cores) * 100.0 + 0.4).min(100.0);
        // iowait: time cores sat idle while IO was pending.
        let busy = (user_frac + sys_frac).min(100.0);
        let iowait = ((a.io_wait_tasks / cores) * 100.0).min(100.0 - busy);
        let user = nz.noisy(user_frac);
        let system = nz.noisy(sys_frac);
        let iowait = nz.noisy(iowait);
        let nice = nz.hum(0.2);
        let steal = nz.hum(0.1);
        let idle = (100.0 - user - system - iowait - nice - steal).max(0.0);
        m[node_idx::CPU_USER] = user;
        m[node_idx::CPU_NICE] = nice;
        m[node_idx::CPU_SYSTEM] = system;
        m[node_idx::CPU_IOWAIT] = iowait;
        m[node_idx::CPU_STEAL] = steal;
        m[node_idx::CPU_IDLE] = idle;

        // --- Tasks and switching ---
        m[node_idx::PROCS_PER_SEC] = nz.noisy(0.5 + a.procs_spawned);
        m[node_idx::CSWCH_PER_SEC] =
            nz.noisy(900.0 + 2500.0 * a.cpu_total() + 0.8 * (a.net_rx_kb + a.net_tx_kb) / 16.0);

        // --- Queues and load ---
        let runq = a.running_tasks + nz.hum(0.3);
        let blocked = a.io_wait_tasks;
        m[node_idx::RUNQ_SZ] = runq;
        m[node_idx::PLIST_SZ] = nz.noisy(130.0 + 3.0 * a.running_tasks);
        // Exponentially-weighted load averages with 60/300/900 s constants.
        let inst = runq + blocked;
        self.load1 += (inst - self.load1) / 60.0;
        self.load5 += (inst - self.load5) / 300.0;
        self.load15 += (inst - self.load15) / 900.0;
        m[node_idx::LDAVG_1] = self.load1;
        m[node_idx::LDAVG_5] = self.load5;
        m[node_idx::LDAVG_15] = self.load15;
        m[node_idx::BLOCKED] = blocked;

        // --- Memory ---
        let total_kb = NODE_MEM_MB as f64 * 1024.0;
        // Page cache grows with I/O traffic and decays slowly.
        self.cached_kb += 0.25 * (a.disk_read_kb + a.disk_write_kb) - self.cached_kb * 0.001;
        self.cached_kb = self.cached_kb.clamp(100_000.0, total_kb * 0.5);
        self.dirty_kb += 0.5 * a.disk_write_kb - self.dirty_kb * 0.2;
        self.dirty_kb = self.dirty_kb.max(0.0);
        let base_used_kb = 450_000.0; // kernel + daemons
        let app_kb = a.mem_used_mb * 1024.0;
        let used_kb = (base_used_kb + app_kb + self.cached_kb).min(total_kb * 0.98);
        m[node_idx::KBMEMFREE] = nz.noisy(total_kb - used_kb);
        m[node_idx::KBMEMUSED] = nz.noisy(used_kb);
        m[node_idx::PCT_MEMUSED] = (used_kb / total_kb) * 100.0;
        m[17] = nz.noisy(90_000.0); // kbbuffers
        m[node_idx::KBCACHED] = nz.noisy(self.cached_kb);
        m[19] = nz.noisy(base_used_kb + app_kb * 1.2); // kbcommit
        m[20] = (m[19] / total_kb) * 100.0; // %commit
        m[21] = nz.noisy(used_kb * 0.6); // kbactive
        m[22] = nz.noisy(used_kb * 0.25); // kbinact
        m[node_idx::KBDIRTY] = nz.noisy(self.dirty_kb);

        // --- Swap: quiescent unless memory pressure exceeds capacity ---
        let swap_total_kb = 2_097_152.0; // 2 GB swap partition
        let overshoot_kb = (base_used_kb + app_kb - total_kb * 0.95).max(0.0);
        let swp_used = overshoot_kb.min(swap_total_kb);
        m[24] = swap_total_kb - swp_used; // kbswpfree
        m[25] = swp_used; // kbswpused
        m[26] = swp_used / swap_total_kb * 100.0; // %swpused
        m[27] = swp_used * 0.1; // kbswpcad
        m[28] = if swp_used > 0.0 { 10.0 } else { 0.0 }; // %swpcad
        m[38] = if overshoot_kb > 0.0 {
            nz.noisy(overshoot_kb / 4.0)
        } else {
            0.0
        }; // pswpin/s
        m[39] = if overshoot_kb > 0.0 {
            nz.noisy(overshoot_kb / 4.0)
        } else {
            0.0
        }; // pswpout/s

        // --- Paging ---
        m[node_idx::PGPGIN] = nz.noisy(a.disk_read_kb);
        m[node_idx::PGPGOUT] = nz.noisy(a.disk_write_kb);
        m[node_idx::FAULTS] = nz.noisy(250.0 + 400.0 * a.cpu_total());
        m[node_idx::MAJFLT] = nz.hum(0.5);
        m[33] = nz.noisy(300.0 + 0.5 * (a.disk_read_kb + a.disk_write_kb)); // pgfree/s
        m[34] = nz.hum(1.0); // pgscank/s
        m[35] = nz.hum(1.0); // pgscand/s
        m[36] = nz.hum(0.5); // pgsteal/s
        m[37] = if m[34] + m[35] > 0.0 {
            90.0 + nz.hum(10.0)
        } else {
            0.0
        }; // %vmeff

        // --- Block I/O ---
        // Average request ~128 KB sequential, ~16 KB random; blend.
        let rtps = a.disk_read_kb / 48.0;
        let wtps = a.disk_write_kb / 48.0;
        m[node_idx::RTPS] = nz.noisy(rtps);
        m[node_idx::WTPS] = nz.noisy(wtps);
        m[node_idx::TPS] = nz.noisy(rtps + wtps + 1.0);
        m[node_idx::BREAD] = nz.noisy(a.disk_read_kb * 2.0); // 512 B sectors
        m[node_idx::BWRTN] = nz.noisy(a.disk_write_kb * 2.0);

        // --- Kernel tables ---
        m[45] = nz.noisy(24_000.0); // dentunusd
        m[46] = nz.noisy(3_200.0 + 8.0 * a.running_tasks); // file-nr
        m[47] = nz.noisy(52_000.0); // inode-nr
        m[48] = 4.0; // pty-nr

        // --- TCP / UDP ---
        m[node_idx::TCP_ACTIVE] = nz.noisy(0.2 + a.tcp_conns_opened * 0.6);
        m[node_idx::TCP_PASSIVE] = nz.noisy(0.2 + a.tcp_conns_opened * 0.4);
        // ~1.4 KB of payload per segment.
        m[node_idx::TCP_ISEG] = nz.noisy(6.0 + a.net_rx_kb / 1.4);
        m[node_idx::TCP_OSEG] = nz.noisy(6.0 + a.net_tx_kb / 1.4);
        m[53] = nz.noisy(1.0); // idgm/s
        m[54] = nz.noisy(1.0); // odgm/s
        m[55] = nz.hum(0.2); // noport/s
        m[56] = nz.hum(0.1); // idgmerr/s

        // --- Sockets ---
        let socks = 160.0 + a.tcp_socks;
        m[node_idx::TOTSCK] = nz.noisy(socks + 40.0);
        m[node_idx::TCPSCK] = nz.noisy(socks);
        m[59] = nz.noisy(12.0); // udpsck
        m[60] = 0.0; // rawsck
        m[61] = 0.0; // ip-frag
        m[62] = nz.noisy(2.0 + a.tcp_conns_opened * 0.5); // tcp-tw

        // --- Interrupts ---
        m[node_idx::INTR] = nz.noisy(
            600.0
                + (a.net_rx_kb + a.net_tx_kb) / 1.4
                + (a.disk_read_kb + a.disk_write_kb) / 48.0
                + 800.0 * a.cpu_total(),
        );
        self.put_noise(nz);
    }

    fn render_iface(&mut self, a: &Activity, m: &mut [f64]) {
        let mut nz = self.take_noise();
        m.fill(0.0);
        let rx_pkts = a.net_rx_kb / 1.4;
        let tx_pkts = a.net_tx_kb / 1.4;
        m[iface_idx::RXPCK] = nz.noisy(4.0 + rx_pkts);
        m[iface_idx::TXPCK] = nz.noisy(4.0 + tx_pkts);
        m[iface_idx::RXKB] = nz.noisy(a.net_rx_kb);
        m[iface_idx::TXKB] = nz.noisy(a.net_tx_kb);
        m[4] = 0.0; // rxcmp/s
        m[5] = 0.0; // txcmp/s
        m[6] = nz.noisy(0.5); // rxmcst/s
        m[iface_idx::IFUTIL] = ((a.net_rx_kb + a.net_tx_kb) / NODE_NET_KBPS * 100.0).min(100.0);
        // Error counters are ~zero on a healthy interface; packet-loss
        // faults surface as inbound drops.
        m[iface_idx::RXERR] = nz.hum(0.05);
        m[iface_idx::TXERR] = nz.hum(0.05);
        m[10] = 0.0; // coll/s
        m[iface_idx::RXDROP] = if a.packet_loss > 0.0 {
            nz.noisy((4.0 + rx_pkts) * a.packet_loss)
        } else {
            nz.hum(0.05)
        };
        m[iface_idx::TXDROP] = nz.hum(0.05);
        m[13] = 0.0; // txcarr/s
        m[14] = 0.0; // rxfram/s
        m[15] = 0.0; // rxfifo/s
        m[16] = 0.0; // txfifo/s
        m[iface_idx::IFUP] = 1.0;
        self.put_noise(nz);
    }

    fn render_process(&mut self, p: &ProcessActivity, m: &mut [f64]) {
        let mut nz = self.take_noise();
        let cores = f64::from(NODE_CORES);
        let total_kb = NODE_MEM_MB as f64 * 1024.0;
        m.fill(0.0);
        let usr_pct = (p.cpu_user / cores * 100.0).min(100.0);
        let sys_pct = (p.cpu_system / cores * 100.0).min(100.0);
        m[process_idx::PCT_USR] = nz.noisy(usr_pct);
        m[process_idx::PCT_SYSTEM] = nz.noisy(sys_pct);
        m[process_idx::PCT_CPU] = (m[0] + m[1]).min(100.0);
        m[3] = nz.noisy(20.0 + 100.0 * (p.cpu_user + p.cpu_system)); // minflt/s
        m[4] = nz.hum(0.2); // majflt/s
        let rss_kb = p.rss_mb * 1024.0;
        m[5] = nz.noisy(rss_kb * 2.2); // vsz_kb (JVM virtual >> resident)
        m[process_idx::RSS_KB] = nz.noisy(rss_kb);
        m[7] = rss_kb / total_kb * 100.0; // %MEM
        m[process_idx::KB_RD] = nz.noisy(p.read_kb);
        m[process_idx::KB_WR] = nz.noisy(p.write_kb);
        m[10] = nz.noisy(p.write_kb * 0.02); // kB_ccwr/s (cancelled writes)
        m[process_idx::IODELAY] = nz.noisy((p.read_kb + p.write_kb) / NODE_DISK_KBPS * 100.0);
        m[12] = nz.noisy(40.0 + 400.0 * (p.cpu_user + p.cpu_system)); // cswch/s
        m[13] = nz.noisy(5.0 + 60.0 * (p.cpu_user + p.cpu_system)); // nvcswch/s
        m[process_idx::THREADS] = p.threads.max(1.0);
        m[15] = p.fds.max(8.0); // fds
                                // Reported as a per-interval rate (CPU seconds consumed this
                                // second), like sadc's per-interval deltas — a cumulative counter
                                // would make samples time-dependent and unusable for clustering.
        m[process_idx::CPU_SECS] = p.cpu_user + p.cpu_system;
        m[17] = nz.noisy(p.read_kb / 48.0); // rd_ops/s
        m[18] = nz.noisy(p.write_kb / 48.0); // wr_ops/s
        self.put_noise(nz);
    }
}

/// A render call's measurement noise: the node's metric generator, copied
/// out for the call, and the noise amplitude.
struct Noise {
    rng: SmallRng,
    amp: f64,
}

impl Noise {
    /// Multiplicative jitter around `x`.
    fn noisy(&mut self, x: f64) -> f64 {
        if self.amp == 0.0 || x == 0.0 {
            return x;
        }
        let jitter = 1.0 + self.amp * (self.rng.gen::<f64>() * 2.0 - 1.0);
        (x * jitter).max(0.0)
    }

    /// Additive non-negative jitter for near-zero baselines.
    fn hum(&mut self, scale: f64) -> f64 {
        if self.amp == 0.0 {
            return 0.0;
        }
        self.rng.gen::<f64>() * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_activity() -> Activity {
        let mut a = Activity::idle()
            .with_cpu_user(2.0)
            .with_cpu_system(0.5)
            .with_disk_read_kb(4_000.0)
            .with_disk_write_kb(2_000.0)
            .with_net_rx_kb(1_000.0)
            .with_net_tx_kb(800.0)
            .with_mem_used_mb(2_000.0)
            .with_running_tasks(3.0);
        a.tcp_conns_opened = 4.0;
        a.tcp_socks = 30.0;
        a
    }

    /// One second with both daemons idle.
    fn tick(node: &mut NodeSim, a: &Activity) -> MetricFrame {
        let idle = ProcessActivity::default();
        node.tick(a, &idle, &idle)
    }

    #[test]
    fn same_seed_same_frames() {
        let spec = NodeSpec::ec2_large("n1");
        let mut a = NodeSim::new(spec.clone(), 7);
        let mut b = NodeSim::new(spec, 7);
        let act = busy_activity();
        for _ in 0..10 {
            assert_eq!(tick(&mut a, &act), tick(&mut b, &act));
        }
    }

    /// A frame's values as their bits.
    fn frame_bits(f: &MetricFrame) -> Vec<u64> {
        f.values().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tick_into_reuses_one_frame_and_equals_tick_bitwise() {
        let spec = NodeSpec::ec2_large("n1");
        let mut fresh = NodeSim::new(spec.clone(), 7);
        let mut reused = NodeSim::new(spec, 7);
        let mut frame = MetricFrame::default();
        let mut syscalls = Vec::new();
        let mut addrs = None;
        for t in 0..200u32 {
            // Activity that moves, with and without packet loss, so every
            // branch of the renderers writes over the other's leftovers.
            let mut act = busy_activity().with_cpu_user(f64::from(t % 5));
            act.packet_loss = if t % 3 == 0 { 0.4 } else { 0.0 };
            if t % 7 == 0 {
                act = act.with_mem_used_mb(9_000.0);
            }
            let pa = ProcessActivity {
                cpu_user: 0.1 * f64::from(t % 4),
                read_kb: 100.0 * f64::from(t % 6),
                rss_mb: 300.0,
                threads: 40.0,
                ..Default::default()
            };
            reused.tick_into(&act, &pa, &pa, &mut frame);
            assert_eq!(
                frame_bits(&frame),
                frame_bits(&fresh.tick(&act, &pa, &pa)),
                "t={t}"
            );
            reused.syscall_rates_into(&pa, &mut syscalls);
            let want = fresh.syscall_rates(&pa);
            assert_eq!(syscalls.len(), want.len());
            for (got, want) in syscalls.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "syscalls, t={t}");
            }
            // The metric buffer and the syscall buffer stay where the first
            // call put them.
            let now = (frame.values().as_ptr(), syscalls.as_ptr());
            assert_eq!(*addrs.get_or_insert(now), now, "t={t}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = NodeSpec::ec2_large("n1");
        let mut a = NodeSim::new(spec.clone(), 7);
        let mut b = NodeSim::new(spec, 8);
        let act = busy_activity();
        assert_ne!(tick(&mut a, &act), tick(&mut b, &act));
    }

    #[test]
    fn cpu_percentages_sum_to_about_100() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        for _ in 0..50 {
            let f = tick(&mut node, &busy_activity());
            let sum: f64 = f.node()[0..6].iter().sum();
            assert!((85.0..=115.0).contains(&sum), "cpu sum {sum}");
        }
    }

    #[test]
    fn idle_node_is_mostly_idle() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let f = tick(&mut node, &Activity::idle());
        assert!(f.node()[node_idx::CPU_IDLE] > 95.0);
        assert!(f.node()[node_idx::CPU_USER] < 3.0);
        assert_eq!(f.iface()[iface_idx::IFUP], 1.0);
    }

    #[test]
    fn disk_metrics_track_activity() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3).with_noise(0.0);
        let f = tick(&mut node, &busy_activity());
        assert_eq!(f.node()[node_idx::BREAD], 8_000.0);
        assert_eq!(f.node()[node_idx::BWRTN], 4_000.0);
        assert_eq!(f.node()[node_idx::PGPGIN], 4_000.0);
    }

    #[test]
    fn packet_loss_inflates_rxdrop() {
        let mut healthy = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let mut lossy = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let act = busy_activity();
        let mut lossy_act = act;
        lossy_act.packet_loss = 0.5;
        let hf = tick(&mut healthy, &act);
        let lf = tick(&mut lossy, &lossy_act);
        assert!(lf.iface()[iface_idx::RXDROP] > 100.0 * hf.iface()[iface_idx::RXDROP]);
    }

    #[test]
    fn load_average_rises_under_sustained_load_and_lags() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let act = busy_activity();
        let first = tick(&mut node, &act).node()[node_idx::LDAVG_1];
        let mut last = first;
        for _ in 0..120 {
            last = tick(&mut node, &act).node()[node_idx::LDAVG_1];
        }
        assert!(last > first, "load1 should climb: {first} -> {last}");
        // 15-minute average must lag the 1-minute average.
        let f = tick(&mut node, &act);
        assert!(f.node()[node_idx::LDAVG_15] < f.node()[node_idx::LDAVG_1]);
    }

    #[test]
    fn frame_flattening_and_names_align() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let datanode = ProcessActivity {
            cpu_user: 0.2,
            rss_mb: 300.0,
            threads: 40.0,
            ..Default::default()
        };
        let tasktracker = ProcessActivity {
            cpu_user: 0.4,
            rss_mb: 500.0,
            threads: 60.0,
            ..Default::default()
        };
        let f = node.tick(&busy_activity(), &datanode, &tasktracker);
        let flat = f.values();
        let blocks = [f.node(), f.iface(), f.process(0), f.process(1)];
        assert_eq!(blocks.concat(), flat, "one buffer, blocks in order");
        let names = crate::metrics::sadc_names();
        assert_eq!(flat.len(), 64 + 18 + 2 * 19);
        assert_eq!(names.len(), flat.len());
        assert_eq!(names[0], "%user");
        assert_eq!(names[64], "eth0.rxpck/s");
        assert_eq!(names[64 + 18], "datanode.%usr");
        assert_eq!(names[64 + 18 + 19], "tasktracker.%usr");
    }

    #[test]
    fn process_cpu_seconds_are_a_rate_not_a_counter() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3).with_noise(0.0);
        let pa = ProcessActivity {
            cpu_user: 0.5,
            cpu_system: 0.5,
            ..Default::default()
        };
        let f1 = node.tick(&Activity::idle(), &pa, &pa);
        let f2 = node.tick(&Activity::idle(), &pa, &pa);
        // Identical activity ⇒ identical sample: no time dependence.
        assert_eq!(f1.process(0)[process_idx::CPU_SECS], 1.0);
        assert_eq!(f2.process(0)[process_idx::CPU_SECS], 1.0);
    }

    #[test]
    fn memory_pressure_triggers_swap_activity() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3).with_noise(0.0);
        let calm = tick(&mut node, &busy_activity());
        assert_eq!(calm.node()[39], 0.0, "no swapping when memory fits");
        let hog = Activity::idle().with_mem_used_mb(9_000.0);
        let pressured = tick(&mut node, &hog);
        assert!(pressured.node()[39] > 0.0, "pswpout under pressure");
        assert!(pressured.node()[25] > 0.0, "kbswpused under pressure");
    }

    #[test]
    fn cpu_demand_is_clamped_to_capacity() {
        let mut node = NodeSim::new(NodeSpec::ec2_large("n1"), 3);
        let over = Activity::idle().with_cpu_user(40.0);
        let f = tick(&mut node, &over);
        assert!(f.node()[node_idx::CPU_USER] <= 103.1); // noise margin
        assert!(f.node()[node_idx::CPU_IDLE] >= 0.0);
    }
}
