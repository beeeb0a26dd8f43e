//! The metric inventory exposed by the simulated sysstat/`/proc` substrate.
//!
//! The paper's `sadc` data-collection module gathers "64 node-level metrics,
//! 18 network-interface-specific metrics and 19 process-level metrics"
//! (§3.5). This module pins down exactly that inventory, with sysstat-
//! flavored names, the one layout of the `sadc` row built from it
//! ([`SADC_WIDTH`], [`sadc_names`]), and index constants for the metrics
//! the simulator and tests need to address individually.

/// Names of the 64 node-level metrics, in vector order.
pub const NODE_METRICS: [&str; 64] = [
    // CPU utilization (percentages of total CPU time)
    "%user",
    "%nice",
    "%system",
    "%iowait",
    "%steal",
    "%idle",
    // Task creation and switching
    "proc/s",
    "cswch/s",
    // Queue lengths and load averages
    "runq-sz",
    "plist-sz",
    "ldavg-1",
    "ldavg-5",
    "ldavg-15",
    "blocked",
    // Memory utilization
    "kbmemfree",
    "kbmemused",
    "%memused",
    "kbbuffers",
    "kbcached",
    "kbcommit",
    "%commit",
    "kbactive",
    "kbinact",
    "kbdirty",
    // Swap space
    "kbswpfree",
    "kbswpused",
    "%swpused",
    "kbswpcad",
    "%swpcad",
    // Paging
    "pgpgin/s",
    "pgpgout/s",
    "fault/s",
    "majflt/s",
    "pgfree/s",
    "pgscank/s",
    "pgscand/s",
    "pgsteal/s",
    "%vmeff",
    // Swapping
    "pswpin/s",
    "pswpout/s",
    // Block I/O
    "tps",
    "rtps",
    "wtps",
    "bread/s",
    "bwrtn/s",
    // Inode, file and other kernel tables
    "dentunusd",
    "file-nr",
    "inode-nr",
    "pty-nr",
    // TCP
    "active/s",
    "passive/s",
    "iseg/s",
    "oseg/s",
    // UDP
    "idgm/s",
    "odgm/s",
    "noport/s",
    "idgmerr/s",
    // Sockets
    "totsck",
    "tcpsck",
    "udpsck",
    "rawsck",
    "ip-frag",
    "tcp-tw",
    // Interrupts
    "intr/s",
];

/// Names of the 18 per-network-interface metrics, in vector order.
pub const IFACE_METRICS: [&str; 18] = [
    "rxpck/s", "txpck/s", "rxkB/s", "txkB/s", "rxcmp/s", "txcmp/s", "rxmcst/s", "%ifutil",
    "rxerr/s", "txerr/s", "coll/s", "rxdrop/s", "txdrop/s", "txcarr/s", "rxfram/s", "rxfifo/s",
    "txfifo/s", "ifup",
];

/// Names of the 19 per-process metrics, in vector order.
pub const PROCESS_METRICS: [&str; 19] = [
    "%usr",
    "%system",
    "%CPU",
    "minflt/s",
    "majflt/s",
    "vsz_kb",
    "rss_kb",
    "%MEM",
    "kB_rd/s",
    "kB_wr/s",
    "kB_ccwr/s",
    "iodelay",
    "cswch/s",
    "nvcswch/s",
    "threads",
    "fds",
    "cpu_secs",
    "rd_ops/s",
    "wr_ops/s",
];

/// Index constants for node-level metrics the simulator and fault models
/// address directly.
pub mod node_idx {
    /// `%user`
    pub const CPU_USER: usize = 0;
    /// `%nice`
    pub const CPU_NICE: usize = 1;
    /// `%system`
    pub const CPU_SYSTEM: usize = 2;
    /// `%iowait`
    pub const CPU_IOWAIT: usize = 3;
    /// `%steal`
    pub const CPU_STEAL: usize = 4;
    /// `%idle`
    pub const CPU_IDLE: usize = 5;
    /// `proc/s`
    pub const PROCS_PER_SEC: usize = 6;
    /// `cswch/s`
    pub const CSWCH_PER_SEC: usize = 7;
    /// `runq-sz`
    pub const RUNQ_SZ: usize = 8;
    /// `plist-sz`
    pub const PLIST_SZ: usize = 9;
    /// `ldavg-1`
    pub const LDAVG_1: usize = 10;
    /// `ldavg-5`
    pub const LDAVG_5: usize = 11;
    /// `ldavg-15`
    pub const LDAVG_15: usize = 12;
    /// `blocked`
    pub const BLOCKED: usize = 13;
    /// `kbmemfree`
    pub const KBMEMFREE: usize = 14;
    /// `kbmemused`
    pub const KBMEMUSED: usize = 15;
    /// `%memused`
    pub const PCT_MEMUSED: usize = 16;
    /// `kbcached`
    pub const KBCACHED: usize = 18;
    /// `kbdirty`
    pub const KBDIRTY: usize = 23;
    /// `pgpgin/s`
    pub const PGPGIN: usize = 29;
    /// `pgpgout/s`
    pub const PGPGOUT: usize = 30;
    /// `fault/s`
    pub const FAULTS: usize = 31;
    /// `majflt/s`
    pub const MAJFLT: usize = 32;
    /// `tps`
    pub const TPS: usize = 40;
    /// `rtps`
    pub const RTPS: usize = 41;
    /// `wtps`
    pub const WTPS: usize = 42;
    /// `bread/s`
    pub const BREAD: usize = 43;
    /// `bwrtn/s`
    pub const BWRTN: usize = 44;
    /// `active/s` (TCP active opens)
    pub const TCP_ACTIVE: usize = 49;
    /// `passive/s` (TCP passive opens)
    pub const TCP_PASSIVE: usize = 50;
    /// `iseg/s` (TCP segments received)
    pub const TCP_ISEG: usize = 51;
    /// `oseg/s` (TCP segments sent)
    pub const TCP_OSEG: usize = 52;
    /// `totsck`
    pub const TOTSCK: usize = 57;
    /// `tcpsck`
    pub const TCPSCK: usize = 58;
    /// `intr/s`
    pub const INTR: usize = 63;
}

/// Index constants for per-interface metrics.
pub mod iface_idx {
    /// `rxpck/s`
    pub const RXPCK: usize = 0;
    /// `txpck/s`
    pub const TXPCK: usize = 1;
    /// `rxkB/s`
    pub const RXKB: usize = 2;
    /// `txkB/s`
    pub const TXKB: usize = 3;
    /// `%ifutil`
    pub const IFUTIL: usize = 7;
    /// `rxerr/s`
    pub const RXERR: usize = 8;
    /// `txerr/s`
    pub const TXERR: usize = 9;
    /// `rxdrop/s`
    pub const RXDROP: usize = 11;
    /// `txdrop/s`
    pub const TXDROP: usize = 12;
    /// `ifup` (link state)
    pub const IFUP: usize = 17;
}

/// Index constants for per-process metrics.
pub mod process_idx {
    /// `%usr`
    pub const PCT_USR: usize = 0;
    /// `%system`
    pub const PCT_SYSTEM: usize = 1;
    /// `%CPU`
    pub const PCT_CPU: usize = 2;
    /// `rss_kb`
    pub const RSS_KB: usize = 6;
    /// `kB_rd/s`
    pub const KB_RD: usize = 8;
    /// `kB_wr/s`
    pub const KB_WR: usize = 9;
    /// `iodelay`
    pub const IODELAY: usize = 11;
    /// `threads`
    pub const THREADS: usize = 14;
    /// `cpu_secs`
    pub const CPU_SECS: usize = 16;
}

/// Number of node-level metrics (64, per the paper).
pub const NODE_METRIC_COUNT: usize = NODE_METRICS.len();
/// Number of per-interface metrics (18, per the paper).
pub const IFACE_METRIC_COUNT: usize = IFACE_METRICS.len();
/// Number of per-process metrics (19, per the paper).
pub const PROCESS_METRIC_COUNT: usize = PROCESS_METRICS.len();

/// Width of the `sadc` row, the one layout every rendered frame has: the
/// node metrics, one interface (`eth0`) and two tracked processes (the
/// `datanode` and `tasktracker` daemons).
pub const SADC_WIDTH: usize = NODE_METRIC_COUNT + IFACE_METRIC_COUNT + 2 * PROCESS_METRIC_COUNT;

/// The `sadc` row's metric names, in frame order: the node metrics as
/// they are, the others qualified by interface or process (`eth0.rxkB/s`,
/// `tasktracker.%CPU`).
pub fn sadc_names() -> Vec<String> {
    let mut names: Vec<String> = NODE_METRICS.iter().map(|s| (*s).to_owned()).collect();
    names.extend(IFACE_METRICS.iter().map(|s| format!("eth0.{s}")));
    for process in ["datanode", "tasktracker"] {
        names.extend(PROCESS_METRICS.iter().map(|s| format!("{process}.{s}")));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_sizes_match_the_paper() {
        assert_eq!(NODE_METRIC_COUNT, 64);
        assert_eq!(IFACE_METRIC_COUNT, 18);
        assert_eq!(PROCESS_METRIC_COUNT, 19);
    }

    #[test]
    fn metric_names_are_unique() {
        fn all_unique(names: &[&str]) -> bool {
            let mut seen = std::collections::HashSet::new();
            names.iter().all(|n| seen.insert(*n))
        }
        assert!(all_unique(&NODE_METRICS));
        assert!(all_unique(&IFACE_METRICS));
        assert!(all_unique(&PROCESS_METRICS));
    }

    #[test]
    fn the_sadc_row_has_sadc_width_distinct_names() {
        let names = sadc_names();
        assert_eq!(SADC_WIDTH, 120);
        assert_eq!(names.len(), SADC_WIDTH);
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), SADC_WIDTH);
        let frame = crate::node::NodeSim::new(crate::node::NodeSpec::ec2_large("n1"), 1).tick(
            &crate::Activity::idle(),
            &crate::ProcessActivity::default(),
            &crate::ProcessActivity::default(),
        );
        assert_eq!(frame.values().len(), SADC_WIDTH);
    }

    #[test]
    fn index_constants_point_at_the_right_names() {
        assert_eq!(NODE_METRICS[node_idx::CPU_USER], "%user");
        assert_eq!(NODE_METRICS[node_idx::CPU_IDLE], "%idle");
        assert_eq!(NODE_METRICS[node_idx::CPU_IOWAIT], "%iowait");
        assert_eq!(NODE_METRICS[node_idx::CSWCH_PER_SEC], "cswch/s");
        assert_eq!(NODE_METRICS[node_idx::KBMEMFREE], "kbmemfree");
        assert_eq!(NODE_METRICS[node_idx::PCT_MEMUSED], "%memused");
        assert_eq!(NODE_METRICS[node_idx::KBCACHED], "kbcached");
        assert_eq!(NODE_METRICS[node_idx::KBDIRTY], "kbdirty");
        assert_eq!(NODE_METRICS[node_idx::TPS], "tps");
        assert_eq!(NODE_METRICS[node_idx::BREAD], "bread/s");
        assert_eq!(NODE_METRICS[node_idx::BWRTN], "bwrtn/s");
        assert_eq!(NODE_METRICS[node_idx::TCP_ISEG], "iseg/s");
        assert_eq!(NODE_METRICS[node_idx::TCP_OSEG], "oseg/s");
        assert_eq!(NODE_METRICS[node_idx::INTR], "intr/s");
        assert_eq!(NODE_METRICS[node_idx::FAULTS], "fault/s");
        assert_eq!(NODE_METRICS[node_idx::MAJFLT], "majflt/s");

        assert_eq!(IFACE_METRICS[iface_idx::RXKB], "rxkB/s");
        assert_eq!(IFACE_METRICS[iface_idx::TXKB], "txkB/s");
        assert_eq!(IFACE_METRICS[iface_idx::RXDROP], "rxdrop/s");
        assert_eq!(IFACE_METRICS[iface_idx::IFUP], "ifup");

        assert_eq!(PROCESS_METRICS[process_idx::PCT_CPU], "%CPU");
        assert_eq!(PROCESS_METRICS[process_idx::RSS_KB], "rss_kb");
        assert_eq!(PROCESS_METRICS[process_idx::CPU_SECS], "cpu_secs");
    }
}
