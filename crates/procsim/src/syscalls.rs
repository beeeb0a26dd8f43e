//! Simulated per-process system-call traces.
//!
//! The ASDF paper's future-work section (§5) proposes "a strace module
//! that tracks all of the system calls made by a given process ... to
//! detect and diagnose anomalies by building a probabilistic model of the
//! order and timing of system calls". This module provides the substrate:
//! per-second counts of system calls by category, synthesized from the
//! same realized [`ProcessActivity`] that drives the `/proc` metrics.
//!
//! The synthesis encodes the signature that makes syscall tracing useful
//! for hang diagnosis: a process that is *computing* makes almost no
//! system calls, a process doing I/O makes many, and an *idle* process
//! makes a steady trickle of timer/poll calls.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::activity::ProcessActivity;

/// System-call categories traced per process, in vector order.
pub const SYSCALL_CATEGORIES: [&str; 10] = [
    "read",
    "write",
    "futex",
    "epoll_wait",
    "clone",
    "mmap",
    "recvfrom",
    "sendto",
    "fsync",
    "stat",
];

/// Number of traced syscall categories.
pub const SYSCALL_CATEGORY_COUNT: usize = SYSCALL_CATEGORIES.len();

/// Synthesizes one second of per-category syscall counts for a process
/// with realized activity `p`, using `rng` for trace jitter.
///
/// Deterministic given the rng state; callers that need reproducibility
/// should use a dedicated seeded rng (as [`crate::node::NodeSim`] does).
pub fn syscall_rates(p: &ProcessActivity, rng: &mut SmallRng) -> Vec<f64> {
    let mut v = Vec::new();
    syscall_rates_into(p, rng, &mut v);
    v
}

/// [`syscall_rates`] into `out`, replacing its contents and reusing its
/// allocation: a caller that traces every second keeps one buffer.
pub fn syscall_rates_into(p: &ProcessActivity, rng: &mut SmallRng, out: &mut Vec<f64>) {
    out.clear();
    out.resize(SYSCALL_CATEGORY_COUNT, 0.0);
    let v = out.as_mut_slice();
    let jitter = |rng: &mut SmallRng, x: f64| {
        if x <= 0.0 {
            0.0
        } else {
            x * (0.92 + 0.16 * rng.gen::<f64>())
        }
    };
    // I/O is issued in ~64 KB chunks.
    v[0] = jitter(rng, 4.0 + p.read_kb / 64.0); // read
    v[1] = jitter(rng, 2.0 + p.write_kb / 64.0); // write
                                                 // Thread synchronization scales with threads and CPU activity.
    v[2] = jitter(
        rng,
        6.0 * p.threads.max(1.0) + 40.0 * (p.cpu_user + p.cpu_system),
    ); // futex
       // Event loops poll steadily even when idle.
    v[3] = jitter(rng, 12.0 + 2.0 * p.threads.max(1.0)); // epoll_wait
    v[4] = jitter(rng, 0.02 * p.threads.max(1.0)); // clone
    v[5] = jitter(rng, 0.5 + (p.read_kb + p.write_kb) / 4096.0); // mmap
                                                                 // Network I/O in ~8 KB segments (the JVM's socket buffer drain size).
    v[6] = jitter(rng, 1.0 + p.read_kb / 8.0 * 0.2); // recvfrom
    v[7] = jitter(rng, 1.0 + p.write_kb / 8.0 * 0.2); // sendto
    v[8] = jitter(rng, p.write_kb / 1024.0); // fsync
    v[9] = jitter(rng, 3.0 + 0.5 * p.fds.max(1.0) / 10.0); // stat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn categories_are_unique_and_counted() {
        let set: std::collections::HashSet<&str> = SYSCALL_CATEGORIES.iter().copied().collect();
        assert_eq!(set.len(), SYSCALL_CATEGORY_COUNT);
        assert_eq!(SYSCALL_CATEGORY_COUNT, 10);
    }

    #[test]
    fn io_heavy_process_reads_and_writes() {
        let busy = ProcessActivity {
            read_kb: 32_768.0,
            write_kb: 16_384.0,
            threads: 40.0,
            ..Default::default()
        };
        let idle = ProcessActivity {
            threads: 40.0,
            ..Default::default()
        };
        let b = syscall_rates(&busy, &mut rng());
        let i = syscall_rates(&idle, &mut rng());
        assert!(
            b[0] > 50.0 * i[0].max(1.0),
            "read calls scale with read volume"
        );
        assert!(
            b[1] > 20.0 * i[1].max(1.0),
            "write calls scale with write volume"
        );
        assert!(b[8] > i[8], "fsync follows writes");
    }

    #[test]
    fn cpu_bound_process_mostly_futexes() {
        let spin = ProcessActivity {
            cpu_user: 1.0,
            threads: 10.0,
            ..Default::default()
        };
        let v = syscall_rates(&spin, &mut rng());
        assert!(v[2] > v[0] + v[1], "compute shows as futex churn, not I/O");
    }

    #[test]
    fn idle_process_still_polls() {
        let idle = ProcessActivity {
            threads: 20.0,
            ..Default::default()
        };
        let v = syscall_rates(&idle, &mut rng());
        assert!(v[3] > 10.0, "event loops poll while idle");
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rates_are_deterministic_per_rng_state() {
        let p = ProcessActivity {
            read_kb: 100.0,
            threads: 5.0,
            ..Default::default()
        };
        assert_eq!(syscall_rates(&p, &mut rng()), syscall_rates(&p, &mut rng()));
    }
}
