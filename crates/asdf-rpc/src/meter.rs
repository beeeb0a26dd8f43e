//! Process resource metering for the Table 3 overhead experiment.
//!
//! Table 3 reports the CPU and memory cost of the data-collection
//! processes. [`CpuMeter`] measures the calling process's accumulated
//! user+system CPU time (from `/proc/self/stat` on Linux, falling back to
//! wall-clock timing elsewhere), so the overhead harness can attribute CPU
//! to specific collector code regions.

use std::time::Instant;

/// Snapshot-based CPU time meter.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    start_cpu: Option<f64>,
    start_wall: Instant,
}

impl CpuMeter {
    /// Starts measuring from now.
    pub fn start() -> Self {
        CpuMeter {
            start_cpu: process_cpu_seconds(),
            start_wall: Instant::now(),
        }
    }

    /// CPU seconds consumed by this process since [`CpuMeter::start`].
    ///
    /// Falls back to wall-clock elapsed time when `/proc` is unavailable
    /// (a conservative over-estimate).
    pub fn elapsed_cpu(&self) -> f64 {
        match (self.start_cpu, process_cpu_seconds()) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => self.start_wall.elapsed().as_secs_f64(),
        }
    }

    /// Wall-clock seconds since [`CpuMeter::start`].
    pub fn elapsed_wall(&self) -> f64 {
        self.start_wall.elapsed().as_secs_f64()
    }
}

/// Total user+system CPU seconds of the current process, if measurable.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), 1-indexed, after the `(comm)` field
    // which may contain spaces — find the closing paren first.
    let after = stat.rfind(')')?;
    let fields: Vec<&str> = stat[after + 1..].split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let hz = clock_ticks_per_second();
    Some((utime + stime) / hz)
}

/// Resident set size of the current process in megabytes, if measurable.
pub fn process_rss_mb() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// Peak resident set size (`VmHWM`) of the current process in megabytes,
/// if measurable. Unlike [`process_rss_mb`] this is the kernel-tracked
/// high-water mark, so it captures transient allocation spikes between
/// two snapshots.
pub fn process_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn clock_ticks_per_second() -> f64 {
    // _SC_CLK_TCK is 100 on every mainstream Linux configuration.
    100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_meter_observes_busy_work() {
        let meter = CpuMeter::start();
        // Burn a little CPU.
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        let cpu = meter.elapsed_cpu();
        let wall = meter.elapsed_wall();
        assert!(cpu >= 0.0);
        assert!(wall > 0.0);
        // CPU time can't exceed wall time by more than scheduler jitter on a
        // single thread.
        assert!(cpu <= wall + 0.5, "cpu {cpu} vs wall {wall}");
    }

    #[test]
    fn proc_readers_work_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_seconds().is_some());
            let rss = process_rss_mb().expect("statm readable");
            assert!(rss > 0.0 && rss < 100_000.0);
            let peak = process_peak_rss_mb().expect("status readable");
            // Peak can only trail current RSS by page-accounting noise.
            assert!(
                peak >= rss * 0.5 && peak < 100_000.0,
                "peak {peak} rss {rss}"
            );
        }
    }
}
