//! Reproduces **Table 3** of the paper: CPU and memory cost of the ASDF
//! data-collection processes and of the analysis core.
//!
//! Numbers are *measured on this machine*: the collector daemons are polled
//! against a live simulated node for `--secs` one-second iterations, and
//! the CPU time their code consumes is metered via `/proc/self/stat`
//! (paper reference values: `hadoop_log_rpcd` ≈ 0.02% CPU / 2.4 MB,
//! `sadc_rpcd` ≈ 0.36% / 0.77 MB, `fpt-core` ≈ 0.81% / 5.1 MB).
//!
//! Usage: `cargo run -p bench --bin table3 --release [-- --secs S]`
//!
//! What watching the framework costs the framework — the `asdf-obs`
//! self-overhead — is `perfsuite`'s `obs_overhead_pct` row.

use asdf::experiments;
use asdf::report;
use asdf_rpc::meter::{process_peak_rss_mb, process_rss_mb};

fn main() {
    let secs = bench::secs_from_iter("table3", 600, std::env::args().skip(1));
    eprintln!("[table3] metering collectors over {secs} monitored seconds ...");
    let rows = experiments::table3(secs);
    println!("{}", report::render_table3(&rows));
    println!("shape check (paper: every collection component << 1% CPU per node):");
    for r in &rows {
        println!(
            "  {:<32} {:.4}% CPU -> {}",
            r.process,
            r.cpu_percent,
            if r.cpu_percent < 1.0 {
                "negligible"
            } else {
                "HIGH"
            }
        );
    }
    let total: f64 = rows.iter().map(|r| r.cpu_percent).sum();
    println!("  total monitoring overhead: {total:.3}% CPU per monitored node");

    // Whole-process footprint, same /proc meters the rows are built from.
    if let (Some(rss), Some(peak)) = (process_rss_mb(), process_peak_rss_mb()) {
        println!("  harness process RSS: {rss:.1} MB (peak {peak:.1} MB)");
    }
}
