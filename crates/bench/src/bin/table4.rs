//! Reproduces **Table 4** of the paper: per-node RPC bandwidth of the
//! three collector types (`sadc`, `hadoop_log`-datanode,
//! `hadoop_log`-tasktracker) over the TCP transport.
//!
//! Every byte is accounted on messages that are actually encoded and
//! decoded (paper reference values: static overhead ≈ 6.06 kB per node,
//! per-iteration bandwidth ≈ 1.85 kB/s total: sadc 1.22, hl-dn 0.31,
//! hl-tt 0.32).
//!
//! Usage: `cargo run -p bench --bin table4 --release [-- --secs S]`

use asdf::experiments;
use asdf::report;

fn main() {
    let secs = bench::secs_from_iter("table4", 600, std::env::args().skip(1));
    eprintln!("[table4] accounting RPC bytes over {secs} collection iterations ...");
    let rows = experiments::table4(secs);
    println!("{}", report::render_table4(&rows));

    println!("shape checks:");
    let sadc = &rows[0];
    let dn = &rows[1];
    let tt = &rows[2];
    let sum = &rows[3];
    println!(
        "  sadc dominates per-iteration bandwidth: {} ({:.2} vs {:.2}/{:.2} kB/s)",
        if sadc.per_iter_kb > dn.per_iter_kb && sadc.per_iter_kb > tt.per_iter_kb {
            "yes"
        } else {
            "NO"
        },
        sadc.per_iter_kb,
        dn.per_iter_kb,
        tt.per_iter_kb
    );
    println!(
        "  single-node monitoring cost is negligible: {:.2} kB/s total, {:.2} kB static",
        sum.per_iter_kb, sum.static_kb
    );
    println!(
        "  100-node aggregate would be ~{:.1} kB/s (paper: \"on the order of 1 MB/s even \
         when monitoring hundreds of nodes\")",
        sum.per_iter_kb * 100.0
    );
}
