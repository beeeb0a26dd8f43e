//! N-tenant soak tests for the `asdf serve` daemon.
//!
//! The serve model's whole promise is isolation: each tenant's alarm
//! stream must be a pure function of its own frame sequence, no matter
//! how many other tenants share the process or how badly one of them
//! misbehaves. These tests check that promise end to end:
//!
//! * healthy tenants produce **bitwise identical** alarm streams whether
//!   they run solo or next to a flooding tenant that is actively shedding;
//! * tenants join and leave mid-run without a restart;
//! * graceful shutdown flushes every in-flight envelope (exact counts);
//! * an 8-tenant soak keeps every scheduler-lag watermark bounded.

use std::sync::Arc;
use std::time::Duration;

use asdf::serve::{ServeDaemon, ServeOptions, TenantReport, TenantSpec};
use asdf_modules::kernel::CentroidBlock;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::wire::Handshake;

fn tiny_model() -> Arc<BlackBoxModel> {
    let dim = 120;
    Arc::new(BlackBoxModel {
        stddev: vec![1.0; dim],
        centroids: CentroidBlock::from_rows(&[vec![0.0; dim], vec![5.0; dim]]),
    })
}

fn soak_opts() -> ServeOptions {
    ServeOptions {
        wall_per_tick: Duration::from_millis(2),
        window: 10,
        slide: 10,
        ..ServeOptions::default()
    }
}

fn join(daemon: &mut ServeDaemon, tenant: &str, spec: TenantSpec) {
    daemon
        .join_tenant(Handshake::new(tenant).encode(), spec)
        .expect("tenant joins");
}

fn drain(daemon: &mut ServeDaemon, tenant: &str) -> TenantReport {
    assert!(
        daemon.wait_idle(tenant, Duration::from_secs(60)),
        "tenant `{tenant}` should finish streaming"
    );
    daemon.leave_tenant(tenant).expect("tenant leaves cleanly")
}

/// Runs one tenant alone in its own daemon — the reference stream.
fn solo_run(tenant: &str, spec: TenantSpec, opts: ServeOptions) -> TenantReport {
    let mut daemon = ServeDaemon::new(tiny_model(), opts);
    join(&mut daemon, tenant, spec);
    drain(&mut daemon, tenant)
}

#[test]
fn healthy_tenants_match_their_solo_runs_while_a_flooder_sheds() {
    let steps = 120;
    let opts = soak_opts();
    let solos: Vec<TenantReport> = (1..=3)
        .map(|seed| {
            solo_run(
                &format!("healthy{seed}"),
                TenantSpec::paced(seed, steps),
                opts.clone(),
            )
        })
        .collect();

    // Same three tenants again, now sharing the process with a flooding
    // tenant whose tiny queue (four stream-seconds of four nodes) forces
    // shed-oldest under max-rate streaming.
    let mut daemon = ServeDaemon::new(tiny_model(), opts);
    for seed in 1..=3u64 {
        join(
            &mut daemon,
            &format!("healthy{seed}"),
            TenantSpec::paced(seed, steps),
        );
    }
    let flood_spec = TenantSpec {
        queue_capacity: Some(16),
        ..TenantSpec::flooding(99, 600)
    };
    join(&mut daemon, "flooder", flood_spec);

    let flood_report = drain(&mut daemon, "flooder");
    assert!(
        flood_report.shed > 0,
        "a max-rate tenant behind a 16-row queue must shed"
    );

    for (seed, solo) in (1..=3u64).zip(solos) {
        let multi = drain(&mut daemon, &format!("healthy{seed}"));
        assert_eq!(multi.shed, 0, "healthy tenant {seed} must not shed");
        assert!(!solo.bb_alarms.is_empty(), "solo run {seed} should alarm");
        assert_eq!(
            multi.bb_alarms, solo.bb_alarms,
            "tenant {seed} black-box stream diverged from its solo run"
        );
        assert_eq!(
            multi.wb_tt_alarms, solo.wb_tt_alarms,
            "tenant {seed} white-box log stream diverged from its solo run"
        );
        assert_eq!(
            multi.wb_st_alarms, solo.wb_st_alarms,
            "tenant {seed} strace stream diverged from its solo run"
        );
    }
}

#[test]
fn tenants_join_and_leave_mid_run_without_restart() {
    let mut daemon = ServeDaemon::new(tiny_model(), soak_opts());
    join(&mut daemon, "steady", TenantSpec::paced(5, 200));

    // A second tenant joins while the first is mid-stream, finishes its
    // shorter workload, and leaves — the first keeps running untouched.
    join(&mut daemon, "transient", TenantSpec::paced(6, 40));
    let transient = drain(&mut daemon, "transient");
    assert_eq!(transient.shed, 0);
    // 40 steps / slide 10 = 4 evaluations x 4 nodes x (alarm + dist).
    assert_eq!(transient.bb_alarms.len(), 32);
    assert_eq!(daemon.tenants(), ["steady"]);

    let steady = drain(&mut daemon, "steady");
    assert_eq!(steady.shed, 0);
    assert_eq!(steady.bb_alarms.len(), 200 / 10 * 4 * 2);
}

#[test]
fn shutdown_flushes_every_inflight_envelope() {
    let opts = ServeOptions {
        white_box: false,
        ..soak_opts()
    };
    let mut daemon = ServeDaemon::new(tiny_model(), opts);
    for (tenant, seed) in [("flush_a", 11u64), ("flush_b", 12u64)] {
        join(&mut daemon, tenant, TenantSpec::paced(seed, 80));
        assert!(daemon.wait_idle(tenant, Duration::from_secs(60)));
    }
    let reports = daemon.shutdown().expect("graceful shutdown");
    assert_eq!(reports.len(), 2);
    for report in &reports {
        // 80 steps / slide 10 = 8 evaluations x 4 nodes x (alarm + dist):
        // an abortive stop could truncate the tail, a flush cannot.
        assert_eq!(
            report.bb_alarms.len(),
            64,
            "tenant {} lost envelopes at shutdown",
            report.tenant
        );
    }
}

#[test]
fn eight_tenant_soak_keeps_scheduler_lag_bounded() {
    // The CI `soak` job's short N=8 run: seven paced tenants plus one
    // flooding tenant. Every healthy watermark must stay small even while
    // the flooder sheds — per-tenant queues and engines own their lag.
    let opts = ServeOptions {
        wall_per_tick: Duration::from_millis(5),
        window: 10,
        slide: 10,
        white_box: false,
        ..ServeOptions::default()
    };
    let steps = 100;
    let mut daemon = ServeDaemon::new(tiny_model(), opts);
    for seed in 1..=7u64 {
        join(
            &mut daemon,
            &format!("soak{seed}"),
            TenantSpec::paced(seed, steps),
        );
    }
    let flood_spec = TenantSpec {
        queue_capacity: Some(32),
        ..TenantSpec::flooding(8, 400)
    };
    join(&mut daemon, "soak_flood", flood_spec);

    let flood = drain(&mut daemon, "soak_flood");
    assert!(flood.shed > 0, "flooding tenant should shed");

    for seed in 1..=7u64 {
        let report = drain(&mut daemon, &format!("soak{seed}"));
        assert_eq!(report.shed, 0, "healthy tenant soak{seed} shed frames");
        assert_eq!(report.bb_alarms.len(), (steps / 10 * 4 * 2) as usize);
        assert!(
            report.lag_watermark <= 8,
            "tenant soak{seed} lag watermark {} exceeds the soak bound",
            report.lag_watermark
        );
    }
}

/// Threads of this process right now.
#[cfg(target_os = "linux")]
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:"));
    line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .expect("a Threads: line")
}

/// Threads are counted per process and the soaks above run tenants of their
/// own beside this one, so the count is taken in a child process that runs
/// this test alone: see `a_tenant_costs_two_threads_whatever_its_size`.
#[cfg(target_os = "linux")]
#[test]
#[ignore = "run by a_tenant_costs_two_threads_whatever_its_size, alone in a process"]
fn thread_budget_measured_alone() {
    let opts = ServeOptions {
        slaves: 20,
        ..soak_opts()
    };
    let mut daemon = ServeDaemon::new(tiny_model(), opts);
    let idle = threads();
    join(&mut daemon, "budget", TenantSpec::paced(3, 30));
    let joined = threads();
    assert!(
        joined <= idle + 2,
        "a 20-slave white-box tenant (7 module instances) should cost a pacer and a \
         feeder, not {} threads",
        joined - idle
    );
    let report = drain(&mut daemon, "budget");
    assert_eq!(report.bb_alarms.len(), 30 / 10 * 20 * 2);
    // A joined thread has exited, but procfs may count it a moment longer.
    let patience = std::time::Instant::now() + Duration::from_secs(5);
    while threads() != idle && std::time::Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        threads(),
        idle,
        "leaving should return the tenant's threads"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn a_tenant_costs_two_threads_whatever_its_size() {
    let this_binary = std::env::current_exe().expect("test binary path");
    let child = std::process::Command::new(this_binary)
        .args(["--ignored", "--exact", "thread_budget_measured_alone"])
        .output()
        .expect("child test process runs");
    let report = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && report.contains("1 passed"),
        "{report}"
    );
}
