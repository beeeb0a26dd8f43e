//! The five workloads and the one training recipe they share.
//!
//! Every DAG workload is a closed loop, unpaced: the driver asks the engine
//! for the next monitored second when the previous one has returned, in one
//! process, with at most `nproc` (2 here) engine threads. `serve2_flood` is a
//! saturation run. Sizes are per *pass*; a run repeats passes until its
//! `--seconds` are used and reports over all of them.

use std::sync::Arc;

use asdf::experiments::{train_model, CampaignConfig};
use asdf_modules::training::BlackBoxModel;

/// A `TickEngine` deployment over one simulated cluster with one DiskHog.
#[derive(Debug, Clone)]
pub struct DagSpec {
    pub nodes: usize,
    /// `> 1` wires `sadc → rack_agg → metric_rank`; `0` is the flat wiring.
    pub racks: usize,
    pub black_box: bool,
    pub white_box: bool,
    pub metric_rank: bool,
    pub window: usize,
    pub slide: usize,
    pub engine_threads: usize,
    pub sim_shards: usize,
    /// Monitored seconds per pass.
    pub monitored_s: u64,
    pub fault_node: usize,
    pub fault_at: u64,
}

impl DagSpec {
    /// Whether any analysis path needs the trained black-box model.
    pub fn needs_model(&self) -> bool {
        self.black_box
    }

    /// Evaluation windows a pass completes.
    pub fn windows(&self) -> u64 {
        let (window, slide) = (self.window as u64, self.slide as u64);
        if self.monitored_s < window {
            0
        } else {
            (self.monitored_s - window) / slide + 1
        }
    }

    /// `(tap id, envelopes per node-window)` of every analysis tap built.
    pub fn taps(&self) -> Vec<(&'static str, u64)> {
        let mut taps = Vec::new();
        if self.black_box {
            taps.push(("bb", 2));
        }
        if self.white_box {
            taps.push(("wb_tt", 2));
            taps.push(("wb_dn", 2));
        }
        if self.metric_rank {
            taps.push(("mr", 1));
        }
        taps
    }
}

/// `ServeDaemon` under two flooding tenants that stream the same frames.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub tenants: usize,
    pub slaves: usize,
    /// One-second collection steps each tenant streams per pass.
    pub steps: u64,
    /// Steps of the one paced pass that `peak_rss_mb` is taken from.
    pub paced_steps: u64,
    pub window: usize,
}

impl ServeSpec {
    /// Frames a pass of `steps` steps pushes: three collectors per slave
    /// per step.
    pub fn frames(&self, steps: u64) -> u64 {
        self.tenants as u64 * steps * self.slaves as u64 * 3
    }
}

#[derive(Debug, Clone)]
pub enum Kind {
    Dag(DagSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The workloads, full size or `--smoke` size (≤ 20 nodes, ≤ 120 monitored
/// seconds: the same wiring and checks in a few seconds, for the tests).
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let fleet = |engine_threads, sim_shards| DagSpec {
        nodes: if smoke { 20 } else { 5000 },
        racks: if smoke { 4 } else { 250 },
        black_box: false,
        white_box: false,
        metric_rank: true,
        window: if smoke { 10 } else { 60 },
        slide: if smoke { 10 } else { 60 },
        engine_threads,
        sim_shards,
        monitored_s: if smoke { 60 } else { 120 },
        fault_node: if smoke { 13 } else { 137 },
        fault_at: if smoke { 20 } else { 60 },
    };
    let full = DagSpec {
        nodes: if smoke { 12 } else { 500 },
        racks: 0,
        black_box: true,
        white_box: true,
        metric_rank: false,
        window: if smoke { 10 } else { 60 },
        slide: if smoke { 10 } else { 60 },
        engine_threads: 1,
        sim_shards: 1,
        monitored_s: if smoke { 120 } else { 900 },
        fault_node: if smoke { 7 } else { 137 },
        fault_at: if smoke { 30 } else { 300 },
    };
    let paper = DagSpec {
        nodes: if smoke { 10 } else { 50 },
        metric_rank: true,
        slide: if smoke { 2 } else { 5 },
        monitored_s: if smoke { 120 } else { 3600 },
        fault_node: 7,
        fault_at: if smoke { 30 } else { 600 },
        ..full.clone()
    };
    let serve = ServeSpec {
        tenants: 2,
        slaves: if smoke { 4 } else { 20 },
        steps: if smoke { 120 } else { 3000 },
        paced_steps: if smoke { 40 } else { 300 },
        window: if smoke { 10 } else { 60 },
    };
    vec![
        Workload {
            name: "fleet5000_rank",
            kind: Kind::Dag(fleet(1, 1)),
        },
        Workload {
            name: "fleet5000_rank_mt",
            kind: Kind::Dag(fleet(2, 2)),
        },
        Workload {
            name: "fleet500_full",
            kind: Kind::Dag(full),
        },
        Workload {
            name: "paper50_slide5",
            kind: Kind::Dag(paper),
        },
        Workload {
            name: "serve2_flood",
            kind: Kind::Serve(serve),
        },
    ]
}

/// Workloads the suite runs and `BENCHMARK.json` does not list. On the 2-vCPU
/// recording host a pass of `fleet5000_rank_mt` takes anything from 26 to
/// 70 ms per monitored second, and over six sets of ten runs the quartile
/// spread of its wall time was 17 to 34% whichever way the passes of a run are
/// combined: wider than the widest bound the benchmark contract allows (25%),
/// so there it could only ever fail or read "unresolved". The suite reports
/// it with its quartiles, which is what the ROADMAP's "parallel machinery pays
/// rent or goes" decision needs.
pub const SUITE_ONLY: &[&str] = &["fleet5000_rank_mt"];

/// Looks a workload up by name.
pub fn find(name: &str, smoke: bool) -> Option<Workload> {
    workloads(smoke).into_iter().find(|w| w.name == name)
}

/// Trains the black-box model once, on a fault-free run of the paper's 50
/// nodes; every workload size reuses it. Training time is an input cost
/// (`asdf_modules.training.fit_s`), never part of `setup_s`.
pub fn train(seed: u64, smoke: bool) -> Arc<BlackBoxModel> {
    train_model(&CampaignConfig {
        slaves: if smoke { 10 } else { 50 },
        training_secs: if smoke { 300 } else { 900 },
        n_states: 12,
        base_seed: seed,
        ..CampaignConfig::default()
    })
}
