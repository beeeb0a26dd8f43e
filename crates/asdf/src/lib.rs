//! `asdf` — the top-level facade of the ASDF reproduction.
//!
//! **ASDF** (*Automated System for Diagnosing Failures*; Bare, Kavulya,
//! Tan, Pan, Marinelli, Kasick, Gandhi, Narasimhan — DSN 2009) is an
//! online fingerpointing framework: it monitors time-varying black-box
//! (OS performance counters) and white-box (application-log state counts)
//! data sources across a distributed system and localizes performance
//! problems to the culprit node(s) by peer comparison, while the system
//! runs.
//!
//! This crate assembles the reproduction's pieces into turnkey pipelines
//! and reproduces the paper's entire evaluation:
//!
//! * [`pipeline`] — [`pipeline::AsdfBuilder`] generates the paper's
//!   Figure-4 DAGs (black-box: `sadc → knn → analysis_bb`; white-box:
//!   `hadoop_log → mavgvec → analysis_wb`) in the `fpt-core` config
//!   dialect and deploys them over a simulated Hadoop cluster;
//! * [`eval`] — node-window scoring: false-positive rate, balanced
//!   accuracy, fingerpointing latency;
//! * [`experiments`] — the campaign driver for every table and figure
//!   (training, fault-free sweeps, six fault injections, overhead and
//!   bandwidth measurements);
//! * [`campaign`] — the bounded worker pool that fans independent runs
//!   out across threads with deterministic, order-preserving collection;
//! * [`report`] — plain-text rendering in the shape of the paper's
//!   tables;
//! * [`serve`] — the long-lived multi-tenant diagnosis daemon behind
//!   `asdf serve`: many monitored clusters ("tenants") stream collector
//!   frames over the versioned wire protocol into bounded per-tenant
//!   ingress queues, each diagnosed by its own labeled online engine;
//! * [`perfwatch`] — the perf-regression watchdog: it loads the repo's
//!   own `BENCH_history.jsonl` benchmark series and runs E-Divisive-mean
//!   change-point detection per metric.
//!
//! # Quick start
//!
//! ```
//! use asdf::experiments::{self, CampaignConfig};
//! use hadoop_sim::faults::FaultKind;
//!
//! // Small smoke-sized campaign (the paper uses 50-node clusters).
//! let cfg = CampaignConfig::smoke();
//! let model = experiments::train_model(&cfg);
//! let traces = experiments::run_once(&cfg, &model, Some(FaultKind::CpuHog), 99);
//! let result = experiments::score_run(&traces, FaultKind::CpuHog);
//! println!("balanced accuracy (combined): {:.1}%", result.ba_combined);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod eval;
pub mod experiments;
pub mod perfwatch;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use eval::{AnalysisTrace, Confusion, GroundTruth};
pub use pipeline::{AsdfBuilder, AsdfOptions, Deployment};
pub use serve::{ServeDaemon, ServeError, ServeOptions, TenantReport, TenantSpec};
