//! Shared plumbing for the experiment harness binaries (`fig6`, `fig7`,
//! `table3`, `table4`).

#![forbid(unsafe_code)]

use asdf::experiments::CampaignConfig;

/// Builds the experiment campaign configuration from the process's
/// command-line flags (see [`campaign_from_iter`]).
pub fn campaign_from_args(tool: &str) -> CampaignConfig {
    campaign_from_iter(tool, std::env::args().skip(1))
}

/// Builds the experiment campaign configuration from command-line flags.
///
/// Defaults reproduce the paper-scale setup scaled to run in seconds on a
/// laptop; every knob can be overridden:
///
/// ```text
/// --slaves N       slave nodes per cluster        (default 20)
/// --secs S         seconds per evaluation run     (default 1800)
/// --seed X         base RNG seed                  (default 1)
/// --runs R         fault runs per fault / fault-free runs (default 3)
/// --window W       analysis window samples        (default 60)
/// --threshold T    black-box L1 threshold         (default 40)
/// --k K            white-box multiplier           (default 3)
/// --threads N      campaign worker threads        (default 0 = all cores)
/// ```
///
/// `--threads` only changes wall-clock time: independent runs fan out over
/// the `asdf::campaign` pool, and results are byte-identical at any
/// setting (`--threads 1` is the serial reference).
///
/// # Panics
///
/// Panics with a usage message on malformed flags.
pub fn campaign_from_iter(tool: &str, args: impl IntoIterator<Item = String>) -> CampaignConfig {
    let mut cfg = CampaignConfig::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut next = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{tool}: flag {what} needs a value"))
        };
        match flag.as_str() {
            "--slaves" => cfg.slaves = next("--slaves").parse().expect("integer"),
            "--secs" => cfg.run_secs = next("--secs").parse().expect("integer"),
            "--seed" => cfg.base_seed = next("--seed").parse().expect("integer"),
            "--runs" => {
                let n: usize = next("--runs").parse().expect("integer");
                cfg.fault_runs = n;
                cfg.fault_free_runs = n;
            }
            "--window" => cfg.window = next("--window").parse().expect("integer"),
            "--threshold" => cfg.bb_threshold = next("--threshold").parse().expect("number"),
            "--k" => cfg.wb_k = next("--k").parse().expect("number"),
            "--threads" => cfg.threads = next("--threads").parse().expect("integer"),
            other => panic!("{tool}: unknown flag `{other}` (see crate docs)"),
        }
    }
    // Keep the fault node and injection point inside the run.
    cfg.fault_node = cfg.fault_node.min(cfg.slaves.saturating_sub(1));
    cfg.injection_at = cfg.injection_at.min(cfg.run_secs / 3);
    cfg
}

/// Parses the `--secs S` flag of the measurement binaries (`table3`,
/// `table4`). Their meters read per-process counters and account exact
/// bytes, so there is nothing for a thread count to change.
///
/// # Panics
///
/// Panics with a usage message on malformed flags.
pub fn secs_from_iter(
    tool: &str,
    default_secs: u64,
    args: impl IntoIterator<Item = String>,
) -> u64 {
    let mut secs = default_secs;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--secs" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| panic!("{tool}: flag --secs needs a value"));
                secs = value.parse().expect("integer");
            }
            other => panic!("{tool}: unknown flag `{other}`"),
        }
    }
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> CampaignConfig {
        campaign_from_iter("test", flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_paper_scale() {
        let cfg = parse(&[]);
        assert_eq!(cfg.window, 60);
        assert_eq!(cfg.consecutive, 3);
        assert!((cfg.wb_k - 3.0).abs() < 1e-12);
        assert_eq!(cfg.threads, 0, "default = all available parallelism");
    }

    #[test]
    fn flags_override_defaults() {
        let cfg = parse(&["--slaves", "8", "--threads", "3", "--runs", "2"]);
        assert_eq!(cfg.slaves, 8);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.fault_runs, 2);
        assert_eq!(cfg.fault_free_runs, 2);
    }

    #[test]
    fn measurement_flags_parse() {
        let flags = |flags: &[&str]| flags.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(secs_from_iter("test", 600, flags(&["--secs", "30"])), 30);
        assert_eq!(secs_from_iter("test", 600, flags(&[])), 600);
    }

    #[test]
    #[should_panic(expected = "unknown flag `--threads`")]
    fn measurement_binaries_take_no_thread_count() {
        secs_from_iter("test", 600, ["--threads".to_owned(), "2".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flags_are_rejected() {
        parse(&["--bogus"]);
    }
}
