//! The `asdf` binary end to end: what its figure and table subcommands
//! print on stdout, and which flags they refuse.

use std::process::{Command, Output};

fn asdf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asdf"))
        .args(args)
        .output()
        .expect("asdf runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = asdf(args);
    assert!(
        out.status.success(),
        "asdf {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn fig6_prints_the_same_at_any_thread_count() {
    let small = ["fig6", "--slaves", "5", "--secs", "400", "--runs", "1"];
    let serial = stdout_of(&[&small[..], &["--threads", "1"]].concat());
    let pooled = stdout_of(&[&small[..], &["--threads", "2"]].concat());
    assert!(serial.starts_with("Figure 6(a)"), "{serial}");
    assert!(serial.contains("Figure 6(b)") && serial.contains("shape checks:"));
    assert_eq!(serial, pooled);
}

#[test]
fn table4_prints_its_four_rows() {
    let out = stdout_of(&["table4", "--secs", "30"]);
    for row in ["sadc-tcp", "hl-dn-tcp", "hl-tt-tcp", "TCP Sum"] {
        assert_eq!(
            out.lines().filter(|l| l.starts_with(row)).count(),
            1,
            "{row} in\n{out}"
        );
    }
    assert!(
        out.contains("sadc dominates per-iteration bandwidth: yes"),
        "{out}"
    );
}

#[test]
fn table4_refuses_a_thread_count() {
    let out = asdf(&["table4", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn the_deleted_engine_flags_exit_2() {
    for args in [
        ["fig6", "--engine-threads", "2"],
        ["serve", "--batch-size", "8"],
        ["fig7", "--sim-shards", "2"],
    ] {
        let out = asdf(&args);
        assert_eq!(out.status.code(), Some(2), "asdf {args:?}");
        assert!(out.stdout.is_empty(), "asdf {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(args[1]),
            "asdf {args:?}"
        );
    }
}

#[test]
fn fewer_than_three_slaves_exit_2() {
    for args in [
        ["serve", "--slaves", "0"],
        ["demo", "--slaves", "0"],
        ["dump-config", "--slaves", "0"],
        ["demo", "--slaves", "2"],
        ["fig7", "--slaves", "1"],
    ] {
        let out = asdf(&args);
        assert_eq!(out.status.code(), Some(2), "asdf {args:?}");
        assert!(out.stdout.is_empty(), "asdf {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--slaves"),
            "asdf {args:?}"
        );
    }
}

/// A threshold that is no number, and a window, a run count or a
/// measured span that is empty.
#[test]
fn nonsense_thresholds_and_an_empty_window_exit_2() {
    for args in [
        &["fig7", "--k", "nan", "--slaves", "3"][..],
        &["fig7", "--k", "-1", "--slaves", "3"],
        &["fig6", "--threshold", "NaN", "--slaves", "3"],
        &["ablate", "--threshold", "-0.5", "--slaves", "3"],
        &["serve", "--k", "nan", "--slaves", "3"],
        &["serve", "--threshold", "-60", "--slaves", "3"],
        &["fig7", "--window", "0", "--slaves", "3"],
        &["serve", "--window", "0", "--slaves", "3"],
        &["serve", "--speed", "0", "--slaves", "3"],
        &["serve", "--speed", "nan", "--slaves", "3"],
        &["serve", "--speed", "-1", "--slaves", "3"],
        &["fig6", "--runs", "0", "--slaves", "3", "--secs", "120"],
        &["table3", "--secs", "0"],
        &["table4", "--secs", "0"],
        &["fig6", "--secs", "30", "--slaves", "3", "--runs", "1"],
        &["fig7", "--secs", "30", "--slaves", "3", "--runs", "1"],
        &[
            "fig7", "--secs", "100", "--slaves", "3", "--runs", "1", "--window", "120",
        ],
        &["ablate", "--secs", "90", "--slaves", "3", "--runs", "1"],
        &["demo", "--secs", "30", "--slaves", "3"],
        &[
            "serve",
            "--secs",
            "30",
            "--slaves",
            "3",
            "--tenants",
            "1",
            "--tick-ms",
            "1",
        ],
        &[
            "serve",
            "--tenants",
            "0",
            "--slaves",
            "3",
            "--secs",
            "60",
            "--tick-ms",
            "1",
        ],
    ] {
        let out = asdf(args);
        assert_eq!(out.status.code(), Some(2), "asdf {args:?}");
        assert!(out.stdout.is_empty(), "asdf {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("asdf: flag {}:", args[1])),
            "asdf {args:?}"
        );
    }
}

#[test]
fn perfwatch_reports_what_the_library_analyzes() {
    let history = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
    let json = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfwatch-{}.json", std::process::id()));
    let json = json.to_str().expect("utf-8 path");
    stdout_of(&["perfwatch", "--history", history, "--json", json]);
    let got = std::fs::read_to_string(json).expect("the JSON report is written");
    std::fs::remove_file(json).ok();
    let text = std::fs::read_to_string(history).expect("tracked history");
    let report = asdf::perfwatch::analyze(&text).expect("tracked history analyzes");
    assert_eq!(got, asdf::perfwatch::report::render_json(&report));
}

#[test]
fn run_config_refuses_a_parameter_no_module_reads() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, text: &str| {
        let path = dir.join(format!("{name}-{}.conf", std::process::id()));
        std::fs::write(&path, text).expect("config written");
        path.to_str().expect("utf-8 path").to_owned()
    };
    let generated = stdout_of(&["dump-config", "--slaves", "4"]);
    let clean = write("generated", &generated);
    stdout_of(&["run-config", &clean, "--secs", "60"]);

    let misspelt = generated.replacen("[analysis_bb]\n", "[analysis_bb]\ntreshold = 0.5\n", 1);
    assert_ne!(
        misspelt, generated,
        "the generated config has an analysis_bb"
    );
    let misspelt = write("misspelt", &misspelt);
    let out = asdf(&["run-config", &misspelt, "--secs", "60"]);
    for path in [clean, misspelt] {
        std::fs::remove_file(path).ok();
    }
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`treshold`"), "{stderr}");
}

#[test]
fn run_config_simulates_the_nodes_its_collectors_poll() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("four-nodes-{}.conf", std::process::id()));
    std::fs::write(&path, stdout_of(&["dump-config", "--slaves", "4"])).expect("config written");
    let path = path.to_str().expect("utf-8 path");
    let run = ["run-config", path, "--secs", "900", "--fault", "diskhog"];
    // Sized from `nodes = 0..4`, the fault lands on slave02, which is polled.
    let sized = asdf(&run);
    // Ten nodes put it on slave05, which no collector polls.
    let too_many = asdf(&[&run[..], &["--slaves", "10"]].concat());
    std::fs::remove_file(path).ok();

    assert!(
        sized.status.success(),
        "{}",
        String::from_utf8_lossy(&sized.stderr)
    );
    let stdout = String::from_utf8_lossy(&sized.stdout);
    assert!(
        stdout.lines().any(|l| l.contains("ALARM slave02: true")),
        "{stdout}"
    );
    assert_eq!(too_many.status.code(), Some(2));
    assert!(too_many.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&too_many.stderr);
    assert!(stderr.contains("slave05"), "{stderr}");
}
