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
