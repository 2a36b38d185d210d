//! The `repro` command line: the experiment is the first argument that is
//! not a flag, wherever `--quick` sits, and anything it does not know is a
//! usage error (exit 2), not a run of something else.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn quick_flag_may_come_before_or_after_the_experiment() {
    let before = repro(&["--quick", "table1"]);
    let after = repro(&["table1", "--quick"]);
    assert!(before.status.success(), "{}", String::from_utf8_lossy(&before.stderr));
    assert!(after.status.success(), "{}", String::from_utf8_lossy(&after.stderr));
    assert!(!before.stdout.is_empty());
    assert_eq!(before.stdout, after.stdout);
}

#[test]
fn unknown_experiment_or_flag_is_a_usage_error() {
    for args in [&["bogus"][..], &["--bogus", "table1"]] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
}
