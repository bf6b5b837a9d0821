//! The `experiments` binary rejects bad input with its usage line and exit
//! status 2, before running anything.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("failed to spawn experiments")
}

fn assert_usage_exit(args: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(stderr.contains("e1..e14"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed tables");
}

#[test]
fn no_arguments_prints_usage() {
    assert_usage_exit(&[]);
}

#[test]
fn unknown_experiment_id_prints_usage() {
    assert_usage_exit(&["e99"]);
    // Rejected before any valid id ahead of it runs.
    assert_usage_exit(&["e1", "nonsense"]);
}

#[test]
fn malformed_seed_prints_usage() {
    assert_usage_exit(&["e1", "--seed=garbage"]);
}
