//! End-to-end checks of the `ganopc` binary's argument handling: a bad flag
//! or input file ends in its documented exit code with a one-line error,
//! never in a panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ganopc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ganopc"))
        .args(args)
        .current_dir(dir)
        .env("GANOPC_CACHE_DIR", dir.join("kernel-cache"))
        .output()
        .unwrap()
}

/// Runs `args` and checks the exit code, that no panic was reported, and
/// that stderr names the problem.
fn expect_failure(dir: &PathBuf, args: &[&str], code: i32, needle: &str) {
    let out = run(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(code), "{args:?}:\n{stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks '{needle}':\n{stderr}");
}

#[test]
fn bad_sizes_and_iteration_counts_are_usage_errors() {
    let dir = workdir("usage");
    let cases: [(&[&str], &str); 8] = [
        (&["opc", "--size", "0"], "--size"),
        (&["synthesize", "--size", "0", "--out", "x.pgm"], "--size"),
        (&["opc", "--size", "96"], "--size"),
        (&["opc", "--size", "4096"], "--size"),
        (&["train", "--net", "48"], "--net"),
        (&["train", "--iters", "0", "--count", "2", "--net", "32"], "iterations"),
        (&["opc", "--flow", "gan", "--size", "64", "--net", "128"], "net_size"),
        (&["opc", "--flow", "mbopc", "--size", "64"], "unknown flow"),
    ];
    for (args, needle) in cases {
        expect_failure(&dir, args, 2, needle);
    }
    // Nothing ran, so nothing was written.
    assert!(!dir.join("x.pgm").exists());
    assert!(!dir.join("model.ckpt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overflowing_layout_coordinates_are_an_input_error() {
    let dir = workdir("layout");
    std::fs::write(
        dir.join("hostile.layout"),
        "frame -9223372036854775808 0 9223372036854775807 10\n",
    )
    .unwrap();
    expect_failure(&dir, &["opc", "--clip", "hostile.layout", "--size", "64"], 4, "line 1");
    std::fs::remove_dir_all(&dir).unwrap();
}
