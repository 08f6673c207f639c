//! End-to-end checks of the `ganopc` binary's argument handling: a bad flag
//! or input file ends in its documented exit code with a one-line error,
//! never in a panic (exit 101).

use proptest::prelude::*;
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

/// A flag the command does not read, or one given twice, is a usage error
/// naming the flag, raised before any work: a typo never runs the command
/// at its defaults.
#[test]
fn unknown_and_repeated_flags_are_usage_errors() {
    let dir = workdir("flags");
    let cases: [(&[&str], &str); 8] = [
        (&["suite", "--bogus", "1"], "--bogus"),
        (&["synthesize", "--sed", "7"], "--sed"),
        (&["opc", "--sise", "64"], "--sise"),
        (&["opc", "--size", "64", "--ckpt", "m.ckpt"], "--ckpt"),
        (&["synthesize", "--seed", "1", "--groups", "3", "--seed", "2"], "--seed"),
        (&["train", "--count", "2", "--net", "32", "--count", "3"], "--count"),
        (&["evaluate", "--ckpt", "m.ckpt", "--flow", "gan"], "--flow"),
        (&["suite", "--metrics-json", "a.json", "--metrics-json", "b.json"], "--metrics-json"),
    ];
    for (args, needle) in cases {
        expect_failure(&dir, args, 2, needle);
        assert!(run(&dir, args).stdout.is_empty(), "{args:?} did some work");
    }
    assert!(!dir.join("model.ckpt").exists());
    // `--metrics-json` stays global.
    let out = run(&dir, &["suite", "--metrics-json", "m.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("m.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One mutation of a valid argument list.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// A flag the command does not read, between two pairs.
    UnknownFlag,
    /// A flag's value removed.
    DroppedValue,
    /// A pair given twice.
    RepeatedFlag,
    /// A bare word between two pairs.
    StrayWord,
}

/// `command` followed by `--key value` `pairs`, mutated by `mutation` at
/// the pair picked by `at` with the replacement picked by `pick`.
fn mutated(
    command: &str,
    pairs: &[(&str, String)],
    mutation: Mutation,
    at: usize,
    pick: usize,
) -> Vec<String> {
    let mut pairs: Vec<Vec<String>> =
        pairs.iter().map(|(k, v)| vec![format!("--{k}"), v.clone()]).collect();
    let slot = at % (pairs.len() + 1);
    match mutation {
        Mutation::UnknownFlag => {
            let unread: &[&str] = if command == "suite" {
                &["seed", "size", "out", "bogus"]
            } else {
                &["sed", "sise", "flow", "ckpt", "iters", "bogus"]
            };
            pairs.insert(slot, vec![format!("--{}", unread[pick % unread.len()]), "1".into()]);
        }
        Mutation::DroppedValue => {
            let i = at % pairs.len();
            pairs[i].pop();
        }
        Mutation::RepeatedFlag => {
            let pair = pairs[at % pairs.len()].clone();
            pairs.insert(slot, pair);
        }
        Mutation::StrayWord => {
            let word = ["extra", "7", "-x", "suite"][pick % 4];
            pairs.insert(slot, vec![word.into()]);
        }
    }
    std::iter::once(command.to_string()).chain(pairs.into_iter().flatten()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutated argument lists of the fast commands (`suite`, and
    /// `synthesize` without `--out`) end in exit 2 with one error line,
    /// no output and no panic. One process at a time.
    #[test]
    fn mutated_arguments_are_usage_errors(
        synthesize in 0usize..2,
        seed in 0u64..1000,
        groups in 1usize..20,
        size in 5u32..9,
        keep in 0usize..8,
        mutation in 0usize..4,
        at in 0usize..8,
        pick in 0usize..8,
    ) {
        let dir = workdir("mutated");
        let command = if synthesize == 1 { "synthesize" } else { "suite" };
        let mutation = [
            Mutation::UnknownFlag,
            Mutation::DroppedValue,
            Mutation::RepeatedFlag,
            Mutation::StrayWord,
        ][mutation];
        // The subset `keep` picks of the flags the command reads: for
        // `suite` only `--metrics-json`. A mutation that acts on a pair
        // gets at least one.
        let all = [
            ("metrics-json", "m.json".to_string()),
            ("seed", seed.to_string()),
            ("groups", groups.to_string()),
            ("size", (1usize << size).to_string()),
        ];
        let readable = if synthesize == 1 { &all[..] } else { &all[..1] };
        let mut pairs: Vec<(&str, String)> = readable
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep >> i & 1 == 1)
            .map(|(_, pair)| pair.clone())
            .collect();
        if pairs.is_empty() && matches!(mutation, Mutation::DroppedValue | Mutation::RepeatedFlag) {
            pairs.push(readable[0].clone());
        }
        let args = mutated(command, &pairs, mutation, at, pick);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        prop_assert_eq!(out.status.code(), Some(2), "{:?}:\n{}", args, stderr);
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        prop_assert_eq!(errors, 1, "{:?}:\n{}", args, stderr);
        prop_assert!(out.stdout.is_empty(), "{args:?} did some work");
        prop_assert!(!dir.join("m.json").exists(), "{args:?} wrote metrics");
        std::fs::remove_dir_all(&dir).unwrap();
    }
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
