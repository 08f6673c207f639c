#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings denied), full test suite.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings denied: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> ganopc-lint (workspace invariants)"
cargo run --release -p ganopc-lint

echo "==> benchmark compiles against the tree (ganbench/)"
# ganbench drives the crates' public API from its own workspace, so a
# removal that breaks it shows here. A build may prune ganbench/Cargo.lock,
# which is the benchmark's file: it is put back whether or not the check
# passes.
lock_copy=$(mktemp)
cp ganbench/Cargo.lock "$lock_copy"
status=0
cargo check -q --offline --manifest-path ganbench/Cargo.toml || status=$?
cp "$lock_copy" ganbench/Cargo.lock
rm -f "$lock_copy"
if [ "$status" -ne 0 ]; then
    echo "FAIL: ganbench does not compile against the tree"
    exit 1
fi

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q (GANOPC_THREADS=4: parallel dispatch through the crew)"
GANOPC_THREADS=4 cargo test -q --workspace

echo "==> cargo test -q --release -p ganopc-fft (bit-identity tests on the vectorized release build)"
cargo test -q --release -p ganopc-fft

echo "==> cargo test -q --release -p ganopc-nn (bit-exact GEMM chain and BatchNorm tests on the vectorized release build)"
cargo test -q --release -p ganopc-nn

echo "==> cargo test -q --release -p ganopc-litho (spatial oracle, layout-identity and thread-identity tests on the release build)"
cargo test -q --release -p ganopc-litho

echo "==> allocation regression (steady-state train/infer/litho/ILT must not allocate)"
cargo test -q -p ganopc-core --test alloc_regression

echo "==> fault soak (seeded fault plans: typed failures, reloadable artifacts)"
cargo test -q --features fault-inject -p ganopc-core --test fault_soak

echo "==> fault plane disarmed in default builds"
# The default dependency graph must not enable ganopc-fault's feature —
# production builds get the inlined no-op hooks, not the armed sink.
if cargo tree -f '{p} {f}' --prefix none | grep -q "fault-inject"; then
    echo "FAIL: fault-inject is enabled in the default feature graph"
    exit 1
fi
# Self-test of the check: the armed graph must show the feature, or the
# grep above is testing nothing.
if ! cargo tree -f '{p} {f}' --prefix none --features fault-inject | grep -q "fault-inject"; then
    echo "FAIL: --features fault-inject did not arm ganopc-fault"
    exit 1
fi
echo "fault-inject off by default, on under --features fault-inject"

echo "==> span budget (obs span enter/exit < 50 ns median per op, release build)"
cargo test -q --release -p ganopc-obs --test span_budget -- --nocapture

echo "==> resume smoke test (checkpoint/restore bit-identity)"
cargo run --release --example resume_training

echo "==> bits across commits (ILT mask, GAN mask, model and state md5s at GANOPC_THREADS=1, 3, 4)"
# The md5s the repository's verification recipe lists. A change meant to
# move bits updates both lists and says so in CHANGES.md.
want="1b739a8fea62448025a77bd1cd82460c 613eacfb115c25a8840d748410ab333b 6057ec7155cdd2fa2d2ba4ab1fb9bf87 31600ce15ba9fd80e532ca2f8be4e9cf"
cargo build -q --release --bin ganopc
pin_dir=$(mktemp -d)
trap 'rm -rf "$pin_dir"' EXIT
# A fresh kernel cache, so the pinned runs derive their kernels with the
# code under test and read no file another build or run left behind.
export GANOPC_CACHE_DIR="$pin_dir/kernel-cache"
for threads in 1 3 4; do
    run() {
        GANOPC_THREADS=$threads cargo run -q --release --bin ganopc -- "$@" >"$pin_dir/log" 2>&1 ||
            { cat "$pin_dir/log"; exit 1; }
    }
    out="$pin_dir/t$threads"
    run opc --size 128 --seed 7 --flow ilt --outdir "$out/i"
    run opc --size 128 --seed 7 --flow gan --outdir "$out/g"
    run train --out "$out/m" --count 4 --net 32 --iters 3 --pretrain 3 --seed 5 --state "$out/S"
    got=$(md5sum "$out/i/mask.pgm" "$out/g/mask.pgm" "$out/m" "$out/S" | cut -d' ' -f1 | xargs)
    if [ "$got" != "$want" ]; then
        echo "FAIL: GANOPC_THREADS=$threads md5s are [$got], want [$want]"
        exit 1
    fi
    echo "GANOPC_THREADS=$threads: all four md5s match"
done

echo "All checks passed."
