#!/usr/bin/env sh
# Builds the benchmark and runs every workload from one process on one host
# thread: timed passes interleaved round-robin, then each workload's traced
# run. Prints every metric by name with its unit, checks outputs, writes
# benchmark/out/result.json and benchmark/out/trace.json, and exits
# non-zero on any failed check. Extra arguments go to `benchmark run`
# (--seed, --seconds, --out).
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --seed 0xF00D "$@"
