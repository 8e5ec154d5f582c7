#!/bin/sh
# The command of BENCHMARK.json: builds both binaries of this package
# (`cargo run --bin bench_snapshot` would leave out `mcversi-work`, which the
# fabric workload spawns) and runs the benchmark with the given arguments.
# Run from the root of the repo.
set -e
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench_snapshot" "$@"
