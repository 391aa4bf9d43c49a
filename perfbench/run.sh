#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root; every argument goes to the benchmark binary:
#
#   bash perfbench/run.sh --workload online-stream --seed 1 --seconds 30 --trace 0
#
# The process may use every CPU of the host, so the router's shards replan
# in parallel at each TICK, as they do in production.
set -euo pipefail

cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/haste-perfbench" "$@"
