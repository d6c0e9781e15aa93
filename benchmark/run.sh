#!/usr/bin/env bash
# Builds the benchmark (on first use) and runs it. Run from the repository
# root, for example:
#
#   bash benchmark/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# One malloc arena for every thread: the serve workload starts a fresh
# daemon every round, and with per-thread arenas the peak RSS of identical
# runs wandered by 20% depending on which arena each new thread picked up.
export MALLOC_ARENA_MAX=1
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
