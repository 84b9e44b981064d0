#!/usr/bin/env bash
# Builds the campaign benchmark from source, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 2024 --seconds 24 --trace 0
#
# The build goes to $CARGO_TARGET_DIR when set, else perfbench/target.
# Build output goes to stderr, so the result line stays the last line of
# stdout. A failed build exits non-zero without printing a result.
set -euo pipefail
dir=$(dirname "${BASH_SOURCE[0]}")
target=${CARGO_TARGET_DIR:-$dir/target}
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
