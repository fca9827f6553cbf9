#!/usr/bin/env bash
# Build the benchmark and the `pivot` binary it drives, then run it with
# the given arguments. Run from anywhere inside a checkout:
#
#   bash pivotbench/run.sh --workload undo-any-order --seed 1 --seconds 15 --trace 0
#
# Both builds go to one target directory ($CARGO_TARGET_DIR, by default
# .bench_build at the checkout root), so `pivotbench` finds `pivot` beside
# itself. Build output goes to stderr; the last line of stdout is the
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "pivotbench: run.sh must sit in the pivotbench/ directory of a PIVOT checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pivot-cli >&2
cargo build --release --offline --quiet --manifest-path pivotbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/pivotbench" "$@"
