#!/usr/bin/env bash
# Builds the release `qborrow` binary and the benchmark from the
# checkout this script sits in, then runs the benchmark with the given
# arguments (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`).
# Build output goes to stderr; its last stdout line is the
# result JSON.
#
# The run is pinned to one CPU (the first this shell may use), and the
# daemon serve-edit spawns inherits the pin: with the load generator and
# the daemon on one CPU, a request wakes no idle CPU, whose wake-up time
# follows the host's load rather than the program.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin qborrow 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
bench="$target/release/perfbench"
if [ -z "${CARGO_TARGET_DIR:-}" ]; then
    bench="perfbench/target/release/perfbench"
fi
pin=()
if command -v taskset >/dev/null; then
    cpu="$(taskset -pc $$ | sed 's/.*: //; s/[,-].*//')"
    pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$bench" --qborrow "$target/release/qborrow" "$@"
