#!/usr/bin/env bash
# The repository benchmark: builds the harness from source, then runs it.
#
#   benchmark/run.sh                      every workload, both modes
#   benchmark/run.sh --smoke              the same, cut down to seconds
#   benchmark/run.sh --twice              two sets of runs, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last line is its result
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The harness is a package of its own; build it into the directory the caller
# chose, or beside the workspace's own artefacts to reuse them.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

exec "$target/release/frugal-benchmark" "$@"
