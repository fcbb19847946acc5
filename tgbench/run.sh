#!/usr/bin/env bash
# Build and run the benchmark: bash tgbench/run.sh --workload NAME [--seed N]
# [--seconds S] [--trace 0|1], from the repository root (see README.md).
#
# On x86-64 the build keeps branches from crossing 32-byte boundaries.
# Without that, CPUs with the jump-conditional-code erratum make the
# interpreter and DBI loops fast or slow depending on where the linker
# happens to place them: builds that differ only in a function that never
# runs moved overhead_x by up to 18% on lulesh_table2 and bots_tasks. With
# it the same builds agree to within about 4%. The flag replaces any
# RUSTFLAGS from the environment, so every build of the benchmark is
# compiled the same way.
set -euo pipefail
if [ "$(uname -m)" = x86_64 ]; then
    export RUSTFLAGS="-C llvm-args=-x86-branches-within-32B-boundaries"
else
    export RUSTFLAGS=""
fi
exec cargo run --quiet --release --offline --manifest-path tgbench/Cargo.toml -- "$@"
