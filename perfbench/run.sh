#!/usr/bin/env bash
# Build the release `hull` server and the benchmark from source, then run
# one benchmark invocation. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload ingest_2d_disk --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a repository checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin hull >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --hull "$target/release/hull" --out perfbench/out "$@"
