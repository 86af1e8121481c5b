#!/usr/bin/env bash
# Build the mgopt_serve daemon and the studybench binary from source, then
# run one benchmark pass:
#
#   bash studybench/run.sh --workload warm_search --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the JSON
# result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/server" ]]; then
    echo "studybench: run from the repository root (no workspace at $root)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p mgopt-server --bin mgopt_serve >&2
cargo build --release --offline --quiet \
    --manifest-path "$root/studybench/Cargo.toml" >&2

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
work="$target/studybench-work"
mkdir -p "$work"
exec "$target/release/studybench" \
    --daemon "$target/release/mgopt_serve" \
    --work-dir "$work" \
    --commit "$commit" \
    "$@"
