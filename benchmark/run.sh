#!/usr/bin/env bash
# The benchmark's one command. Run it from the repo root.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload (the BENCHMARK.json contract): builds the
#       harness, runs it, and ends with the result line.
#
#   benchmark/run.sh
#       The whole ledger: every workload untraced for seeds SEED_INIT
#       (default 1) up to but not including SEED_END (default SEED_INIT+1),
#       then once traced, each for run_seconds of BENCHMARK.json; every
#       metric is printed by name with its unit and every run is appended to
#       benchmark/out/ledger.jsonl (emptied first; copy it to keep a set of
#       runs for --compare). DRY_RUN=1 lists what would run.
#
#   benchmark/run.sh --list | --compare A.jsonl B.jsonl
#
# Exits non-zero when any operation fails its correctness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
cd "$repo"

# The driver sets CARGO_TARGET_DIR; a developer gets benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/armbar-benchmark" ;;
    *) bin="$repo/$CARGO_TARGET_DIR/release/armbar-benchmark" ;;
esac

if [[ "${DRY_RUN:-0}" != 0 ]]; then
    exec "$bin" --list
fi
if [[ $# -gt 0 ]]; then
    exec "$bin" "$@"
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
seed_init="${SEED_INIT:-1}"
seed_end="${SEED_END:-$((seed_init + 1))}"
ledger=benchmark/out/ledger.jsonl
mkdir -p benchmark/out
: > "$ledger"
status=0
for workload in figures-cold manycore-scale verdict-corpus regen-warm; do
    for ((seed = seed_init; seed < seed_end; seed++)); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            --ledger "$ledger" || status=1
    done
    "$bin" --workload "$workload" --seed "$seed_init" --seconds "$seconds" --trace 1 \
        --ledger "$ledger" || status=1
done
echo "ledger: $ledger (compare two with: benchmark/run.sh --compare A.jsonl B.jsonl)"
exit "$status"
