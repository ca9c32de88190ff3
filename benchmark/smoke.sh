#!/usr/bin/env bash
# One pass of every workload, untraced, then one traced run: under a minute
# once the harness is built.
# For a CI job (this change may not edit .github/workflows/ci.yml).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in figures-cold manycore-scale verdict-corpus regen-warm; do
    "$here/run.sh" --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1
done
"$here/run.sh" --workload manycore-scale --seed 1 --seconds 0 --trace 1 | tail -n 1
