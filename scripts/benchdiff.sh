#!/bin/sh
# Compare two benchrun JSON reports and flag >10% ns/op regressions
# (and any allocs/op growth). Thin wrapper over cmd/benchdiff so CI
# and humans invoke the same comparer.
#
#   scripts/benchdiff.sh BENCH_1.json BENCH_2.json
#   scripts/benchdiff.sh -strict BENCH_2.json bench-smoke.json
#
# ns/op is informational by default (shared-runner noise must not gate
# merges; pass -strict to fail on it too). allocs/op growth for a
# benchmark both reports hold always exits 1.
set -eu
cd "$(dirname "$0")/.."
exec go run ./cmd/benchdiff "$@"
