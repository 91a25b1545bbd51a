#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the load generator from this directory and hands over to it;
# the load generator builds sketchd (and, for --trace 1, ./layertrace) from
# the same checkout. Everything built or written stays under
# <checkout>/.bench_build: HOME and TMPDIR point there too, so that the Go
# command's build cache, module cache, env file, telemetry counters and
# work directories do as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sketchd" ]; then
	echo "benchmark/run.sh: $root holds no sketchd source to build and measure" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/loadgen" .)
exec "$out/loadgen" -root "$root" -bin "$out" "$@"
