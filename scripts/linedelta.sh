#!/bin/sh
# Net Go line delta of the working tree against a base ref, per package,
# non-test and test files apart: the "every PR states its net line
# delta" of ROADMAP.md as a command.
#
#   scripts/linedelta.sh            # against HEAD~1
#   scripts/linedelta.sh db736c1    # against any commit, tag or branch
#   scripts/linedelta.sh --require-negative db736c1
#
# Counts tracked and staged files (git add new files first), benchmark/
# (its own module) left out. Informational — exit 2 when the ref does not
# resolve — unless --require-negative is given, the gate of a
# [simplicity] PR: exit 1 when the non-test total did not go down.
set -eu
cd "$(dirname "$0")/.."
require=0
if [ "${1:-}" = --require-negative ]; then
	require=1
	shift
fi
base="${1:-HEAD~1}"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "linedelta: no such ref: $base" >&2
	exit 2
}
printf 'Go line delta vs %s\n%-30s %20s %24s\n' "$base" package non-test test
git diff --numstat "$base" -- '*.go' ':!benchmark' | awk '
$1 != "-" {
	pkg = $3; if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
	kind = ($3 ~ /_test\.go$/) ? 2 : 0
	n[pkg, kind] += $1; n[pkg, kind + 1] += $2; seen[pkg]
}
END { for (p in seen) print p, n[p, 0] + 0, n[p, 1] + 0, n[p, 2] + 0, n[p, 3] + 0 }' |
	sort | awk '
function row(p, a, b, c, d) {
	printf "%-30s %+6d (+%5d/-%5d) %+8d (+%5d/-%5d)\n", p, a - b, a, b, c - d, c, d
}
{ row($1, $2, $3, $4, $5); A += $2; B += $3; C += $4; D += $5 }
END {
	row("total", A, B, C, D)
	if (require && A - B >= 0) {
		print "linedelta: non-test Go lines did not go down (" A - B ")" > "/dev/stderr"
		exit 1
	}
}' require="$require"
