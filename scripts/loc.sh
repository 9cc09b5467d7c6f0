#!/usr/bin/env bash
# Non-test Go lines per package and in total outside bench/, then the
# total of test Go lines outside bench/: the numbers every simplicity
# PR reports in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 == "total" { next }
		{ dir = $2; sub(/\/[^\/]*$/, "", dir); lines[dir] += $1; total += $1 }
		END {
			for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d total (non-test Go lines outside bench/)\n", total
		}'
find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 |
	xargs -0 cat | wc -l |
	awk '{ printf "%7d total (test Go lines outside bench/)\n", $1 }'
