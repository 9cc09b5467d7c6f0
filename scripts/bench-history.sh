#!/usr/bin/env bash
# Reads BENCH_HISTORY.jsonl (one line per "make bench-pair" run, plus
# the lines back-filled from CHANGES.md) and prints, per workload and
# end-to-end metric, the best median ever recorded against the latest
# one, with the revision each was measured at. Lower is better for all
# five metrics; a base side counts as a measurement of its revision.
# Only runs of at least ten pairs at BENCHMARK.json's run length are
# compared; shorter ones are quick looks and are only counted.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')"
awk -v seconds="$seconds" '
function num(s, name,    v) { if (!match(s, "\"" name "\":[0-9]+")) return 0; v = substr(s, RSTART, RLENGTH); sub(/^[^:]*:/, "", v); return v + 0 }
function field(s, name,    v) { if (!match(s, "\"" name "\":\"[^\"]*\"")) return ""; v = substr(s, RSTART, RLENGTH); sub(/^[^:]*:"/, "", v); sub(/"$/, "", v); return v }
function see(wl, m, rev, val,    k) {
	k = wl SUBSEP m
	if (!(k in best) || val < best[k]) { best[k] = val; bestrev[k] = rev }
}
num($0, "pairs") < 10 || num($0, "seconds") != seconds { quick++; next }
{
	wl = field($0, "workload"); rev = field($0, "rev"); base = field($0, "base")
	rest = $0
	while (match(rest, /"[a-z_0-9]+":\{"base":\{[^}]*\},"head":\{[^}]*\}/)) {
		s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
		m = s; sub(/^"/, "", m); sub(/".*/, "", m)
		b = s; sub(/.*"base":\{[^}]*"median":/, "", b); sub(/,.*/, "", b)
		h = s; sub(/.*"head":\{[^}]*"median":/, "", h); sub(/,.*/, "", h)
		k = wl SUBSEP m
		if (!(k in latest)) order[++n] = k
		see(wl, m, base, b + 0); see(wl, m, rev, h + 0)
		latest[k] = h + 0; latestrev[k] = rev
	}
}
END {
	printf "%-16s %-16s %12s %-20s %12s %-20s %8s\n", "workload", "metric", "best", "at", "latest", "at", "ratio"
	for (i = 1; i <= n; i++) {
		k = order[i]; split(k, p, SUBSEP)
		printf "%-16s %-16s %12.4f %-20s %12.4f %-20s %7.2fx\n", p[1], p[2], best[k], bestrev[k], latest[k], latestrev[k], (best[k] > 0) ? latest[k] / best[k] : 1
	}
	if (quick) printf "%d quick-look line(s) (under ten pairs or not %d s) left out\n", quick, seconds
}' "$root/BENCH_HISTORY.jsonl"
