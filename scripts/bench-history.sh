#!/usr/bin/env bash
# Reads BENCH_HISTORY.jsonl (one line per "make bench-pair" run, plus lines back-filled from CHANGES.md)
# and compares like with like. Timings print as a chained index: one row per PR along HEAD's first-parent
# lineage with its paired head/base median ratio ("unmeasured" where it has no line, never 1.0), and the
# product of the ratios. Allocations print as the latest absolute values. A line's rev is the commit it
# measured; "X+dirty", a working tree on X, is X's first-parent child. Lines of five to nine pairs count,
# marked "*"; shorter ones, or runs not at BENCHMARK.json's run length, are quick looks, only counted.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')"
awk -v seconds="$seconds" '
function num(s, name,    v) { if (!match(s, "\"" name "\":[0-9]+")) return 0; v = substr(s, RSTART, RLENGTH); sub(/^[^:]*:/, "", v); return v + 0 }
function field(s, name,    v) { if (!match(s, "\"" name "\":\"[^\"]*\"")) return ""; v = substr(s, RSTART, RLENGTH); sub(/^[^:]*:"/, "", v); sub(/"$/, "", v); return v }
function median(s, side) { sub(".*\"" side "\":\\{[^}]*\"median\":", "", s); sub(/[,}].*/, "", s); return s + 0 }
FNR == NR { hash[++nl] = $1; label[nl] = ($2 == "PR" && $3 ~ /^[0-9]+:$/) ? "PR " substr($3, 1, length($3) - 1) : substr($1, 1, 7); next }
num($0, "pairs") < 5 || num($0, "seconds") != seconds { quick++; next }
{
	wl = field($0, "workload"); rev = field($0, "rev"); p = num($0, "pairs"); dirty = sub(/\+dirty$/, "", rev)
	for (i = 1; i <= nl && index(hash[i], rev) != 1; i++) {}; if (i > nl) { off++; next }
	if (dirty && i++ == nl) label[i] = "working tree"
	if (!(wl in seen)) { seen[wl]; wls[++nw] = wl }; first = (first && first < i) ? first : i; last = (last > i) ? last : i; measured[i] = 1; rest = $0
	while (match(rest, /"[a-z_0-9]+":\{"base":\{[^}]*\},"head":\{[^}]*\}/)) {
		s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH); m = s; sub(/^"/, "", m); sub(/".*/, "", m)
		if (m ~ /_ms_|_s$/ && p >= pairs[wl, m, i] && median(s, "base") > 0) { pairs[wl, m, i] = p; ratio[wl, m, i] = median(s, "head") / median(s, "base") }
		if (m !~ /_ms_|_s$/ && i >= at[wl]) { abs[wl, m] = median(s, "head"); at[wl] = i }
	}
}
END {
	split("op_ms_best setup_s", timings, " "); split("alloc_kb_per_op mallocs_per_op live_heap_mb", allocs, " ")
	for (t = 1; t <= 2; t++) {
		printf "%-14s", timings[t]; for (w = 1; w <= nw; w++) { printf " %16s", wls[w]; chain[w] = 1 }; print ""
		for (i = first; i <= last; i++) if (measured[i] || label[i] ~ /^PR/) { printf "%-14s", label[i]
			for (w = 1; w <= nw; w++) { k = wls[w] SUBSEP timings[t] SUBSEP i; if (k in ratio) chain[w] *= ratio[k]; printf " %16s", (k in ratio) ? sprintf("x%.2f%s", ratio[k], pairs[k] < 10 ? "*" : "") : "unmeasured" }
			print ""
		}
		printf "%-14s", "index"; for (w = 1; w <= nw; w++) printf " %16s", sprintf("x%.2f", chain[w]); print "\n"
	}
	printf "%-16s %16s %16s %16s  %s\n", "workload", allocs[1], allocs[2], allocs[3], "at"
	for (w = 1; w <= nw; w++) printf "%-16s %16.1f %16.1f %16.3f  %s\n", wls[w], abs[wls[w], allocs[1]], abs[wls[w], allocs[2]], abs[wls[w], allocs[3]], label[at[wls[w]]]
	printf "* a five-to-nine-pair line; %d quick-look and %d off-lineage line(s) left out\n", quick, off
}' <(git -C "$root" log --first-parent --reverse --format='%H %s' HEAD) "$root/BENCH_HISTORY.jsonl"
