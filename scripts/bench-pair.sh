#!/usr/bin/env bash
# Paired benchmark runs: BASE against the working tree, alternating
# which side goes first, as bench/README.md and the choosing-metrics
# guide ask of any timing claim under 25 %.
#
#   scripts/bench-pair.sh BASE WORKLOAD [PAIRS] [SECONDS]
#   make bench-pair BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SECONDS=22]
#
# BASE is exported with git archive into .bench_build/pair/base (no
# worktree is registered, so there is nothing to prune afterwards) and
# bench/ is built there and in the working tree, each from its own
# sources. Pair i runs both sides with -seed i -trace 0; even pairs run
# the working tree first. Printed per end-to-end metric: each side's
# median and quartiles over the pairs, and how many pairs each side won
# (lower is better for all five; ties count for neither). The same
# numbers are appended as one JSON line to BENCH_HISTORY.jsonl at the
# root (the perf history "make bench-history" reads), unless a run had
# a failed or incorrect operation.
set -euo pipefail
base="${1:?usage: bench-pair.sh BASE WORKLOAD [PAIRS] [SECONDS]}"
workload="${2:?usage: bench-pair.sh BASE WORKLOAD [PAIRS] [SECONDS]}"
pairs="${3:-10}"
seconds="${4:-22}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pair"
rev="$(git -C "$root" rev-parse --verify "$base^{commit}")"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off

rm -rf "$work" && mkdir -p "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
(cd "$work/base/bench" && go build -o "$work/bench-base" .)
(cd "$root/bench" && go build -o "$work/bench-head" .)

# run SIDE TREE SEED appends "SIDE <last line of output>" to the log.
run() {
	local out
	out="$(cd "$2" && "$work/bench-$1" -workload "$workload" -trace 0 -seed "$3" -seconds "$seconds" 2>/dev/null | tail -n 1)"
	echo "$1 $out" >>"$work/runs.log"
	echo "pair $3 $1: $out" >&2
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run base "$work/base" "$i" && run head "$root" "$i"
	else
		run head "$root" "$i" && run base "$work/base" "$i"
	fi
done

echo "bench-pair: $workload, $pairs pairs of ${seconds}s, base ${rev:0:12} against the working tree"
head="$(git -C "$root" rev-parse --short=12 HEAD)"
[ -z "$(git -C "$root" status --porcelain)" ] || head="$head+dirty"
host="$(uname -sm) $(getconf _NPROCESSORS_ONLN)cpu $(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null) $(go env GOVERSION)"
awk -v hist="$root/BENCH_HISTORY.jsonl" -v head="$head" -v base="${rev:0:12}" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v workload="$workload" -v pairs="$pairs" -v seconds="$seconds" -v host="$host" '
function stat(a, n, wins) { return sprintf("{\"q1\":%.8g,\"median\":%.8g,\"q3\":%.8g,\"wins\":%d}", quant(a, n, .25), quant(a, n, .5), quant(a, n, .75), wins) }
function quant(a, n, q,    pos, lo) { pos = (n - 1) * q; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > n) ? n : lo + 2] - a[lo + 1]) }
function sorted(side, m, out,    i, j, n, t) {
	n = cnt[side]
	for (i = 1; i <= n; i++) out[i] = v[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
	return n
}
{
	side = $1; cnt[side]++
	if ($0 ~ /"failed":[1-9]/ || $0 !~ /"correct":true/) bad[side]++
	while (match($0, /"[a-z_0-9]+":\{"unit":"[^"]*","value":[-0-9.e+]+/)) {
		s = substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH)
		name = s; sub(/^"/, "", name); sub(/".*/, "", name)
		val = s; sub(/.*"value":/, "", val)
		if (!(name in seen)) { seen[name]; order[++nm] = name }
		v[side, name, cnt[side]] = val + 0
	}
}
END {
	printf "%-18s %-5s %12s %12s %12s %6s\n", "metric", "side", "q1", "median", "q3", "wins"
	for (k = 1; k <= nm; k++) {
		m = order[k]; wb = wh = 0
		for (i = 1; i <= cnt["base"] && i <= cnt["head"]; i++) {
			if (v["head", m, i] < v["base", m, i]) wh++
			else if (v["head", m, i] > v["base", m, i]) wb++
		}
		nb = sorted("base", m, b); printf "%-18s %-5s %12.4f %12.4f %12.4f %6d\n", m, "base", quant(b, nb, .25), quant(b, nb, .5), quant(b, nb, .75), wb
		nh = sorted("head", m, h); printf "%-18s %-5s %12.4f %12.4f %12.4f %6d\n", m, "head", quant(h, nh, .25), quant(h, nh, .5), quant(h, nh, .75), wh
		json = json (k > 1 ? "," : "") sprintf("\"%s\":{\"base\":%s,\"head\":%s}", m, stat(b, nb, wb), stat(h, nh, wh))
	}
	if (bad["base"] + bad["head"] > 0) {
		printf "runs with failed or incorrect ops: base %d, head %d (no history line written)\n", bad["base"], bad["head"]
		exit
	}
	printf "{\"rev\":\"%s\",\"base\":\"%s\",\"date\":\"%s\",\"workload\":\"%s\",\"pairs\":%d,\"seconds\":%d,\"host\":\"%s\",\"source\":\"bench-pair\",\"metrics\":{%s}}\n",
		head, base, date, workload, pairs, seconds, host, json >>hist
}' "$work/runs.log"
