#!/usr/bin/env bash
# Appends one record to TRAJECTORY.jsonl at the repository root: the
# end-to-end benchmark's quartiles on every workload at the checked-out
# commit.
#
# Usage: bash scripts/trajectory.sh [N]     # N runs per workload, default 10
#
# For each workload it runs `bash bench/run.sh --workload W --seed 1
# --repeat N` (N untraced runs, seeds 1..N, each in its own process) and
# records, per workload/metric, the first quartile, median and third
# quartile that prints, together with the commit and the benchmark's env
# block. A commit with uncommitted changes to tracked files is recorded
# with a "-dirty" suffix. Takes N × 4 benchmark runs of wall time.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
n="${1:-10}"
commit="$(git -C "$root" rev-parse --short HEAD)"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	commit="$commit-dirty"
fi

env_json=""
metrics=""
for w in ring-churn hypertext-edit actor-mesh storm; do
	out="$(bash "$root/bench/run.sh" --workload "$w" --seed 1 --repeat "$n")"
	if [ -z "$env_json" ]; then
		env_json="$(printf '%s\n' "$out" | sed -n 's/^env //p' | head -n 1)"
	fi
	# Rows after the "workload W: ..." line: metric q1 median q3 spread unit.
	rows="$(printf '%s\n' "$out" | awk -v w="$w" '
		function num(x) { return x ~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ ? x : "null" }
		/^workload / { on = 1; next }
		on && NF >= 5 && $1 != "metric" {
			printf "%s\"%s/%s\":{\"q1\":%s,\"median\":%s,\"q3\":%s}", sep, w, $1, num($2), num($3), num($4)
			sep = ","
		}')"
	metrics="${metrics:+$metrics,}$rows"
done

printf '{"commit":"%s","date":"%s","runs":%s,"env":%s,"metrics":{%s}}\n' \
	"$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$n" "${env_json:-null}" "$metrics" \
	>> "$root/TRAJECTORY.jsonl"
