#!/usr/bin/env bash
# Holds the benchmark's exact counts to the committed trajectory.
#
# Re-runs the four workloads of BENCHMARK.json at seed 1 and their minimum
# repetition count (--seconds 0), which reproduces the exact fields of a
# 20 s run, and compares each with the newest row for that workload in
# BENCH_counts.json (JSONL, one row per workload and change):
#
#   - sim_hops_mean, ok_frac and op_samples must be equal;
#   - allocs_per_op, alloc_bytes_per_op and heap_bytes_per_node may not be
#     more than 1 % above the row (the BENCHMARK.json bound). Allocations
#     depend on the Go toolchain, so this half is checked only when the
#     row was measured with the same `go` version as this run.
#
# Timings are never compared. A change that moves a count appends a row
# for every workload it moves; the newest row is the reference. Run from
# the root of the checkout:
#
#   bash .github/scripts/bench_counts.sh [BENCH_counts.json]
set -euo pipefail
rows="${1:-BENCH_counts.json}"
gover="$(go env GOVERSION)"
fail=0
for w in ring_build ring_route sharded_ring wow_transfer; do
	want="$(jq -c --arg w "$w" 'select(.workload == $w)' "$rows" | tail -n 1)"
	if [ -z "$want" ]; then
		echo "bench_counts: no row for $w in $rows" >&2
		fail=1
		continue
	fi
	got="$(bash bench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 0 2>/dev/null | tail -n 1)"
	bounded=false
	if [ "$(jq -r '.env.go' <<<"$want")" = "$gover" ]; then
		bounded=true
	fi
	verdict="$(jq -rn --argjson want "$want" --argjson got "$got" --argjson bounded "$bounded" '
		($got.metrics | map_values(.value)) as $m
		| [ (if $got.correct != true then "run not correct" else empty end),
		    ("sim_hops_mean", "ok_frac", "op_samples"
		     | select($m[.] != $want[.])
		     | "\(.) \($m[.]) != \($want[.])"),
		    (if $bounded then
		       ("allocs_per_op", "alloc_bytes_per_op", "heap_bytes_per_node"
		        | select($want[.] != null and $m[.] > $want[.] * 1.01)
		        | "\(.) \($m[.]) > \($want[.]) + 1 %")
		     else empty end) ]
		| join("; ")')"
	if [ -n "$verdict" ]; then
		echo "bench_counts: $w: $verdict" >&2
		fail=1
	else
		echo "bench_counts: $w: matches the row of PR $(jq -r '.pr' <<<"$want") (bounded fields checked: $bounded)"
	fi
done
exit "$fail"
