#!/usr/bin/env bash
# Holds every byte of the seed-5 stream to the committed file.
#
# Re-runs `wow-bench -run all -seed 5 -json`, drops the wall-clock and host
# fields (…WallSec, JoinsPerSec, RoutedPerSec, NsPerPacket, AllocsPerOp,
# MaxProcs), which differ from run to run, and compares what is left with
# BENCH_seed5.jsonl line by line. On a difference it names every
# experiment with a differing envelope and prints the first one, committed
# and got. A change that moves a byte re-pins the file in the same commit
# and says in CHANGES.md which experiments moved and why. Run from the root
# of the checkout (with the toolchain the file was made with):
#
#   bash .github/scripts/seed5.sh [BENCH_seed5.jsonl]
#
# To re-pin, write the normalized stream over the file with the same jq
# filter as $normalize below:
#
#   go run ./cmd/wow-bench -run all -seed 5 -json | jq -c '<filter>' >BENCH_seed5.jsonl
set -euo pipefail
want="${1:-BENCH_seed5.jsonl}"
normalize='walk(if type == "object" then with_entries(select(.key | test("WallSec$|^JoinsPerSec$|^RoutedPerSec$|^NsPerPacket$|^AllocsPerOp$|^MaxProcs$") | not)) else . end)'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/wow-bench" ./cmd/wow-bench
status=0
"$tmp/wow-bench" -run all -seed 5 -json >"$tmp/raw" 2>"$tmp/stderr" || status=$?
if [ "$status" -ne 0 ]; then
	echo "seed5: wow-bench exited $status:" >&2
	grep '^wow-bench:' "$tmp/stderr" >&2 || true
fi
jq -c "$normalize" <"$tmp/raw" >"$tmp/got"
if [ ! -s "$want" ]; then
	echo "seed5: $want is missing or empty" >&2
	exit 1
fi
if cmp -s "$want" "$tmp/got"; then
	echo "seed5: all $(wc -l <"$want") envelopes match $want"
	exit "$status"
fi

# Line numbers that differ, including lines only one side has.
awk 'NR == FNR { w[FNR] = $0; n = FNR; next }
	{ if (!(FNR in w) || w[FNR] != $0) print FNR; m = FNR }
	END { for (i = m + 1; i <= n; i++) print i }' "$want" "$tmp/got" >"$tmp/lines"
pick() { awk 'NR == FNR { bad[$1] = 1; next } FNR in bad' "$tmp/lines" "$1"; }
moved="$({ pick "$want"; pick "$tmp/got"; } | jq -r '.experiment' | awk '!seen[$0]++' | paste -sd, -)"
first="$(head -n 1 "$tmp/lines")"
echo "seed5: $(wc -l <"$tmp/lines") of $(wc -l <"$want") envelopes differ from $want (committed $(wc -l <"$want"), got $(wc -l <"$tmp/got") lines)" >&2
echo "seed5: experiments with a differing envelope: $moved" >&2
echo "seed5: first difference, line $first:" >&2
echo "  committed: $(sed -n "${first}p" "$want")" >&2
echo "  got:       $(sed -n "${first}p" "$tmp/got")" >&2
exit 1
