#!/usr/bin/env bash
# Holds every example's output to its committed copy.
#
# Builds ./examples/..., runs each example and compares its stdout with
# examples/<name>/output.txt. On a difference it names every example that
# differs, each with its first differing line, committed and got. The
# examples run in virtual time and print no wall clock, so their output
# repeats byte for byte (all five take about 5 s on a 2-core guest). A
# change that moves an example's output rewrites its output.txt in the same
# commit and says in CHANGES.md why it moved. Run from the root of the
# checkout:
#
#   bash .github/scripts/examples.sh
#
# To re-pin one example:
#
#   go run ./examples/<name> >examples/<name>/output.txt
set -euo pipefail
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./examples/...
bad=()
for dir in examples/*/; do
	name="$(basename "$dir")"
	want="${dir}output.txt"
	got="$tmp/$name.out"
	if [ ! -s "$want" ]; then
		echo "examples: $name: $want is missing or empty" >&2
		bad+=("$name")
		continue
	fi
	status=0
	"$tmp/$name" >"$got" 2>"$tmp/$name.err" || status=$?
	if [ "$status" -ne 0 ]; then
		echo "examples: $name exited $status:" >&2
		cat "$tmp/$name.err" >&2
		bad+=("$name")
		continue
	fi
	cmp -s "$want" "$got" && continue
	# The first line that differs, or the first line only one side has.
	line="$(awk 'NR == FNR { w[FNR] = $0; n = FNR; next }
		!d && (!(FNR in w) || w[FNR] != $0) { d = FNR }
		{ m = FNR }
		END { if (!d) d = (m < n ? m + 1 : n + 1); print d }' "$want" "$got")"
	echo "examples: $name differs from $want at line $line:" >&2
	echo "  committed: $(sed -n "${line}p" "$want")" >&2
	echo "  got:       $(sed -n "${line}p" "$got")" >&2
	bad+=("$name")
done
if [ "${#bad[@]}" -gt 0 ]; then
	echo "examples: $(IFS=,; echo "${bad[*]}") differ from their committed output" >&2
	exit 1
fi
echo "examples: all $(ls -d examples/*/ | wc -l) examples match their committed output"
