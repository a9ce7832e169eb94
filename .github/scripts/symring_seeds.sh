#!/usr/bin/env bash
# Sweeps the all-symmetric-NAT ring (`wow-bench -run nat`, experiment
# "symmetric-ring") over seeds 1-20 and holds every seed to what is known.
#
# One line per seed: MissingNear (ring successors with no structured-near
# link), TunnelsEstablished, RoutableFrac and PingOK of the VIP pings between
# the two symmetric-NATed workstations. The run fails when
#
#   - any seed loses routability (RoutableFrac below 1) or a ping;
#   - MissingNear differs from the pinned list below at any seed.
#
# The pinned list is ROADMAP defect (8): near links that some seeds still
# leave missing at the end of the run, 0 at every seed not listed. A change
# that mends (8) shrinks the list in the same commit; a run that fails is
# never made to pass by growing it. About 45 s on a 2-core machine, the build
# included. Run from the root of the checkout:
#
#   bash .github/scripts/symring_seeds.sh
set -euo pipefail
declare -A known=([1]=1 [8]=1 [11]=5 [12]=1 [19]=3)
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/wow-bench" ./cmd/wow-bench
fail=0
for seed in $(seq 1 20); do
	row="$("$dir/wow-bench" -run nat -seed "$seed" -json 2>/dev/null |
		jq -r 'select(.experiment == "symmetric-ring") | .data |
			"\(.MissingNear) \(.TunnelsEstablished) \(.RoutableFrac) \(.PingOK) \(.PingsSent)"')"
	if [ -z "$row" ]; then
		echo "symring_seeds: seed $seed: no symmetric-ring envelope" >&2
		fail=1
		continue
	fi
	read -r missing tunnels routable pingok pings <<<"$row"
	want="${known[$seed]:-0}"
	verdict=ok
	if [ "$routable" != 1 ] || [ "$pingok" != "$pings" ]; then
		verdict="FAIL: routability or a ping lost"
		fail=1
	elif [ "$missing" != "$want" ]; then
		verdict="FAIL: MissingNear $missing, pinned $want"
		fail=1
	fi
	printf 'seed %2d: MissingNear %2d TunnelsEstablished %5d RoutableFrac %s PingOK %s/%s  %s\n' \
		"$seed" "$missing" "$tunnels" "$routable" "$pingok" "$pings" "$verdict"
done
exit "$fail"
