#!/usr/bin/env bash
# The pulse gate's self-overhead ratio over repeated standalone runs.
#
#   scripts/pulse_ratio.sh <runs>
#
# Builds the `gate` binary once in release mode and runs `gate pulse` <runs>
# times, each in a process of its own. Prints each run's self-overhead line
# (`pulse self-overhead: ... = <ratio>%`, marked FAILED when the run exits
# non-zero), then the min/median/max of the ratio and `failed <k> of <runs>`.
# Exits 1 if any run failed. The ratio is a host-time measurement: it reads
# only what this host gives, so say which host it ran on when you quote it.
# Offline, no dependency beyond cargo and awk.
set -euo pipefail

if [ "$#" -ne 1 ] || ! [ "$1" -gt 0 ] 2>/dev/null; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
runs=$1

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
target=${CARGO_TARGET_DIR:-$root/target}
cargo build --release --offline --quiet -p drms-bench --bin gate

failed=0
ratios=()
for i in $(seq 1 "$runs"); do
    mark=""
    out=$("$target/release/gate" pulse 2>&1) || { mark="FAILED "; failed=$((failed + 1)); }
    line=$(grep '^pulse self-overhead:' <<<"$out" || echo "pulse self-overhead: (no line)")
    printf 'run %3d: %s%s\n' "$i" "$mark" "$line"
    ratio=$(sed -nE 's/.*= ([0-9.]+)%$/\1/p' <<<"$line")
    [ -z "$ratio" ] || ratios+=("$ratio")
done

if [ "${#ratios[@]}" -gt 0 ]; then
    printf '%s\n' "${ratios[@]}" | sort -g | awk '
        { r[NR] = $1 }
        END {
            mid = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
            printf "ratio min/median/max: %.3f%% / %.3f%% / %.3f%% over %d runs\n", r[1], mid, r[NR], NR
        }'
fi
echo "failed $failed of $runs"
[ "$failed" -eq 0 ]
