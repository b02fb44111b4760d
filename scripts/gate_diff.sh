#!/usr/bin/env bash
# The byte-identity check of a change that must not move a number: every gate
# row's outputs from the working tree against those of a parent revision.
#
#   scripts/gate_diff.sh <parent-rev> [row...]
#
# Unpacks the parent's committed files with `git archive` under
# .bench_build/gates/parent (git-ignored, clear of the benchmark harness's own
# CARGO_TARGET_DIR=.bench_build), builds the `gate` binary once per side with
# its own CARGO_TARGET_DIR, and runs `gate --all --json <dir>` (or, when rows
# are named, `gate <row> --json <dir> --baseline results/baselines/...` for
# each) from each side's own tree, so each side gates against its own
# committed baselines. The two output directories are
# .bench_build/gates/{parent,change}.out. Then it prints `same` or `differs`
# for every file either side wrote, then the diff of each file that differs,
# and exits 1 on any difference (or if either side's gates failed). Every
# output is byte-stable per seed, so any difference is the change's doing.
# Between the two it prints a host table, one line per row: wall seconds and
# peak RSS (MB) of each side, parsed from the `<row>: host <wall> s, peak RSS
# <MB> MB` line every passing row writes to its side's log ("-" where a side
# wrote none).
# Offline, no dependency beyond git, tar, cargo, diff.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
rev=$1
shift

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
work=$root/.bench_build/gates

commit=$(git rev-parse --verify "$rev^{commit}")
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$commit" | tar -x -C "$work/parent"

status=0
side() { # <side> <tree>: builds the side's gate and runs the rows into <side>.out
    local target=$work/target-$1 out=$work/$1.out row
    CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
        --manifest-path "$2/Cargo.toml" -p drms-bench --bin gate
    rm -rf "$out"
    mkdir -p "$out"
    echo "$1: gating in $2" >&2
    if [ "${#rows[@]}" -eq 0 ]; then
        (cd "$2" && "$target/release/gate" --all --json "$out") >"$work/$1.log" 2>&1 ||
            { echo "$1: gate --all failed (see $work/$1.log)" >&2; status=1; }
    else
        for row in "${rows[@]}"; do
            (cd "$2" && "$target/release/gate" "$row" --json "$out" \
                --baseline "results/baselines/BENCH_$row.json") >>"$work/$1.log" 2>&1 ||
                { echo "$1: gate $row failed (see $work/$1.log)" >&2; status=1; }
        done
    fi
}
rows=("$@")
: >"$work/parent.log"
: >"$work/change.log"
side parent "$work/parent"
side change "$root"

differing=()
while read -r f; do
    if cmp -s "$work/parent.out/$f" "$work/change.out/$f"; then
        echo "same     $f"
    else
        echo "differs  $f"
        differing+=("$f")
    fi
done < <( (cd "$work/parent.out" && ls; cd "$work/change.out" && ls) | sort -u)

host() { # <log>: "<row> <wall> <MB>" per host line
    sed -nE 's/^([A-Za-z0-9_]+): host ([0-9.]+) s, peak RSS ([0-9]+|unknown) MB$/\1 \2 \3/p' "$1"
}
echo
awk 'BEGIN { fmt = "%-14s %10s %10s %10s %10s\n"; printf fmt, "row", "parent s", "change s", "parent MB", "change MB" }
     FILENAME == ARGV[1] { p[$1] = $2 " " $3; rows[++n] = $1; next }
     { c[$1] = $2 " " $3; if (!($1 in p)) rows[++n] = $1 }
     END {
         for (i = 1; i <= n; i++) {
             r = rows[i]
             split((r in p) ? p[r] : "- -", a, " ")
             split((r in c) ? c[r] : "- -", b, " ")
             printf fmt, r, a[1], b[1], a[2], b[2]
         }
     }' <(host "$work/parent.log") <(host "$work/change.log")
for f in "${differing[@]}"; do
    echo
    echo "=== $f"
    diff "$work/parent.out/$f" "$work/change.out/$f" || true
done
[ "${#differing[@]}" -eq 0 ] || status=1
exit "$status"
