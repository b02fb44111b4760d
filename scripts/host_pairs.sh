#!/usr/bin/env bash
# The paired-run protocol of benchmark/README.md, "Claiming a gain", as one
# command: the working tree (the change) against a parent revision.
#
#   scripts/host_pairs.sh <parent-rev> <pairs> <seed-base> [workload...]
#
# Builds each side once with its own CARGO_TARGET_DIR, then runs <pairs>
# untraced pairs per workload (all of BENCHMARK.json's when none is named) on
# seeds <seed-base>, <seed-base>+1, ... — both sides of a pair on the same
# seed, so stored_ratio / sim_ckpt_s / sim_restore_s can be compared to the
# last digit — alternating which side goes first, then one traced pair per
# workload on <seed-base> for the per-layer rows. Each invocation starts
# .bench_build/pairs/{parent,change}.jsonl afresh and writes this run's
# records there, every run's table to {parent,change}.log beside them (name
# each workload once: a (workload, seed, trace) key names one record a
# side). The last two steps are `compare parent.jsonl change.jsonl` (exit
# code 1 on a regression) and rule 5 of "Claiming a gain": for every
# (workload, seed, trace) pair of records whose two runs attempted the same
# number of ops, stored_ratio, sim_ckpt_s, sim_restore_s and ok_share must be
# textually equal on both sides; each mismatch is printed. The script exits
# non-zero if either step objects. Last, one line per (workload, end-to-end
# metric) counts the untraced pairs the change won in the metric's `better`
# direction from BENCHMARK.json (ties count for neither side), the tally the
# 9-in-10 rule of "Claiming a gain" reads. The same (workload, metric) pairs
# are summarized as one JSON record each in .bench_build/pairs/summary.jsonl
# (rewritten every invocation, over this invocation's records): the
# label $HOST_PAIRS_LABEL (default "unlabelled"), the parent revision and
# this invocation's seed base, the pairs counted, won and lost, each side's
# median and quartiles (the methods of benchmark/src/stats.rs; null quartiles
# with fewer than two runs), each side's host.memcpy_mbps (median of its
# traced runs of the workload) and `nproc`. A change that claims a host-speed
# gain appends them to the committed trajectory, results/host/BENCH_host.jsonl.
#
# Everything lives under .bench_build/pairs/, which is git-ignored and clear
# of the benchmark driver's own CARGO_TARGET_DIR=.bench_build. The parent's
# committed files are unpacked there with `git archive` (what the driver
# itself measures: committed files in a new directory; nothing is registered
# in .git, nothing to prune). Offline, no dependency beyond git, tar, cargo,
# sed and awk.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
rev=$1 pairs=$2 seed_base=$3
shift 3

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
work=.bench_build/pairs
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
fi

commit=$(git rev-parse --verify "$rev^{commit}")
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$commit" | tar -x -C "$work/parent"

build() { # <side> <manifest>: prints the path of the side's binary
    CARGO_TARGET_DIR="$root/$work/target-$1" \
        cargo build --release --offline --quiet --manifest-path "$2" >&2
    echo "$root/$work/target-$1/release/drms-benchmark"
}
parent_bin=$(build parent "$work/parent/benchmark/Cargo.toml")
change_bin=$(build change benchmark/Cargo.toml)
rm -f "$work"/{parent,change}.{jsonl,log}

run() { # <side> <workload> <seed> <trace>
    local bin=${1}_bin
    "${!bin}" run --workload "$2" --seed "$3" --trace "$4" --out "$work/$1.jsonl" \
        >>"$work/$1.log" || echo "$1 $2 seed $3: exit $? (counted in ok_share)" >&2
}
pair() { # <first> <second> <workload> <seed> <trace>
    run "$1" "$3" "$4" "$5"
    run "$2" "$3" "$4" "$5"
}

echo "parent $commit, ${#workloads[@]} workload(s), $pairs pair(s) from seed $seed_base" >&2
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "$w pair $((i + 1))/$pairs, seed $((seed_base + i)), ${order[0]} first" >&2
        pair "${order[@]}" "$w" $((seed_base + i)) 0
    done
    echo "$w traced pair, seed $seed_base" >&2
    pair parent change "$w" "$seed_base" 1
done

status=0
"$change_bin" compare "$work/parent.jsonl" "$work/change.jsonl" || status=$?

exact_names=(attempted stored_ratio sim_ckpt_s sim_restore_s ok_share)
exact() { # <side>: "workload seed trace attempted stored_ratio sim_ckpt_s sim_restore_s ok_share" per record
    sed -n 's/^{"workload": "\([^"]*\)", "seed": \([0-9]*\),.*"trace": \([01]\),.*"attempted": \([0-9]*\),.*"stored_ratio": {"value": \([^,]*\),.*"sim_ckpt_s": {"value": \([^,]*\),.*"sim_restore_s": {"value": \([^,]*\),.*"ok_share": {"value": \([^,]*\),.*/\1 \2 \3 \4 \5 \6 \7 \8/p' \
        "$work/$1.jsonl"
}
declare -A parent_rec=()
while read -r w s t rec; do
    parent_rec["$w seed $s trace $t"]=$rec
done < <(exact parent)
checked=0 mismatches=0
while read -r w s t rec; do
    key="$w seed $s trace $t"
    read -r -a p <<<"${parent_rec["$key"]:-}"
    read -r -a c <<<"$rec"
    # Unpaired, or the loop limit cut one side's ops short: medians over
    # different op counts are not the same quantity.
    [ "${p[0]:-}" = "${c[0]}" ] || continue
    checked=$((checked + 1))
    for j in 1 2 3 4; do
        if [ "${p[j]}" != "${c[j]}" ]; then
            echo "exact metric differs: $key: ${exact_names[j]} parent ${p[j]} change ${c[j]}" >&2
            mismatches=$((mismatches + 1))
        fi
    done
done < <(exact change)
echo "exact metrics: $checked pair(s) of equal op count checked, $mismatches mismatch(es)" >&2
[ "$mismatches" -eq 0 ] || status=1

mapfile -t e2e < <(sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' BENCHMARK.json)
e2e_values() { # <side>: "workload seed value..." per untraced record, values in e2e order
    local line w s e m v vals
    while IFS= read -r line; do
        [[ $line == *'"trace": 0,'* ]] || continue
        w=${line#*\"workload\": \"} && w=${w%%\"*}
        s=${line#*\"seed\": } && s=${s%%,*}
        e=${line#*\"end_to_end\": } && e=${e%%\"per_layer\"*}
        vals=()
        for m in "${e2e[@]}"; do
            v=${e#*\"${m% *}\": \{\"value\": }
            [ "$v" = "$e" ] && v=null || v=${v%%,*}
            vals+=("$v")
        done
        echo "$w $s ${vals[*]}"
    done <"$work/$1.jsonl"
}
dec_cmp() { # <a> <b>: -1, 0 or 1 for two non-negative decimal numerals
    local ai=${1%%.*} bi=${2%%.*} af="" bf=""
    [[ $1 == *.* ]] && af=${1#*.}
    [[ $2 == *.* ]] && bf=${2#*.}
    while ((${#af} < ${#bf})); do af+=0; done
    while ((${#bf} < ${#af})); do bf+=0; done
    if ((${#ai} != ${#bi})); then
        ((${#ai} < ${#bi})) && echo -1 || echo 1
    elif [ "$ai$af" = "$bi$bf" ]; then
        echo 0
    else
        [[ $ai$af < $bi$bf ]] && echo -1 || echo 1
    fi
}
declare -A parent_vals=() won=() lost=() tied=()
workloads_seen=()
while read -r w s rec; do
    parent_vals["$w $s"]=$rec
done < <(e2e_values parent)
while read -r w s rec; do
    [ -n "${parent_vals["$w $s"]:-}" ] || continue
    read -r -a p <<<"${parent_vals["$w $s"]}"
    read -r -a c <<<"$rec"
    [ -n "${won["$w 0"]+set}" ] || workloads_seen+=("$w")
    for j in "${!e2e[@]}"; do
        key="$w $j"
        won[$key]=${won[$key]:-0} lost[$key]=${lost[$key]:-0} tied[$key]=${tied[$key]:-0}
        if [[ ! ${p[j]} =~ ^[0-9.]+$ || ! ${c[j]} =~ ^[0-9.]+$ ]]; then
            tied[$key]=$((tied[$key] + 1))
            continue
        fi
        d=$(dec_cmp "${c[j]}" "${p[j]}")
        [ "${e2e[j]#* }" = lower ] && d=$((-d))
        case $d in
            1) won[$key]=$((won[$key] + 1)) ;;
            -1) lost[$key]=$((lost[$key] + 1)) ;;
            *) tied[$key]=$((tied[$key] + 1)) ;;
        esac
    done
done < <(e2e_values change)
for w in "${workloads_seen[@]}"; do
    for j in "${!e2e[@]}"; do
        key="$w $j"
        n=$((won[$key] + lost[$key] + tied[$key]))
        echo "pairs won: $w ${e2e[j]% *} (${e2e[j]#* } is better): change ${won[$key]} of $n, parent ${lost[$key]}, tied ${tied[$key]}" >&2
    done
done

summarize() { # "key1 key2 value" lines -> "key1 key2 median q1 q3" per key pair
    sort -k1,1 -k2,2n -k3,3g |
        awk 'function at(q,   pos, j) { # benchmark/src/stats.rs: quartiles
                 pos = q * (n + 1); j = int(pos)
                 if (j < 1) j = 1
                 if (j > n - 1) j = n - 1
                 return v[j] + (pos - j) * (v[j + 1] - v[j])
             }
             function flush(   m) {
                 if (n == 0) return
                 m = n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
                 if (n < 2) printf "%s %.6g null null\n", last, m
                 else printf "%s %.6g %.6g %.6g\n", last, m, at(0.25), at(0.75)
             }
             ($1 " " $2) != last { flush(); n = 0; last = $1 " " $2 }
             { v[++n] = $3 }
             END { flush() }'
}
stats() { # <side>: "workload metric-index median q1 q3" per (workload, end-to-end metric)
    e2e_values "$1" |
        awk '{ for (j = 3; j <= NF; j++) if ($j != "null") print $1, j - 3, $j }' | summarize
}
memcpy() { # <side> <workload>: median host.memcpy_mbps over the side's traced runs, or null
    local med
    read -r _ _ med _ < <(grep -F "{\"workload\": \"$2\"," "$work/$1.jsonl" | grep -F '"trace": 1,' |
        sed -n 's/.*"host\.memcpy_mbps": {"value": \([^,}]*\).*/memcpy 0 \1/p' | summarize) || true
    echo "${med:-null}"
}
declare -A stat=()
for side in parent change; do
    while read -r w j rest; do stat["$side $w $j"]=$rest; done < <(stats "$side")
done
label=${HOST_PAIRS_LABEL:-unlabelled}
summary=$work/summary.jsonl
for w in "${workloads_seen[@]}"; do
    pm=$(memcpy parent "$w") cm=$(memcpy change "$w")
    for j in "${!e2e[@]}"; do
        key="$w $j"
        read -r p_med p_q1 p_q3 <<<"${stat["parent $key"]:-null null null}"
        read -r c_med c_q1 c_q3 <<<"${stat["change $key"]:-null null null}"
        printf '{"pr": "%s", "parent": "%s", "seed_base": %s, "workload": "%s", "metric": "%s", ' \
            "$label" "${commit:0:7}" "$seed_base" "$w" "${e2e[j]% *}"
        printf '"pairs": %s, "won": %s, "lost": %s, ' \
            "$((won[$key] + lost[$key] + tied[$key]))" "${won[$key]}" "${lost[$key]}"
        printf '"parent_median": %s, "parent_q1": %s, "parent_q3": %s, ' "$p_med" "$p_q1" "$p_q3"
        printf '"change_median": %s, "change_q1": %s, "change_q3": %s, ' "$c_med" "$c_q1" "$c_q3"
        printf '"parent_memcpy_mbps": %s, "change_memcpy_mbps": %s, "nproc": %s, "source": "host_pairs"}\n' \
            "$pm" "$cm" "$(nproc)"
    done
done >"$summary"
echo "summary: $(wc -l <"$summary") record(s) in $summary" >&2
exit "$status"
