#!/usr/bin/env bash
# Tape-identity proof for a performance change: a speed-up only counts
# if the optimised program produces exactly the outputs of the old one.
#
#   scripts/tape_identity.sh BASE [DAYS]
#
# BASE is a git revision (normally the parent of the change); DAYS is
# the fig2_downtime horizon (default 30). The script checks BASE out as
# a git worktree at target/tape_identity/base (kept between runs so its
# build is reused), builds fig2_downtime and qosbench in both trees, and
# then compares
#
#   * the ledger, trace and SLO exports of
#     `fig2_downtime --seed 11 --days DAYS --trace` byte for byte;
#   * the repetition digests of `qosbench --seconds 1` on site-agents,
#     site-manual and evidence at seeds 11 and 424242, each side also
#     required to report `"correct": true` with 0 failed checks.
#
# Outputs land in target/tape_identity/out-{base,head}. Exits non-zero on
# any difference. It takes minutes, so scripts/ci.sh does not run it.
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev=${1:?usage: scripts/tape_identity.sh BASE [DAYS]}
days=${2:-30}
head_tree=$PWD
work=$head_tree/target/tape_identity
base_tree=$work/base

mkdir -p "$work"
if [ -f "$base_tree/.git" ]; then
    git -C "$base_tree" checkout --quiet --detach --force "$base_rev"
else
    rm -rf "$base_tree"
    git worktree prune
    git worktree add --quiet --detach "$base_tree" "$base_rev"
fi
echo "base: $(git -C "$base_tree" rev-parse --short HEAD) ($base_rev)  head: working tree"

for tree in "$base_tree" "$head_tree"; do
    echo "== build $tree"
    (cd "$tree" &&
        cargo build --release --offline --quiet -p intelliqos-bench --bin fig2_downtime &&
        cargo build --release --offline --quiet --manifest-path qosbench/Cargo.toml)
done

status=0
same() { # label file-a file-b
    if cmp -s "$2" "$3"; then
        echo "identical  $1"
    else
        echo "DIFFERS    $1 ($2 vs $3)"
        status=1
    fi
}

exports="fig2_downtime_manual.json fig2_downtime_manual_slo.json
         fig2_downtime_agents.json fig2_downtime_agents_slo.json"
for side in base head; do
    tree=$base_tree
    [ "$side" = head ] && tree=$head_tree
    out=$work/out-$side
    rm -rf "$out" "$tree/results/evidence"
    mkdir -p "$out"
    echo "== fig2_downtime --seed 11 --days $days --trace ($side)"
    (cd "$tree" && ./target/release/fig2_downtime --seed 11 --days "$days" --trace) > "$out/fig2.txt"
    for f in $exports; do
        cp "$tree/results/evidence/$f" "$out/$f"
    done
    rm -rf "$tree/results/evidence"
    for seed in 11 424242; do
        for w in site-agents site-manual evidence; do
            echo "== qosbench --workload $w --seed $seed --seconds 1 ($side)"
            (cd "$tree" && ./qosbench/target/release/qosbench \
                --workload "$w" --seed "$seed" --seconds 1 --trace 0) > "$out/qosbench_${w}_$seed.txt"
            grep -E '^rep [0-9]+: digest' "$out/qosbench_${w}_$seed.txt" |
                awk '{print $4}' | sort -u > "$out/qosbench_${w}_$seed.digests"
            if ! grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' \
                "$out/qosbench_${w}_$seed.txt"; then
                echo "FAILED     qosbench $w seed $seed ($side): not correct"
                status=1
            fi
        done
    done
done

for f in $exports; do
    same "$f (days $days)" "$work/out-base/$f" "$work/out-head/$f"
done
for seed in 11 424242; do
    for w in site-agents site-manual evidence; do
        d=qosbench_${w}_$seed.digests
        same "qosbench $w seed $seed: $(tr '\n' ' ' < "$work/out-head/$d")" \
            "$work/out-base/$d" "$work/out-head/$d"
    done
done
if [ "$status" -eq 0 ]; then
    echo "tape identity: PASS"
else
    echo "tape identity: FAIL"
fi
exit "$status"
