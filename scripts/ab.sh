#!/usr/bin/env sh
# A/B benchmark: the campaign benchmark at <rev> (the parent) against
# the working tree (the change), in alternating pairs of runs.
#
#   scripts/ab.sh <rev> [pairs] [seconds]
#
# Both sides are copied out of the repository, <rev> with `git archive`
# and the working tree's tracked and unignored files with `tar`, and
# built there: building `campaign_bench` inside the repository would
# rewrite its committed `Cargo.lock`. Each pair runs the parent and
# then the change (the order flips every pair) with `--trace 0` on
# seeds 1 and 7919, for `table3` and `rsa_leak`, `seconds` (default 40)
# per run; `pairs` defaults to 5. It prints, per workload, seed and
# end-to-end metric, each side's quartiles, the ratio of the medians
# (change / parent), the pairs the change won and the parent's IQR,
# with each run's output check (`correct`, 1 = passed) and failed
# operations beside them; every run's records go to stderr as they
# come. The copies go under `mktemp -d` (set TMPDIR to move them). Needs git,
# cargo, GNU tar and a POSIX shell with awk.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [pairs] [seconds]" >&2
    exit 2
fi
REV="$1"
PAIRS="${2:-5}"
SECONDS_PER_RUN="${3:-40}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/parent" "$WORK/change"
git -C "$REPO" archive "$REV" | tar -x -C "$WORK/parent"
(cd "$REPO" && git ls-files -z --cached --others --exclude-standard |
    tar --null --no-recursion -T - -cf -) | tar -x -C "$WORK/change"

for side in parent change; do
    echo "building $side" >&2
    cargo build --release --quiet --manifest-path "$WORK/$side/campaign_bench/Cargo.toml"
done

# One run: the metrics line of `side` on `workload` and `seed`, as
# `workload seed side pair metric value` records, each also on stderr.
run() {
    side="$1" workload="$2" seed="$3" pair="$4"
    line="$(cd "$WORK/$side" &&
        ./campaign_bench/target/release/campaign-bench --workload "$workload" \
            --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -1)"
    for metric in jobs_per_s bits_per_s sim_cycles_per_s setup_s peak_rss_mb; do
        value="$(printf '%s\n' "$line" |
            sed -n "s/.*\"$metric\": {\"value\": \([-0-9.eE+]*\).*/\1/p")"
        echo "$workload $seed $side $pair $metric ${value:-nan}" | tee /dev/stderr
    done
    # The run's output check (1 = passed) and its failed operations.
    case "$line" in
        *'"correct": true'*) correct=1 ;;
        *) correct=0 ;;
    esac
    failed="$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
    echo "$workload $seed $side $pair correct $correct" | tee /dev/stderr
    echo "$workload $seed $side $pair failed ${failed:-nan}" | tee /dev/stderr
}

RESULTS="$WORK/results"
: > "$RESULTS"
pair=1
while [ "$pair" -le "$PAIRS" ]; do
    for seed in 1 7919; do
        for workload in table3 rsa_leak; do
            if [ $((pair % 2)) -eq 1 ]; then
                order="parent change"
            else
                order="change parent"
            fi
            for side in $order; do
                echo "pair $pair/$PAIRS: $workload seed $seed $side" >&2
                run "$side" "$workload" "$seed" "$pair" >> "$RESULTS"
            done
        done
    done
    pair=$((pair + 1))
done

sort -k1,1 -k2,2n -k5,5 -k3,3 -k4,4n "$RESULTS" | awk '
function q(arr, n, p,    pos, lo) {
    # Linear interpolation between order statistics (arr sorted 1..n).
    pos = 1 + (n - 1) * p
    lo = int(pos)
    if (lo >= n) return arr[n]
    return arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])
}
function sortn(arr, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = arr[i]
        for (j = i - 1; j >= 1 && arr[j] > t; j--) arr[j + 1] = arr[j]
        arr[j + 1] = t
    }
}
function flush(    i, n, a, b, lower, wins, ratio) {
    if (key == "") return
    lower = (metric == "setup_s" || metric == "peak_rss_mb" || metric == "failed")
    n = 0
    wins = 0
    for (i in pv) {
        n++
        a[n] = pv[i]
        b[n] = cv[i]
        if ((lower && cv[i] < pv[i]) || (!lower && cv[i] > pv[i])) wins++
    }
    sortn(a, n)
    sortn(b, n)
    ratio = q(a, n, 0.5) == 0 ? 0 : q(b, n, 0.5) / q(a, n, 0.5)
    printf "%-9s %5s %-17s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %7.3f %3d/%-3d %12.6g\n",
        wl, sd, metric, q(a, n, 0.25), q(a, n, 0.5), q(a, n, 0.75),
        q(b, n, 0.25), q(b, n, 0.5), q(b, n, 0.75), ratio, wins, n,
        q(a, n, 0.75) - q(a, n, 0.25)
    delete pv
    delete cv
}
BEGIN {
    printf "%-9s %5s %-17s %12s %12s %12s | %12s %12s %12s | %7s %7s %12s\n",
        "workload", "seed", "metric", "parent q1", "median", "q3",
        "change q1", "median", "q3", "ratio", "wins", "parent IQR"
}
{
    k = $1 " " $2 " " $5
    if (k != key) { flush(); key = k; wl = $1; sd = $2; metric = $5 }
    if ($3 == "parent") pv[$4] = $6; else cv[$4] = $6
}
END { flush() }
'
