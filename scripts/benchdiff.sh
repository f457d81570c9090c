#!/usr/bin/env bash
# Interleaved old-vs-new benchmark comparison (mirrored by `make
# bench-diff`). EXPERIMENTS.md prescribes the methodology for every
# speedup claim in this repo: build one test binary per side, alternate
# runs of the two binaries on the same machine, and compare per-binary
# *minimums* — the minimum is the run least disturbed by the scheduler,
# and interleaving means slow background phases hit both sides alike.
# The side that runs first alternates from round to round, so neither
# always inherits the other's warm caches or cooling CPU; each binary
# runs from its own package directory, as `go test` runs it.
# Single-CPU CI-class hardware swings individual runs ±30%, so means
# and single runs are both misleading; treat the min-vs-min ratio as
# the result.
#
# Usage: benchdiff.sh [-b BENCH_REGEX] [-n ROUNDS] [-t BENCHTIME] [-p PKG] [BASE_REF]
#   BASE_REF   git ref to compare against (default HEAD); the working
#              tree (including uncommitted changes) is the "new" side.
#   -b REGEX   benchmark selector passed to -test.bench
#              (default '^BenchmarkFullGrid20Reps$')
#   -n ROUNDS  interleaved rounds per side (default 10)
#   -t TIME    -test.benchtime per run (default 3x)
#   -p PKG     package containing the benchmark, as a path from the
#              repository root such as ./internal/ossim (default '.')
set -euo pipefail

BENCH='^BenchmarkFullGrid20Reps$'
ROUNDS=10
BENCHTIME=3x
PKG=.
while getopts "b:n:t:p:" opt; do
    case "$opt" in
        b) BENCH=$OPTARG ;;
        n) ROUNDS=$OPTARG ;;
        t) BENCHTIME=$OPTARG ;;
        p) PKG=$OPTARG ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
BASE_REF=${1:-HEAD}

GO=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building '$PKG' test binaries: base=$BASE_REF vs working tree"
# git archive writes nothing in the repository, so a killed run leaves
# nothing behind there; run from the root, it archives the whole tree.
mkdir "$tmp/base"
(cd "$root" && git archive "$BASE_REF") | tar -x -C "$tmp/base"
(cd "$tmp/base" && $GO test -c -o "$tmp/bench-base" "$PKG")
(cd "$root" && $GO test -c -o "$tmp/bench-new" "$PKG")

# One run of one side from its package directory: print the ns/op of the
# selected benchmark. Multiple matches (sub-benchmarks) are summed so a
# regex matching a family still yields one comparable number per run.
run() {
    (cd "$2/$PKG" && "$1" -test.run '^$' -test.bench "$BENCH" -test.benchtime "$BENCHTIME" -test.timeout 30m) \
        | awk '/^Benchmark/ { for (i = 1; i <= NF; i++) if ($(i) == "ns/op") { ns += $(i-1); seen = 1 } }
               END { if (!seen) { print "no benchmark matched" > "/dev/stderr"; exit 1 }; printf "%.0f\n", ns }'
}

base_min=
new_min=
for i in $(seq 1 "$ROUNDS"); do
    if [ $((i % 2)) -eq 1 ]; then
        b=$(run "$tmp/bench-base" "$tmp/base")
        n=$(run "$tmp/bench-new" "$root")
    else
        n=$(run "$tmp/bench-new" "$root")
        b=$(run "$tmp/bench-base" "$tmp/base")
    fi
    [ -z "$base_min" ] || [ "$b" -lt "$base_min" ] && base_min=$b
    [ -z "$new_min" ] || [ "$n" -lt "$new_min" ] && new_min=$n
    printf 'round %2d/%d: base %12d ns/op   new %12d ns/op\n' "$i" "$ROUNDS" "$b" "$n"
done

awk -v b="$base_min" -v n="$new_min" -v bench="$BENCH" -v ref="$BASE_REF" 'BEGIN {
    printf "\n%s (min of interleaved runs)\n", bench
    printf "  base (%s): %.3f ms/op (%d ns/op)\n", ref, b / 1e6, b
    printf "  new  (working tree): %.3f ms/op (%d ns/op)\n", n / 1e6, n
    printf "  ratio: %.2fx %s\n", (n < b ? b / n : n / b), (n < b ? "faster" : "slower")
}'
